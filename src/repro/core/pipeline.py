"""The E2-NVM prediction model: VAE encoder + K-means.

This wraps :class:`repro.ml.joint.JointVAEKMeans` behind the interface the
storage layer needs — ``fit`` on segment contents, ``predict_cluster`` for a
(possibly shorter-than-segment) value, ``predict_batch`` for many values in
one forward pass.

A value shorter than a segment is padded to the model width for prediction
only (step 5 of the paper), by one fixed rule: its bits, then zeros.  The
other strategies and positions of the paper's Figures 14 and 15 live in
:mod:`repro.core.padding`, outside the store.

Thread-safety: prediction is safe to call concurrently.  The model forward
pass is stateless (see ``MLP.infer``) and the latency counters sit behind a
small lock.  A batch of ``B`` values counts as ``B`` predictions in the
latency statistics.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.config import E2NVMConfig
from repro.ml.joint import JointVAEKMeans

_BYTES = (bytes, bytearray, memoryview)


class EncoderPipeline:
    """Trainable segment-content → cluster-id model.

    Args:
        input_bits: model width ``w`` (bits per memory segment).
        config: hyperparameters (cluster count, VAE shape).
        faults: optional :class:`repro.testing.faults.FaultInjector`; when
            set, ``fit`` fires the ``"pipeline.fit"`` site so tests can
            inject slow or failing trainings.
    """

    def __init__(
        self, input_bits: int, config: E2NVMConfig, faults=None
    ) -> None:
        if input_bits <= 0:
            raise ValueError("input_bits must be positive")
        self.input_bits = input_bits
        self.config = config
        self.faults = faults
        self.model = JointVAEKMeans(
            input_dim=input_bits,
            n_clusters=config.n_clusters,
            latent_dim=config.latent_dim,
            hidden=config.hidden,
            gamma=config.gamma,
            pretrain_epochs=config.pretrain_epochs,
            joint_epochs=config.joint_epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            seed=config.seed,
        )
        self.trained = False
        self.prediction_count = 0
        self.prediction_seconds = 0.0
        # Guards the latency counters against concurrent predictions.
        self._stats_lock = threading.Lock()

    def fit(self, segment_bits: np.ndarray, verbose: bool = False) -> dict:
        """Train on the bit contents of the (free) memory segments."""
        X = np.atleast_2d(np.asarray(segment_bits, dtype=np.float64))
        if X.shape[1] != self.input_bits:
            raise ValueError(
                f"segments have {X.shape[1]} bits, model expects {self.input_bits}"
            )
        if self.faults is not None:
            self.faults.fire("pipeline.fit")
        self.model.fit(X, verbose=verbose)
        self.trained = True
        return self.model.history

    def predict_cluster(self, value: bytes | np.ndarray) -> int:
        """Cluster id for a value, zero-padded to the model width if short."""
        return int(self.predict_batch([value])[0])

    def predict_batch(self, values: list[bytes | np.ndarray]) -> np.ndarray:
        """Cluster ids for many values via one forward pass.

        A value is bytes, or a 0/1 bit vector; see :meth:`_inputs` for the
        model input each becomes.  The cluster labels do not depend on how
        values are cut into batches, barring exact ties between two
        centroids: every row is built from its own value alone, but the
        latent is not bit-identical, since BLAS takes a mat-vec for one
        row and a mat-mat for many (on the e2e ship model it moves by up
        to 7e-15 between ``B = 1`` and ``B = 512``, against a gap of at
        least 5e-4 in squared distance between the nearest and the
        second-nearest centroid).  The batch counts as ``B`` predictions
        in the latency statistics.
        """
        if not values:
            return np.empty(0, dtype=np.int64)
        rows = self._inputs(values)
        start = time.perf_counter()
        clusters = self.model.predict(rows)
        self._record_predictions(len(values), time.perf_counter() - start)
        return clusters

    def predict_segments(self, segment_bits: np.ndarray) -> np.ndarray:
        """Cluster ids for full-width segment contents (no padding needed)."""
        return self.model.predict(
            np.atleast_2d(np.asarray(segment_bits, dtype=np.float64))
        )

    @property
    def centroids(self) -> np.ndarray:
        """Latent centroids of the trained model."""
        return self.model.centroids

    @property
    def mean_prediction_latency_us(self) -> float:
        """Average prediction latency in microseconds (Figure 10, right)."""
        with self._stats_lock:
            count = self.prediction_count
            seconds = self.prediction_seconds
        if not count:
            return 0.0
        return seconds / count * 1e6

    def _record_predictions(self, count: int, seconds: float) -> None:
        with self._stats_lock:
            self.prediction_count += count
            self.prediction_seconds += seconds

    def _inputs(self, values: list[bytes | np.ndarray]) -> np.ndarray:
        """The ``(B, w)`` ``float32`` model input of a batch: each row is
        its value's bits (MSB first), then zeros up to the model width.

        A batch of full-width byte values, the store's common case, is one
        ``unpackbits`` over the joined bytes.
        """
        width = self.input_bits
        if all(
            isinstance(v, _BYTES) and len(v) * 8 == width for v in values
        ):
            packed = np.frombuffer(b"".join(values), dtype=np.uint8)
            return np.unpackbits(
                packed.reshape(len(values), width // 8), axis=1
            ).astype(np.float32)
        rows = np.zeros((len(values), width), dtype=np.float32)
        for row, value in zip(rows, values):
            if isinstance(value, _BYTES):
                bits = np.unpackbits(np.frombuffer(value, dtype=np.uint8))
            else:
                bits = np.asarray(value, dtype=np.float32).reshape(-1)
            if bits.size > width:
                raise ValueError(
                    f"item of {bits.size} bits exceeds model width {width}"
                )
            row[: bits.size] = bits
        return rows
