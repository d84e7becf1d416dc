"""The E2-NVM prediction model: VAE encoder + K-means, with padding.

This wraps :class:`repro.ml.joint.JointVAEKMeans` behind the interface the
storage layer needs — ``fit`` on segment contents, ``predict_cluster`` for a
(possibly shorter-than-segment) value, ``predict_batch`` for many values in
one forward pass — and owns the padding machinery so that training and
prediction see consistently shaped inputs.

Thread-safety: prediction is safe to call concurrently.  The model forward
pass is stateless (see ``MLP.infer``); the padder (whose RNG and dataset
tracker are shared mutable state) is serialised behind a small internal
lock, as are the latency counters.  A batch of ``B`` values counts as ``B``
predictions in the latency statistics.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.config import E2NVMConfig
from repro.core.padding import DatasetDistributionTracker, Padder
from repro.ml.joint import JointVAEKMeans
from repro.ml.lstm import LSTMPredictor
from repro.ml.student import StudentPlacer, featurize_bits
from repro.util.bits import bytes_to_bits, bytes_to_bits_many
from repro.util.rng import rng_from_seed

#: Distillation schedule of the student head (full-batch softmax
#: regression): epochs and Adam learning rate.
STUDENT_EPOCHS = 120
STUDENT_LR = 0.05


class EncoderPipeline:
    """Trainable segment-content → cluster-id model.

    Args:
        input_bits: model width ``w`` (bits per memory segment).
        config: hyperparameters (cluster count, VAE shape, padding choice).
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
        self._rng = rng_from_seed(config.seed)
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
            seed=self._rng,
        )
        self.tracker = DatasetDistributionTracker()
        self.lstm: LSTMPredictor | None = None
        if config.padding_strategy == "learned":
            self.lstm = LSTMPredictor(
                window_bits=config.lstm_window_bits,
                chunk_bits=config.lstm_chunk_bits,
                hidden_dim=config.lstm_hidden,
                seed=self._rng,
            )
        self.padder = Padder(
            target_bits=input_bits,
            strategy=config.padding_strategy,
            position=config.padding_position,
            seed=self._rng,
            lstm=self.lstm,
            tracker=self.tracker,
        )
        self.trained = False
        self.prediction_count = 0
        self.prediction_seconds = 0.0
        # Serialises the padder's shared RNG/tracker (and the learned
        # strategy's LSTM caches); the model forward pass itself is
        # stateless and runs lock-free.
        self._pad_lock = threading.Lock()
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
        if self.lstm is not None:
            self.lstm.fit(
                X,
                epochs=self.config.lstm_epochs,
                verbose=verbose,
            )
        self.trained = True
        return self.model.history

    def predict_cluster(
        self,
        value: bytes | np.ndarray,
        memory_ones_fraction: float | None = None,
    ) -> int:
        """Cluster id for a value, padding it to the model width if short."""
        return int(self.predict_batch([value], memory_ones_fraction)[0])

    def predict_batch(
        self,
        values: list[bytes | np.ndarray],
        memory_ones_fraction: float | None = None,
    ) -> np.ndarray:
        """Cluster ids for many values via one padded batch forward pass.

        The cluster labels do not depend on how values are cut into
        batches, barring exact ties between two centroids: padding is
        per-row (see ``Padder.pad_batch``), but the latent is not
        bit-identical, since BLAS takes a mat-vec for one row and a
        mat-mat for many (on the e2e ship model it moves by up to 7e-15
        between ``B = 1`` and ``B = 512``, against a gap of at least 5e-4
        in squared distance between the nearest and the second-nearest
        centroid).  The encoder runs one stacked matmul and the batch
        counts as ``B`` predictions in the latency statistics.
        """
        if not values:
            return np.empty(0, dtype=np.int64)
        bit_rows = self._to_bits_many(values)
        with self._pad_lock:
            padded = self.padder.pad_batch(bit_rows, memory_ones_fraction)
        start = time.perf_counter()
        clusters = self.model.predict(padded)
        self._record_predictions(len(values), time.perf_counter() - start)
        return clusters

    def distill_student(self, segment_bits: np.ndarray) -> StudentPlacer:
        """Distill a cheap student placer from this (teacher) pipeline.

        The teacher labels ``segment_bits`` with :meth:`predict_segments`;
        the student — a logistic head over byte histograms
        (:class:`repro.ml.student.StudentPlacer`) — is fitted to reproduce
        those labels.  Called by the engine's (re)train path right after the
        teacher fit, so every installed model ships a matching student.
        """
        if not self.trained:
            raise RuntimeError("cannot distill from an untrained pipeline")
        X = np.atleast_2d(np.asarray(segment_bits, dtype=np.float64))
        labels = self.predict_segments(X)
        student = StudentPlacer(
            self.config.n_clusters,
            segment_size=self.input_bits // 8,
            seed=self.config.seed,
        )
        student.fit(
            featurize_bits(X, self.input_bits // 8),
            labels,
            epochs=STUDENT_EPOCHS,
            lr=STUDENT_LR,
        )
        return student

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

    def _to_bits(self, value: bytes | np.ndarray) -> np.ndarray:
        if isinstance(value, (bytes, bytearray, memoryview)):
            return bytes_to_bits(value)
        return np.asarray(value, dtype=np.float32).reshape(-1)

    def _to_bits_many(
        self, values: list[bytes | np.ndarray]
    ) -> list[np.ndarray]:
        """Bit-expand a batch; byte values share a single ``unpackbits``."""
        if all(
            isinstance(v, (bytes, bytearray, memoryview)) for v in values
        ):
            return bytes_to_bits_many(values)
        return [self._to_bits(v) for v in values]
