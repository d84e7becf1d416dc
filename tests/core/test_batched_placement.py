"""Batched write-path equivalence and concurrency properties.

The write path (``predict_batch`` → ``DAP.get_many`` →
``controller.write_many``) must not depend on how a stream of values is
cut into batches: same model inputs, same cluster assignments, same
addresses, same accounting.  Above the controller the scalar entry point
(``predict_cluster``) is a one-item wrapper over the batched body, so these
tests compare one batch of ``B`` with ``B`` batches of one, using *twin*
objects: two identically-seeded pipelines/engines, one driven value by
value and one batched.  At the controller both bodies exist and the engine
tests compare them.  The figure-side :class:`~repro.core.padding.Padder`
keeps the same contract for its RNG and dataset tracker.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import fast_test_config
from repro.core.padding import Padder, PaddingPosition, PaddingStrategy
from repro.core.pipeline import EncoderPipeline
from repro.ml.lstm import LSTMPredictor

from tests.conftest import SEGMENT_SIZE, assert_stats_equal, make_engine

PAD_BITS = 96


def _make_padder(
    strategy: str, position: str, bits: int = PAD_BITS
) -> Padder:
    lstm = None
    if strategy == "learned":
        lstm = LSTMPredictor(
            window_bits=16, chunk_bits=4, hidden_dim=8, seed=3
        )
    return Padder(
        bits, strategy=strategy, position=position, seed=9, lstm=lstm
    )


class TestPadBatchEquivalence:
    @pytest.mark.parametrize("position", PaddingPosition)
    @pytest.mark.parametrize("strategy", PaddingStrategy)
    def test_pad_batch_matches_sequential(self, strategy, position):
        sequential = _make_padder(strategy, position)
        batched = _make_padder(strategy, position)
        rng = np.random.default_rng(5)
        for round_seed in range(3):
            sizes = rng.integers(1, PAD_BITS + 1, size=6)
            items = [
                (rng.random(int(n)) < 0.5).astype(np.float32) for n in sizes
            ]
            expected = np.stack(
                [sequential.pad(i, memory_ones_fraction=0.3) for i in items]
            )
            got = batched.pad_batch(items, memory_ones_fraction=0.3)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, expected)
        # The shared state advanced identically on both sides.
        assert batched.tracker.ones == sequential.tracker.ones
        assert batched.tracker.bits == sequential.tracker.bits

    def test_pad_batch_oversize_item_raises(self):
        padder = _make_padder("zero", "end")
        oversize = np.zeros(PAD_BITS + 1, dtype=np.float32)
        with pytest.raises(ValueError, match="exceeds model width"):
            padder.pad_batch([oversize])
        with pytest.raises(ValueError, match="exceeds model width"):
            padder.pad(oversize)


PIPE_VALUE_BYTES = 16
PIPE_BITS = PIPE_VALUE_BYTES * 8


def _bits(value: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(value, dtype=np.uint8))


def _trained_pipeline() -> EncoderPipeline:
    pipeline = EncoderPipeline(PIPE_BITS, fast_test_config())
    rng = np.random.default_rng(7)
    data = (rng.random((32, PIPE_BITS)) < 0.4).astype(np.float64)
    pipeline.fit(data)
    return pipeline


@pytest.fixture(scope="module")
def pipeline_pair():
    """Two identically-trained pipelines."""
    return _trained_pipeline(), _trained_pipeline()


class TestPredictBatchEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        values=st.lists(
            st.binary(min_size=1, max_size=PIPE_VALUE_BYTES),
            min_size=1,
            max_size=6,
        )
    )
    def test_predict_batch_matches_sequential(self, pipeline_pair, values):
        """One batch of B mixed-length values equals B ``predict_cluster``
        calls (batches of one), and a short value's model input is its
        bits, then zeros: the rows Figure 14's ``zero`` / ``end``
        :class:`Padder` builds."""
        batch_pipe, seq_pipe = pipeline_pair
        batched = batch_pipe.predict_batch(values)
        sequential = [seq_pipe.predict_cluster(v) for v in values]
        assert batched.tolist() == sequential

        rows = batch_pipe._inputs(values)
        assert rows.dtype == np.float32
        for row, value in zip(rows, values):
            bits = _bits(value)
            np.testing.assert_array_equal(row[: bits.size], bits)
            assert not row[bits.size :].any()
        padder = _make_padder("zero", "end", PIPE_BITS)
        np.testing.assert_array_equal(
            rows, padder.pad_batch([_bits(v) for v in values])
        )
        assert (
            batch_pipe.model.predict(rows).tolist() == batched.tolist()
        )

    @pytest.mark.parametrize("strategy", PaddingStrategy)
    def test_empty_batch(self, pipeline_pair, strategy):
        """An empty batch predicts nothing, on the store's path and on
        Figure 14's (a strategy's :class:`Padder` feeding the model)."""
        batch_pipe, _ = pipeline_pair
        assert batch_pipe.predict_batch([]).size == 0
        padded = _make_padder(strategy, "end", PIPE_BITS).pad_batch([])
        assert padded.shape == (0, PIPE_BITS)
        assert batch_pipe.model.predict(padded).size == 0

    @pytest.mark.parametrize("strategy", PaddingStrategy)
    def test_full_width_values_need_no_padding(self, pipeline_pair, strategy):
        """Every strategy leaves a full-width value as it is, so on values
        that fill their segment (every end-to-end workload's) the store's
        one rule places exactly as any strategy would."""
        batch_pipe, _ = pipeline_pair
        rng = np.random.default_rng(11)
        values = [rng.bytes(PIPE_VALUE_BYTES) for _ in range(5)]
        padded = _make_padder(strategy, "begin", PIPE_BITS).pad_batch(
            [_bits(v) for v in values]
        )
        np.testing.assert_array_equal(padded, batch_pipe._inputs(values))

    def test_oversize_value_raises(self, pipeline_pair):
        batch_pipe, _ = pipeline_pair
        with pytest.raises(ValueError, match="exceeds model width"):
            batch_pipe.predict_batch([b"x" * (PIPE_VALUE_BYTES + 1)])

    def test_batch_counts_as_many_predictions(self):
        pipeline = _trained_pipeline()
        pipeline.predict_batch([b"ab", b"cd", b"ef"])
        assert pipeline.prediction_count == 3
        assert pipeline.mean_prediction_latency_us > 0.0


class TestWriteManyEquivalence:
    def _values(self, n, rng, length=SEGMENT_SIZE):
        return [
            rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            for _ in range(n)
        ]

    def test_write_many_matches_sequential_writes(self):
        seq_engine = make_engine(seed=23)
        bat_engine = make_engine(seed=23)
        values = self._values(12, np.random.default_rng(1))
        sequential = [seq_engine.write(v) for v in values]
        batched = bat_engine.write_many(values)
        assert batched == sequential  # same addresses AND WriteResults
        assert_stats_equal(seq_engine.stats.snapshot(), bat_engine.stats.snapshot())
        assert seq_engine.dap.sizes() == bat_engine.dap.sizes()

    def test_write_many_mixed_lengths_matches_sequential(self):
        seq_engine = make_engine(seed=29)
        bat_engine = make_engine(seed=29)
        rng = np.random.default_rng(2)
        values = [
            rng.integers(0, 256, size=int(n), dtype=np.uint8).tobytes()
            for n in rng.integers(1, SEGMENT_SIZE + 1, size=10)
        ]
        sequential = [seq_engine.write(v) for v in values]
        batched = bat_engine.write_many(values)
        assert batched == sequential
        assert_stats_equal(seq_engine.stats.snapshot(), bat_engine.stats.snapshot())

    def test_write_many_empty(self):
        engine = make_engine(seed=37)
        assert engine.write_many([]) == []

    def test_write_many_oversize_value_raises_before_placing(self):
        engine = make_engine(seed=41)
        free_before = engine.dap.free_count()
        with pytest.raises(ValueError, match="exceeds segment size"):
            engine.write_many([b"x", b"y" * (SEGMENT_SIZE + 1)])
        assert engine.dap.free_count() == free_before
        assert engine.allocated_count == 0

    def test_write_many_releases_batch_on_device_error(self):
        from repro.testing.faults import FaultInjector

        engine = make_engine(seed=43)
        engine.faults = FaultInjector()
        values = self._values(4, np.random.default_rng(3))
        free_before = engine.dap.free_count()
        engine.faults.arm("device.write", error=RuntimeError("boom"), after=2)
        with pytest.raises(RuntimeError, match="boom"):
            engine.write_many(values)
        assert engine.failed_writes == len(values)
        assert engine.allocated_count == 0
        assert engine.dap.free_count() == free_before


class TestConcurrentWrites:
    def test_no_double_claim_and_exact_pool_accounting(self):
        engine = make_engine(seed=31, n_segments=96)
        total_segments = engine.controller.n_segments
        live_lock = threading.Lock()
        live: set[int] = set()
        errors: list[str] = []

        def track_claim(addrs):
            with live_lock:
                for addr in addrs:
                    if addr in live:
                        errors.append(f"double claim of {addr}")
                    live.add(addr)

        def track_release(addrs):
            with live_lock:
                live.difference_update(addrs)

        def worker(tid: int) -> None:
            rng = np.random.default_rng(100 + tid)
            try:
                for i in range(12):
                    if i % 3 == 0:
                        values = [
                            rng.integers(
                                0, 256, size=SEGMENT_SIZE, dtype=np.uint8
                            ).tobytes()
                            for _ in range(4)
                        ]
                        placed = engine.write_many(values)
                        addrs = [addr for addr, _ in placed]
                    else:
                        addr, _ = engine.write(
                            rng.integers(
                                0, 256, size=SEGMENT_SIZE, dtype=np.uint8
                            ).tobytes()
                        )
                        addrs = [addr]
                    track_claim(addrs)
                    track_release(addrs)
                    engine.release_many(addrs)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert engine.allocated_count == 0
        assert engine.dap.free_count() == total_segments
        # Every write and release balanced out: per-cluster pools hold each
        # address exactly once.
        seen: set[int] = set()
        for cluster, pool_size in engine.dap.sizes().items():
            assert pool_size >= 0
        snapshot = engine.dap.snapshot()
        for addrs in snapshot.values():
            for addr in addrs:
                assert addr not in seen
                seen.add(addr)
        assert len(seen) == total_segments
