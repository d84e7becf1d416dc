"""Incremental DAP indexing and background retraining (§4.1.4, §5.3)."""

import sys
import threading

import numpy as np
import pytest

from repro.core import E2NVM
from repro.core.config import fast_test_config
from repro.nvm import MemoryController
from tests.conftest import make_device


def partial_engine(fraction=0.5, seed=41):
    """Engine trained on only a fraction of the device's segments."""
    device = make_device(seed=seed)
    controller = MemoryController(device)
    engine = E2NVM(controller, fast_test_config(seed=seed))
    n = controller.n_segments
    initial = [controller.segment_address(i) for i in range(int(n * fraction))]
    engine.train(addresses=initial)
    rest = [controller.segment_address(i) for i in range(int(n * fraction), n)]
    return engine, rest


class TestIncrementalIndexing:
    def test_partial_training_indexes_subset(self):
        engine, rest = partial_engine()
        assert engine.dap.free_count() == 64
        assert len(rest) == 64

    def test_add_addresses_extends_pool(self):
        engine, rest = partial_engine()
        engine.add_addresses(rest)
        assert engine.dap.free_count() == 128

    def test_added_addresses_are_usable(self):
        engine, rest = partial_engine()
        engine.add_addresses(rest)
        seen = set()
        for i in range(100):
            addr, _ = engine.write(bytes([i]) * 64)
            seen.add(addr)
        assert len(seen) == 100

    def test_add_addresses_validation(self):
        engine, rest = partial_engine()
        with pytest.raises(ValueError):
            engine.add_addresses([7])  # unaligned
        with pytest.raises(IndexError):
            engine.add_addresses([128 * 64])  # out of range
        addr, _ = engine.write(b"x" * 64)
        with pytest.raises(ValueError):
            engine.add_addresses([addr])  # allocated

    def test_add_addresses_requires_training(self):
        device = make_device(seed=42)
        engine = E2NVM(MemoryController(device), fast_test_config())
        with pytest.raises(RuntimeError):
            engine.add_addresses([0])

    def test_add_addresses_empty_is_noop(self):
        engine, _ = partial_engine()
        before = engine.dap.free_count()
        engine.add_addresses([])
        assert engine.dap.free_count() == before

    def test_train_with_allocated_address_raises(self):
        engine, rest = partial_engine()
        addr, _ = engine.write(b"y" * 64)
        with pytest.raises(ValueError):
            engine.train(addresses=[addr])


class TestBackgroundRetraining:
    def test_async_retrain_swaps_model(self):
        engine, _ = partial_engine(fraction=1.0, seed=43)
        old_pipeline = engine.pipeline
        thread = engine.train_async()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert engine.pipeline is not old_pipeline
        assert engine.retrain_stats.succeeded == 1

    def test_async_retrain_preserves_free_pool(self):
        engine, _ = partial_engine(fraction=1.0, seed=44)
        # Claim a few so allocated segments must survive the swap.
        claimed = [engine.write(bytes([i]) * 64)[0] for i in range(10)]
        free_before = engine.dap.free_count()
        thread = engine.train_async()
        thread.join(timeout=60)
        assert engine.dap.free_count() == free_before
        assert engine.allocated_count == 10
        for addr in claimed:
            engine.release(addr)

    def test_writes_continue_during_retrain(self):
        """The paper's lazy-retraining property: operations proceed while
        the new model trains in the background."""
        engine, _ = partial_engine(fraction=1.0, seed=45)
        thread = engine.train_async()
        wrote = 0
        while thread.is_alive() and wrote < 50:
            addr, _ = engine.write(bytes([wrote % 250]) * 64)
            engine.release(addr)
            wrote += 1
        thread.join(timeout=60)
        # Whatever interleaving happened, the engine stays consistent.
        assert engine.dap.free_count() == 128
        addr, _ = engine.write(b"after" * 12 + b"zzzz")
        assert engine.allocated_count == 1

    def test_predictions_are_unmoved_by_a_concurrent_fit(self):
        """The training pass reuses step buffers; the prediction path must
        share none of them.  Predictor threads (more than cores) hammer
        the serving pipeline's ``predict_batch`` while ``train_async``
        fits and swaps a new model on the same engine: every batch must
        equal the serial answer."""
        engine, _ = partial_engine(fraction=1.0, seed=48)
        serving = engine.pipeline
        rng = np.random.default_rng(48)
        batches = [
            [rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
             for _ in range(16)]
            for _ in range(3)
        ]
        serial = [serving.predict_batch(batch) for batch in batches]
        mismatches: list[int] = []
        rounds = [0] * len(batches)
        retrains: list[threading.Thread] = []
        go = threading.Event()

        def predictor(k: int) -> None:
            go.wait(timeout=60)
            while rounds[k] < 200 and (
                rounds[k] < 20 or any(t.is_alive() for t in retrains)
            ):
                got = serving.predict_batch(batches[k])
                if not np.array_equal(got, serial[k]):
                    mismatches.append(k)
                rounds[k] += 1

        threads = [
            threading.Thread(target=predictor, args=(k,))
            for k in range(len(batches))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            retrains.append(engine.train_async())
            go.set()
            for thread in threads + retrains:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + retrains)
        assert engine.retrain_stats.succeeded == 1
        assert engine.pipeline is not serving
        assert min(rounds) >= 20
        assert mismatches == []
        # The fitted model kept no step buffer alive.
        vae = engine.pipeline.model.vae
        assert vae._step_buffer is None
        assert all(
            layer._out_buffer is None
            for layer in vae.trunk.layers + vae.decoder.layers
        )

    def test_async_retrain_requires_trained_engine(self):
        device = make_device(seed=46)
        engine = E2NVM(MemoryController(device), fast_test_config())
        with pytest.raises(RuntimeError):
            engine.train_async()

    def test_async_retrain_needs_free_segments(self):
        engine, _ = partial_engine(fraction=1.0, seed=47)
        claimed = []
        while engine.dap.free_count() > 2:
            cluster = max(engine.dap.sizes(), key=engine.dap.sizes().get)
            addr = engine.dap.get(cluster)
            engine.mark_allocated(addr)
            claimed.append(addr)
        with pytest.raises(RuntimeError):
            engine.train_async()
