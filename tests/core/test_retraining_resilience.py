"""Resilient-retraining tests: transactional DAP, non-blocking auto-retrain.

These exercise the recovery paths with injected faults: a crashing fit must
leave the Dynamic Address Pool byte-identical, a slow retrain must overlap
concurrent writes, a near-full pool must defer (not fail) the retrain, and
a device write error must un-claim the placed address.
"""

import pytest

from repro.core import KVStore
from repro.testing import FaultError, FaultInjector
from repro.workloads.ycsb import WORKLOADS, YCSBWorkload
from tests.conftest import make_engine


def faulty_engine(seed=21, **config_overrides):
    """A trained engine with a fault injector attached."""
    engine = make_engine(seed=seed, **config_overrides)
    engine.faults = FaultInjector()
    return engine


class TestTransactionalTrain:
    def test_fit_failure_leaves_dap_byte_identical(self):
        engine = faulty_engine(seed=21)
        before = engine.dap.snapshot()
        old_pipeline = engine.pipeline
        engine.faults.arm("train.fit", error=FaultError("fit exploded"))
        with pytest.raises(FaultError):
            engine.train()
        assert engine.dap.snapshot() == before
        assert engine.pipeline is old_pipeline  # old model keeps serving
        assert engine.retrain_stats.failed == 1
        assert engine.retrain_stats.succeeded == 0
        addr, _ = engine.write(b"x" * 64)  # engine still fully usable
        engine.release(addr)

    def test_relabel_failure_restores_pool(self):
        engine = faulty_engine(seed=22)
        before = engine.dap.snapshot()
        old_pipeline = engine.pipeline
        engine.faults.arm("train.relabel", error=FaultError("swap died"))
        with pytest.raises(FaultError):
            engine.train()
        assert engine.dap.snapshot() == before
        assert engine.pipeline is old_pipeline
        assert engine.retrain_stats.pool_restores == 1
        assert engine.retrain_stats.failed == 1

    def test_async_fit_failure_is_recorded_not_raised(self):
        engine = faulty_engine(seed=23)
        old_pipeline = engine.pipeline
        before = engine.dap.snapshot()
        engine.faults.arm("train.fit", error=FaultError("boom"), times=1)
        thread = engine.train_async()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert engine.pipeline is old_pipeline
        assert engine.dap.snapshot() == before
        assert engine.retrain_stats.failed == 1
        assert isinstance(engine.last_retrain_error, FaultError)
        # The next attempt (fault exhausted) succeeds and swaps.
        thread = engine.train_async()
        thread.join(timeout=120)
        assert engine.pipeline is not old_pipeline
        assert engine.retrain_stats.succeeded == 1

    def test_failed_sync_train_can_be_retried(self):
        engine = faulty_engine(seed=24)
        engine.faults.arm("train.fit", error=FaultError, times=1)
        with pytest.raises(FaultError):
            engine.train()
        history = engine.train()
        assert len(history["train_loss"]) > 0
        assert engine.retrain_stats.failed == 1
        assert engine.retrain_stats.succeeded == 1


class TestNonBlockingAutoRetrain:
    def test_slow_retrain_overlaps_concurrent_writes(self):
        """Acceptance: a slow (fault-injected) retrain overlaps >= 100
        successful writes — maybe_retrain never blocks write()."""
        engine = faulty_engine(
            seed=25,
            retrain_threshold=1000,  # always tripped
            retrain_cooldown_writes=0,
            auto_retrain=True,
        )
        engine.faults.arm("train.fit", delay=3.0, times=1)
        addr, _ = engine.write(b"\x01" * 64)  # schedules the retrain
        engine.release(addr)
        assert engine._retrain_in_flight
        overlapped = 0
        while engine._retrain_in_flight and overlapped < 150:
            a, _ = engine.write(bytes([overlapped % 251]) * 64)
            engine.release(a)
            overlapped += 1
        assert overlapped >= 100
        assert engine.failed_writes == 0
        assert engine.wait_for_retrain(timeout=120)
        assert engine.retrain_stats.succeeded >= 1

    def test_train_async_is_single_flight(self):
        engine = faulty_engine(seed=26)
        engine.faults.arm("train.fit", delay=1.0, times=1)
        t1 = engine.train_async()
        t2 = engine.train_async()  # joins the in-flight retrain
        assert t1 is t2
        t1.join(timeout=120)
        assert engine.retrain_stats.started == 1
        assert engine.retrain_stats.succeeded == 1

    def test_retrain_deferred_when_pool_too_small(self):
        engine = make_engine(
            seed=27, retrain_threshold=50, retrain_cooldown_writes=0
        )
        claimed = []
        while engine.dap.free_count() >= engine.config.n_clusters:
            sizes = engine.dap.sizes()
            cluster = max(sizes, key=sizes.get)
            addr = engine.dap.get(cluster)
            engine.mark_allocated(addr)
            claimed.append(addr)
        # Too few free segments to train on: deferred, not failed.
        assert engine.maybe_retrain() is False
        assert engine.retrain_stats.deferred == 1
        assert engine.maybe_retrain() is False
        assert engine.retrain_stats.deferred == 1  # one defer per episode
        # Capacity returns: the deferred retrain fires and succeeds.
        for addr in claimed[:10]:
            engine.release(addr)
        assert engine.maybe_retrain() is True
        assert engine.wait_for_retrain(timeout=120)
        assert engine.retrain_stats.succeeded == 1
        assert engine.retrain_stats.failed == 0

    def test_ycsb_with_auto_retrain_never_fails_a_put(self):
        """Acceptance: a YCSB run with auto_retrain=True completes with zero
        failed PUTs even when retrains fire at < n_clusters free segments."""
        engine = make_engine(
            seed=28,
            n_segments=48,
            retrain_threshold=2,
            # Longer than the 46-write load phase, so the first trigger can
            # only land once just 2 segments are free and must defer.
            retrain_cooldown_writes=60,
            auto_retrain=True,
        )
        store = KVStore(engine)
        workload = YCSBWorkload(
            WORKLOADS["A"], record_count=46, operation_count=150,
            value_size=64, seed=28,
        )
        failed_puts = 0
        for key, value in workload.load_phase():
            try:
                store.put(key, value)
            except Exception:
                failed_puts += 1
        # Pool is now 2 free < 3 clusters: retrains must defer, not crash.
        for op in workload.operations():
            try:
                if op[0] == "read":
                    store.get(op[1])
                elif op[0] in ("update", "insert", "rmw"):
                    store.put(op[1], op[2])
            except Exception:
                failed_puts += 1
        assert failed_puts == 0
        assert engine.retrain_stats.deferred >= 1
        # Deletes return capacity; the deferred retrain completes.
        for i in range(0, 12):
            store.delete(YCSBWorkload.key(i))
        for i in range(20, 40):
            try:
                store.put(YCSBWorkload.key(i), workload.values.value())
            except Exception:
                failed_puts += 1
        assert failed_puts == 0
        assert engine.wait_for_retrain(timeout=120)
        assert engine.retrain_stats.succeeded >= 1
        assert engine.failed_writes == 0


class TestWritePathRecovery:
    def test_device_write_error_unclaims_address(self):
        engine = faulty_engine(seed=29)
        free_before = engine.dap.free_count()
        engine.faults.arm(
            "device.write", error=OSError("nvm media error"), times=1
        )
        with pytest.raises(OSError):
            engine.write(b"z" * 64)
        assert engine.failed_writes == 1
        assert engine.allocated_count == 0
        assert engine.dap.free_count() == free_before
        addr, _ = engine.write(b"z" * 64)  # retry succeeds
        assert engine.controller.read(addr, 64) == b"z" * 64


class TestRetrainCounting:
    def test_retrain_count_counted_in_exactly_one_place(self):
        engine = make_engine(seed=30)
        # The initial training is not a retrain.
        assert engine.retrain_stats.succeeded == 0
        assert engine.retrain_stats.started == 0
        engine.train()  # direct re-train counts...
        assert engine.retrain_stats.succeeded == 1
        thread = engine.train_async()  # ...and so does the async path
        thread.join(timeout=120)
        assert engine.retrain_stats.succeeded == 2
        assert engine.retrain_stats.started == 2
        assert engine.retrain_stats.succeeded == 2
        assert engine.retrain_stats.total_duration_s > 0
