"""Process-backend shard workers: parallel ops, crash isolation, recovery.

Marked ``sharding`` (excluded from tier-1): every test spawns real worker
processes.  The crash tests are the sharded extension of the crash-sweep
story — a worker process dying mid-``put_many`` is one channel's
controller losing power while the media (the parent's shared-memory
block) survives; reopening must roll back only that shard's in-flight
transaction and leave every other shard untouched.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.core.config import fast_test_config
from repro.core.kvstore import StoreReadOnlyError
from repro.nvm.device import NVMDevice, WearOutConfig
from repro.sharding import ShardCrashedError, ShardedKVStore

pytestmark = pytest.mark.sharding

SEGMENT_SIZE = 64
N_SEGMENTS = 64


def _config():
    return fast_test_config()


def _items(n, seed=13, prefix=b"key"):
    rng = np.random.default_rng(seed)
    return [
        (
            b"%s-%04d" % (prefix, i),
            rng.integers(0, 256, 40, dtype=np.uint8).tobytes(),
        )
        for i in range(n)
    ]


@pytest.fixture
def store(tmp_path):
    store = ShardedKVStore.create(
        tmp_path / "store",
        3,
        segment_size=SEGMENT_SIZE,
        n_segments_per_shard=N_SEGMENTS,
        config=_config(),
        backend="process",
        key_capacity=16,
    )
    yield store
    store.close()


class TestProcessOps:
    def test_round_trip_and_telemetry(self, store):
        items = _items(24)
        addrs = store.put_many(items)
        assert all(a is not None for a in addrs)
        assert store.get_many([k for k, _ in items]) == [
            v for _, v in items
        ]
        assert len(store) == 24
        rollup = store.telemetry()
        assert len(rollup["shards"]) == 3
        assert sum(t["n_keys"] for t in rollup["shards"]) == 24
        assert all(store.shard_alive(s) for s in range(3))
        assert all(
            store.backend.worker_pid(s) is not None for s in range(3)
        )

    def test_matches_inprocess_backend(self, tmp_path):
        """The process backend must be a pure execution change: same trace,
        same addresses, same contents as the in-process baseline."""
        kwargs = dict(
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
        )
        proc = ShardedKVStore.create(
            tmp_path / "proc", 2, backend="process", **kwargs
        )
        inproc = ShardedKVStore.create(
            tmp_path / "inproc", 2, backend="inprocess", **kwargs
        )
        items = _items(20)
        assert proc.put_many(items) == inproc.put_many(items)
        key = items[3][0]
        assert proc.delete(key) is inproc.delete(key)
        assert proc.keys() == inproc.keys()
        proc.close()
        inproc.close()

    def test_open_recovers_in_workers(self, store, tmp_path):
        items = _items(18)
        store.put_many(items)
        store.close()
        reopened = ShardedKVStore.open(
            tmp_path / "store", config=_config(), backend="process"
        )
        assert all(r is not None for r in reopened.recovery_reports())
        for key, value in items:
            assert reopened.get(key) == value
        reopened.close()


class TestShardCrash:
    def test_crash_mid_put_many_isolated_and_recovered(self, store):
        base = _items(24)
        store.put_many(base)

        batch = _items(12, seed=29, prefix=b"crash")
        victim = store.shard_of(batch[0][0])
        # Arm a simulated power loss inside the victim's catalog commit:
        # the worker dies via os._exit once three of its batch's slot rows
        # are on the media.
        store.backend.call(victim, "arm_crash", ("catalog.write", 2, 1.0))

        with pytest.raises(ShardCrashedError) as excinfo:
            store.put_many(batch)
        assert excinfo.value.shard_ids == [victim]
        assert not store.shard_alive(victim)

        # Survivors never noticed: alive, serving reads AND writes,
        # including the slices of the crashed batch they committed.
        for shard in range(store.n_shards):
            if shard != victim:
                assert store.shard_alive(shard)
        for key, value in base:
            if store.shard_of(key) != victim:
                assert store.get(key) == value
        for key, value in batch:
            if store.shard_of(key) != victim:
                assert store.get(key) == value

        # A fresh worker re-attaches to the surviving media and runs
        # catalog recovery: the victim keeps the prefix of its slice of
        # the batch that landed (its rows are all INSERTs of one length,
        # so they land in batch order).
        store.reopen_shard(victim)
        assert store.shard_alive(victim)
        report = store.backend.call(victim, "recovery_report")
        assert report.dropped_slots == 0

        # Every pre-crash key on the victim survived; of the crashed
        # batch, exactly its first three keys on the victim did.
        for key, value in base:
            if store.shard_of(key) == victim:
                assert store.get(key) == value
        slice_ = [(k, v) for k, v in batch if store.shard_of(k) == victim]
        assert [store.get(k) for k, _ in slice_] == [
            v if i < 3 else None for i, (_, v) in enumerate(slice_)
        ]

        # And the shard takes writes again.
        store.put(b"after-crash", b"y" * 40)
        assert store.get(b"after-crash") == b"y" * 40

    def test_crashed_shard_errors_until_reopened(self, store):
        store.put_many(_items(12))
        victim = store.shard_of(b"doom")
        store.backend.call(victim, "arm_crash", ("catalog.write", 0))
        with pytest.raises(ShardCrashedError):
            store.put(b"doom", b"z" * 40)
        # Further calls to the dead shard fail fast with the same error.
        with pytest.raises(ShardCrashedError):
            store.backend.call(victim, "len")
        store.reopen_shard(victim)
        store.put(b"doom", b"z" * 40)
        assert store.get(b"doom") == b"z" * 40

    def test_reopen_refuses_live_shard(self, store):
        with pytest.raises(RuntimeError, match="alive"):
            store.reopen_shard(0)


def _worn_state(root, store):
    """Stuck cells and retired segments of shard 0, through a snapshot."""
    store.save()
    device = NVMDevice.load(root / "shard-0.npz")
    return device.stuck_cell_count(), set(device.health.retired)


class TestWornWorkerRestart:
    def test_sigkilled_worker_keeps_its_worn_medium(self, tmp_path):
        """A mortal worker worn to read-only, SIGKILLed and reopened: the
        fresh worker adopts the shared-memory medium as it stands, so its
        stuck cells, retired segments and every acked key survive."""
        root = tmp_path / "store"
        store = ShardedKVStore.create(
            root,
            1,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
            backend="process",
            key_capacity=16,
            wearout=WearOutConfig(
                endurance_mean=6, endurance_sigma=0.3, seed=2
            ),
        )
        try:
            rng = np.random.default_rng(3)
            acked = {}
            with pytest.raises(StoreReadOnlyError):
                for i in range(5000):
                    key = b"key-%d" % (i % 8)
                    value = rng.integers(0, 256, 40, dtype=np.uint8).tobytes()
                    store.put(key, value)
                    acked[key] = value
            stuck, retired = worn = _worn_state(root, store)
            assert stuck > 0 and retired

            os.kill(store.backend.worker_pid(0), signal.SIGKILL)
            store.backend.kill_shard(0)
            store.reopen_shard(0)
            for key, value in acked.items():
                assert store.get(key) == value
            assert _worn_state(root, store) == worn
        finally:
            store.close()
