"""``KVStore.put_many`` and ``WriteBatcher.put_many`` behaviour.

The batched storage entry points must be observationally identical to
sequential ``put`` calls — same final store contents, same recycling of
updated segments, same durability contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import KVStore
from repro.core.batching import WriteBatcher
from repro.testing import FaultInjector, KVCrashHarness

from tests.conftest import SEGMENT_SIZE, make_engine


class TestKVStorePutManyVolatile:
    def test_matches_sequential_puts(self):
        seq_store = KVStore(make_engine(seed=61))
        bat_store = KVStore(make_engine(seed=61))
        rng = np.random.default_rng(4)
        items = [
            (
                f"key-{i}".encode(),
                rng.integers(0, 256, size=SEGMENT_SIZE, dtype=np.uint8).tobytes(),
            )
            for i in range(8)
        ]
        expected = [seq_store.put(k, v) for k, v in items]
        got = bat_store.put_many(items)
        assert got == expected
        for key, value in items:
            assert bat_store.get(key) == value
        assert len(bat_store) == len(seq_store) == len(items)

    def test_updates_recycle_old_segments(self):
        store = KVStore(make_engine(seed=67))
        engine = store.engine
        free_before = engine.dap.free_count()
        first = store.put_many([(b"k1", b"v1"), (b"k2", b"v2")])
        second = store.put_many([(b"k1", b"v1-new"), (b"k2", b"v2-new")])
        assert store.get(b"k1") == b"v1-new"
        assert store.get(b"k2") == b"v2-new"
        assert set(first).isdisjoint(second)
        # Old segments went back into the pool: net claim is 2 addresses.
        assert engine.dap.free_count() == free_before - 2
        assert engine.allocated_count == 2

    def test_duplicate_key_in_batch_last_wins(self):
        store = KVStore(make_engine(seed=71))
        engine = store.engine
        free_before = engine.dap.free_count()
        addrs = store.put_many(
            [(b"dup", b"first"), (b"other", b"x"), (b"dup", b"second")]
        )
        assert store.get(b"dup") == b"second"
        assert len(store) == 2
        # The first write's segment was recycled within the same batch.
        assert engine.dap.free_count() == free_before - 2
        assert addrs[0] != addrs[2]

    def test_validation_and_empty(self):
        store = KVStore(make_engine(seed=73))
        assert store.put_many([]) == []
        with pytest.raises(TypeError, match="keys must be bytes"):
            store.put_many([("not-bytes", b"v")])
        with pytest.raises(TypeError, match="non-empty bytes"):
            store.put_many([(b"k", b"")])


@pytest.fixture(scope="module")
def harness():
    return KVCrashHarness()


class TestKVStorePutManyDurable:
    def test_batch_commits_and_survives_reopen(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        rng = np.random.default_rng(6)
        items = [
            (
                f"dk{i}".encode(),
                rng.integers(0, 256, size=24, dtype=np.uint8).tobytes(),
            )
            for i in range(5)
        ]
        addrs = store.put_many(items)
        assert len(set(addrs)) == len(items)
        for key, value in items:
            assert store.get(key) == value
        # Full recovery from the media alone sees every batched PUT.
        reopened = harness.reopen(device)
        for key, value in items:
            assert reopened.get(key) == value
        assert len(reopened) == len(items)

    def test_batch_update_recycles_durably(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        store.put_many([(b"a", b"one"), (b"b", b"two")])
        store.put_many([(b"a", b"ONE"), (b"b", b"TWO")])
        reopened = harness.reopen(device)
        assert reopened.get(b"a") == b"ONE"
        assert reopened.get(b"b") == b"TWO"
        assert len(reopened) == 2


class TestWriteBatcherPutMany:
    def _batcher(self, seed=79):
        return WriteBatcher(make_engine(seed=seed))

    def test_matches_sequential_puts(self):
        """One ``put_many`` of B equals B one-value ``put`` calls (``put``
        wraps ``put_many``): batch cuts fall at the same values."""
        sequential = WriteBatcher(make_engine(seed=83))
        batched = WriteBatcher(make_engine(seed=83))
        rng = np.random.default_rng(8)
        values = [
            rng.integers(0, 256, size=int(n), dtype=np.uint8).tobytes()
            for n in rng.integers(1, SEGMENT_SIZE // 2, size=12)
        ]
        seq_handles = [sequential.put(v) for v in values]
        bat_handles = batched.put_many(values)
        sequential.flush()
        batched.flush()
        assert [h.locator for h in bat_handles] == [
            h.locator for h in seq_handles
        ]
        for value, handle in zip(values, bat_handles):
            assert batched.read(handle.locator) == value

    def test_open_tail_stays_buffered(self):
        batcher = self._batcher()
        small = [b"aa", b"bb", b"cc"]
        handles = batcher.put_many(small)
        assert len(batcher._buffer) == 6
        assert all(h._locator is None for h in handles)
        batcher.flush()
        assert all(h._locator is not None for h in handles)

    def test_full_batches_flush_in_one_engine_call(self):
        batcher = self._batcher(seed=89)
        calls = []
        original = batcher.engine.write_many

        def counting_write_many(values):
            calls.append(len(values))
            return original(values)

        batcher.engine.write_many = counting_write_many
        chunk = b"x" * (SEGMENT_SIZE // 2)
        handles = batcher.put_many([chunk] * 7)
        # 7 half-segment values -> 3 full batches written in ONE call,
        # 1 value left buffered.
        assert calls == [3]
        assert sum(h._locator is not None for h in handles) == 6
        assert len(batcher._buffer) == len(chunk)

    def test_failed_write_commits_nothing(self):
        batcher = self._batcher(seed=97)
        engine = batcher.engine

        def exploding_write_many(values):
            raise RuntimeError("device offline")

        engine.write_many = exploding_write_many
        chunk = b"y" * SEGMENT_SIZE
        with pytest.raises(RuntimeError, match="device offline"):
            batcher.put_many([chunk, chunk])
        assert len(batcher._buffer) == 0
        assert len(batcher._live_bytes) == 0

    def test_validation(self):
        batcher = self._batcher(seed=101)
        with pytest.raises(TypeError, match="non-empty bytes"):
            batcher.put_many([b"ok", b""])
        with pytest.raises(ValueError, match="exceeds"):
            batcher.put_many([b"z" * (SEGMENT_SIZE + 1)])
        assert len(batcher._buffer) == 0
