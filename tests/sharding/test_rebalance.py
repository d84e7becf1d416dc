"""Crash-safe online rebalancing: journal, dual routing, drain, recovery.

Fast in-process coverage of the rebalance protocol; the process-backend
SIGKILL storm and the exhaustive crash sweep live in
``test_rebalance_faults.py`` (marker ``rebalance``).
"""

from __future__ import annotations

import pytest

from repro.core.config import fast_test_config
from repro.sharding import (
    HashRing,
    RebalanceError,
    RebalanceInProgressError,
    RebalanceJournal,
    ShardedKVStore,
)
from repro.testing.chaos import check_exactly_once
from repro.tools.fsck import fsck_sharded

WEIGHTS = (2.0, 1.0, 0.5)


def _create(root, **overrides):
    params = dict(
        segment_size=64,
        n_segments_per_shard=256,
        config=fast_test_config(),
        key_capacity=16,
        ring_seed=11,
        vnodes=16,
        base_seed=7,
    )
    params.update(overrides)
    return ShardedKVStore.create(root, 3, **params)


def _preload(store, n=60):
    oracle = {}
    for i in range(n):
        key = b"key-%03d" % i
        value = b"value-%03d" % i
        store.put(key, value)
        oracle[key] = value
    return oracle


class TestLifecycle:
    def test_plan_drain_finalize(self, tmp_path):
        store = _create(tmp_path / "store")
        oracle = _preload(store)
        rebalancer = store.begin_rebalance(weights=WEIGHTS, batch_size=16)
        assert rebalancer.state == "draining"
        assert store.rebalance_active
        assert (tmp_path / "store" / "rebalance.json").exists()
        rebalancer.drain_until_done(timeout_s=30.0)
        rebalancer.finalize()
        assert not store.rebalance_active
        assert RebalanceJournal.load(tmp_path / "store") is None
        assert store.ring.weights == WEIGHTS
        assert check_exactly_once(store, oracle) == []
        store.close()

    def test_drain_moves_exactly_the_diff(self, tmp_path):
        store = _create(tmp_path / "store")
        oracle = _preload(store)
        old_ring = store.ring
        rebalancer = store.begin_rebalance(weights=WEIGHTS)
        expected = {
            key
            for key in oracle
            if old_ring.shard_of(key) != rebalancer.new_ring.shard_of(key)
        }
        assert {
            key for key in oracle if rebalancer.diff.covers(key)
        } == expected
        rebalancer.drain_until_done(timeout_s=30.0)
        rebalancer.finalize()
        assert rebalancer.keys_copied == len(expected)
        store.close()

    def test_finalize_refuses_undrained(self, tmp_path):
        store = _create(tmp_path / "store")
        _preload(store)
        rebalancer = store.begin_rebalance(weights=WEIGHTS)
        with pytest.raises(RebalanceError, match="await migration"):
            rebalancer.finalize()
        store.close()

    def test_noop_and_concurrent_rejected(self, tmp_path):
        store = _create(tmp_path / "store")
        with pytest.raises(RebalanceError, match="identically"):
            store.begin_rebalance(weights=(1.0, 1.0, 1.0))
        store.begin_rebalance(weights=WEIGHTS)
        with pytest.raises(RebalanceInProgressError):
            store.begin_rebalance(weights=(1.0, 2.0, 1.0))
        store.close()

    def test_journal_never_moves_backwards(self, tmp_path):
        journal = RebalanceJournal(
            root=tmp_path,
            old_ring={"n_shards": 2, "seed": 0, "vnodes": 8},
            new_ring={"n_shards": 2, "seed": 0, "vnodes": 16},
        )
        journal.write()
        journal.advance("draining")
        loaded = RebalanceJournal.load(tmp_path)
        assert loaded.state == "draining"
        with pytest.raises(RebalanceError, match="backwards"):
            loaded.advance("planned")


class TestDualRouting:
    def test_reads_fall_back_to_old_owner_mid_drain(self, tmp_path):
        store = _create(tmp_path / "store")
        oracle = _preload(store)
        store.begin_rebalance(weights=WEIGHTS)
        # Nothing drained yet: every moved key still sits on its old
        # owner only, yet every key must read back, point and batch.
        for key, value in oracle.items():
            assert store.get(key) == value
        keys = sorted(oracle)
        assert list(store.get_many(keys)) == [oracle[k] for k in keys]
        assert len(store.keys()) == len(oracle)
        assert len(store) == len(oracle)
        store.close()

    def test_foreground_write_beats_stale_copy(self, tmp_path):
        store = _create(tmp_path / "store")
        oracle = _preload(store)
        rebalancer = store.begin_rebalance(weights=WEIGHTS)
        moved = sorted(k for k in oracle if rebalancer.diff.covers(k))
        assert moved, "perturbation moved nothing; pick other weights"
        # Overwrite a moving key before its batch drains: the write goes
        # to the new owner; the later drain copy must not clobber it.
        victim = moved[0]
        store.put(victim, b"FRESH")
        oracle[victim] = b"FRESH"
        rebalancer.drain_until_done(timeout_s=30.0)
        rebalancer.finalize()
        assert rebalancer.copies_skipped >= 1
        assert store.get(victim) == b"FRESH"
        assert check_exactly_once(store, oracle) == []
        store.close()

    def test_delete_hits_both_owners(self, tmp_path):
        store = _create(tmp_path / "store")
        oracle = _preload(store)
        rebalancer = store.begin_rebalance(weights=WEIGHTS)
        moved = sorted(k for k in oracle if rebalancer.diff.covers(k))
        victim = moved[0]
        assert store.delete(victim)
        del oracle[victim]
        assert store.get(victim) is None
        rebalancer.drain_until_done(timeout_s=30.0)
        rebalancer.finalize()
        assert store.get(victim) is None, "drain resurrected a deleted key"
        assert check_exactly_once(store, oracle) == []
        store.close()


class TestRecovery:
    def test_reopen_resumes_draining(self, tmp_path):
        root = tmp_path / "store"
        store = _create(root)
        oracle = _preload(store)
        rebalancer = store.begin_rebalance(weights=WEIGHTS, batch_size=4)
        rebalancer.drain()  # partial progress only
        store.close()
        reopened = ShardedKVStore.open(root, config=fast_test_config())
        assert reopened.rebalance_active
        assert reopened.rebalancer.state == "draining"
        # Mid-drain: right values on every holder, every key served.
        assert check_exactly_once(reopened, oracle) == []
        reopened.rebalancer.drain_until_done(timeout_s=30.0)
        reopened.rebalancer.finalize()
        assert check_exactly_once(reopened, oracle) == []
        reopened.close()

    def test_reopen_rolls_flipped_forward(self, tmp_path):
        root = tmp_path / "store"
        store = _create(root)
        oracle = _preload(store)
        rebalancer = store.begin_rebalance(weights=WEIGHTS)
        rebalancer.drain_until_done(timeout_s=30.0)
        # Crash between the journal's point of no return and the manifest
        # rewrite: advance the journal by hand, skip finalize.
        rebalancer.journal.advance("flipped")
        store.close()
        reopened = ShardedKVStore.open(root, config=fast_test_config())
        assert not reopened.rebalance_active
        assert reopened.ring.weights == WEIGHTS
        assert RebalanceJournal.load(root) is None
        assert check_exactly_once(reopened, oracle) == []
        reopened.close()

    def test_create_discards_stale_journal(self, tmp_path):
        root = tmp_path / "store"
        store = _create(root)
        _preload(store, n=12)
        store.begin_rebalance(weights=WEIGHTS)
        store.close()
        assert (root / "rebalance.json").exists()
        fresh = _create(root)  # recreate over the same directory
        assert not fresh.rebalance_active
        assert RebalanceJournal.load(root) is None
        fresh.close()

    def test_drain_pauses_on_dead_source_and_resumes(self, tmp_path):
        store = _create(tmp_path / "store")
        oracle = _preload(store)
        rebalancer = store.begin_rebalance(weights=WEIGHTS, batch_size=8)
        rebalancer.drain(0)  # build the queue
        source, _target = rebalancer.next_pair()
        store.backend.kill_shard(source)
        report = rebalancer.drain()
        assert source in report.paused_on
        assert not report.done
        store.backend.reopen_shard(source)
        rebalancer.drain_until_done(timeout_s=30.0)
        rebalancer.finalize()
        assert check_exactly_once(store, oracle) == []
        store.close()


class TestShardedFsck:
    def test_clean_store_passes(self, tmp_path):
        root = tmp_path / "store"
        store = _create(root)
        oracle = _preload(store)
        store.close()
        report = fsck_sharded(root)
        assert report.ok
        assert report.placed_ok == len(oracle)
        assert report.rebalance_state is None

    def test_detects_misplaced_and_duplicate_keys(self, tmp_path):
        root = tmp_path / "store"
        store = _create(root)
        oracle = _preload(store, n=20)
        key = sorted(oracle)[0]
        owner = store.shard_of(key)
        stray = (owner + 1) % store.n_shards
        # Plant the key on a shard the ring does not route it to.
        store.backend.call(stray, "put", (key, oracle[key]))
        store.close()
        report = fsck_sharded(root)
        assert not report.ok
        text = "\n".join(report.errors)
        assert "misplaced" in text
        assert "multiple shards" in text

    def test_mid_migration_placement_downgraded_to_warning(self, tmp_path):
        root = tmp_path / "store"
        store = _create(root)
        _preload(store)
        rebalancer = store.begin_rebalance(weights=WEIGHTS, batch_size=4)
        rebalancer.drain()  # a few keys mid-flight, most still on old owners
        store.close()
        report = fsck_sharded(root)
        assert report.ok, (report.errors, [r.errors for r in report.shards])
        assert report.rebalance_state == "draining"
        assert report.warnings, "expected mid-migration warnings"
