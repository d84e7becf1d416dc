"""Durable-mode KVStore tests: transactional writes and full recovery.

A "restart" here is the real thing: the device is the only object carried
over; controller, pool, catalog, index, validity map, allocator and DAP
are all rebuilt by :meth:`KVStore.open`.
"""

import numpy as np
import pytest

from repro.core import KVStore
from repro.core.config import fast_test_config
from repro.nvm import MemoryController, NVMDevice, WearOutConfig
from repro.pmem import PersistentCatalog, PersistentPool
from repro.pmem.pool import LOG_FLAG_AT
from repro.testing import (
    CrashError,
    FaultInjector,
    KVCrashHarness,
    check_durable_invariants,
)


@pytest.fixture(scope="module")
def harness():
    return KVCrashHarness()


class TestDurableLifecycle:
    def test_put_get_delete_roundtrip(self, harness):
        _, _, store = harness.fresh(FaultInjector())
        assert store.put(b"alpha", b"one") >= 0
        store.put(b"beta", b"two")
        assert store.get(b"alpha") == b"one"
        assert store.get(b"beta") == b"two"
        assert store.delete(b"alpha") is True
        assert store.get(b"alpha") is None
        assert store.delete(b"alpha") is False
        assert len(store) == 1

    def test_update_recycles_old_segment(self, harness):
        _, _, store = harness.fresh(FaultInjector())
        addr1 = store.put(b"k", b"v1")
        addr2 = store.put(b"k", b"v2-longer")
        assert addr1 != addr2
        assert store.get(b"k") == b"v2-longer"
        free = set(store.pool.free_addresses())
        assert addr1 in free and addr2 not in free

    def test_epoch_increases_per_put(self, harness):
        _, _, store = harness.fresh(FaultInjector())
        store.put(b"a", b"x")
        store.put(b"b", b"y")
        store.put(b"a", b"z")
        epochs = sorted(e.epoch for e in store.catalog.scan())
        assert len(epochs) == len(set(epochs)) == 2  # live records only
        assert epochs[-1] == 3

    def test_key_exceeding_capacity_raises(self, harness):
        _, _, store = harness.fresh(FaultInjector())
        with pytest.raises(ValueError, match="key capacity"):
            store.put(b"K" * (harness.key_capacity + 1), b"v")


class TestReopenFromMedia:
    def test_reopen_rebuilds_everything_from_media_alone(self, harness):
        """Acceptance: a fresh PersistentPool over the same device must
        reconstruct index, validity map, allocator state and DAP."""
        device, _, store = harness.fresh(FaultInjector())
        oracle = {}
        for i in range(20):
            key = b"user%03d" % (i % 7)
            value = bytes([i + 1]) * (i + 1)
            store.put(key, value)
            oracle[key] = value
        store.delete(b"user003")
        del oracle[b"user003"]
        expected = dict(store.items())
        assert expected == oracle
        del store  # every DRAM structure dies here

        reopened = harness.reopen(device)
        check_durable_invariants(reopened, oracle)
        report = reopened.recovery
        assert report is not None
        assert report.rolled_back_records == 0  # clean shutdown
        assert report.live_objects == len(oracle)
        assert report.free_objects == (
            reopened.pool.capacity_objects - len(oracle)
        )
        assert report.duplicate_keys_dropped == 0
        assert report.max_epoch == 20

    def test_reopened_store_stays_fully_functional(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        del store
        reopened = harness.reopen(device)
        reopened.put(b"c", b"3")
        reopened.put(b"a", b"1-updated")
        reopened.delete(b"b")
        assert dict(reopened.items()) == {b"a": b"1-updated", b"c": b"3"}
        # Epochs continue past the recovered maximum.
        assert max(e.epoch for e in reopened.catalog.scan()) > 2

    @pytest.mark.parametrize("defect", ["key", "segment", "stray"])
    def test_open_keeps_the_newest_of_two_conflicting_records(
        self, harness, defect
    ):
        """The one defensive rule of recovery, on damage atomic PUTs cannot
        produce: of two live records with one key, or naming one segment,
        the newest epoch wins; a record naming no object segment goes."""
        device, _, store = harness.fresh(FaultInjector())
        store.put(b"a", b"older")  # record 0, epoch 1
        store.put(b"b", b"newer")  # record 1, epoch 2
        rec0, rec1 = (store.catalog.record_address(r) for r in (0, 1))
        if defect == "key":  # record 0's key becomes "b"
            device._content[rec0 + 24] = ord("b")
        elif defect == "segment":  # record 0 names record 1's segment
            device._content[rec0 + 20 : rec0 + 24] = (
                device._content[rec1 + 20 : rec1 + 24]
            )
        else:  # record 0 names a segment index past the object range
            device._content[rec0 + 20 : rec0 + 24] = 0xFF
        del store
        reopened = harness.reopen(device)
        assert reopened.recovery.duplicate_keys_dropped == 1
        check_durable_invariants(reopened, {b"b": b"newer"})
        assert reopened.catalog.read(0) is None

    def test_reopen_empty_store(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        del store
        reopened = harness.reopen(device)
        assert len(reopened) == 0
        assert reopened.recovery.live_objects == 0
        check_durable_invariants(reopened, {})


class TestCrashedPut:
    def test_crash_mid_put_preserves_previous_value(self, harness):
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put(b"k", b"stable")
        # An UPDATE's one in-place write: torn 10 bytes into the record's
        # 20 mutable bytes (new length + epoch, old CRC + segment).
        faults.arm("tx.write", error=CrashError, torn_fraction=0.5)
        with pytest.raises(CrashError):
            store.put(b"k", b"doomed")
        del store
        reopened = harness.reopen(device)
        check_durable_invariants(reopened, {b"k": b"stable"})

    def test_unacked_put_is_invisible_after_crash(self, harness):
        """Crashing at the commit site (before the flag clears) must leave
        the un-acknowledged PUT invisible."""
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put(b"old", b"acked")
        faults.arm("tx.commit", error=CrashError)
        with pytest.raises(CrashError):
            store.put(b"new", b"never-acked")
        del store
        reopened = harness.reopen(device)
        check_durable_invariants(reopened, {b"old": b"acked"})

    def test_non_crash_error_unclaims_address(self, harness):
        """An ordinary failure inside the transaction rolls back and
        returns the placed address to the DAP (no leak, store usable)."""
        faults = FaultInjector()
        _, _, store = harness.fresh(faults)
        store.put(b"k", b"stable")
        free_before = set(store.pool.free_addresses())
        with faults.injected("tx.write", error=OSError("media error")):
            with pytest.raises(OSError):
                store.put(b"k", b"doomed")
        assert store.get(b"k") == b"stable"
        assert set(store.pool.free_addresses()) == free_before
        assert set(store.engine.free_addresses()) == free_before
        store.put(b"k", b"recovered")  # still fully usable
        assert store.get(b"k") == b"recovered"


class TestGroupCommit:
    """``put_many`` writes the batch's values to free segments, then
    publishes their catalog records a transaction-full of pairs at a
    time."""

    ITEMS = [(b"k%02d" % i, bytes([i + 1]) * (i + 5)) for i in range(8)]

    def test_batch_commits_in_few_transactions(self, harness):
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put_many(self.ITEMS)
        per_tx = store._pairs_per_tx
        assert 1 < per_tx < len(self.ITEMS)
        assert faults.hits("tx.begin") == -(-len(self.ITEMS) // per_tx)
        # One undo-record run per transaction, not one record write each.
        assert faults.hits("tx.log") == faults.hits("tx.begin")
        check_durable_invariants(store, dict(self.ITEMS))
        check_durable_invariants(harness.reopen(device), dict(self.ITEMS))

    def test_failed_group_keeps_and_counts_the_committed_prefix(
        self, harness
    ):
        """A non-crash failure in the second transaction leaves the first
        group committed *and counted* toward the retrain cooldown, and
        un-claims every address it did not publish."""
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        policy = store.engine.policy
        counted = policy._writes_since_retrain
        faults.arm("tx.commit", error=OSError("media error"), after=1)
        with pytest.raises(OSError):
            store.put_many(self.ITEMS)
        committed = dict(self.ITEMS[: store._pairs_per_tx])
        assert policy._writes_since_retrain - counted == len(committed)
        check_durable_invariants(store, committed)
        store.put_many(self.ITEMS)  # still fully usable
        check_durable_invariants(harness.reopen(device), dict(self.ITEMS))

    def test_keyboard_interrupt_between_log_and_in_place_writes(self, harness):
        """A ``KeyboardInterrupt`` at ``tx.write`` of the *second* group —
        its record run and header are on the media, its in-place batch is
        not — is not a crash: the live store rolls the group back, keeps
        the committed first group, releases every address it had claimed
        and keeps serving; the media is reopenable and fsck-clean."""
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put(b"k00", b"old")
        per_tx = store._pairs_per_tx
        # In-place writes of the first group, counted on a twin.
        twin_faults = FaultInjector()
        _, _, twin = harness.fresh(twin_faults)
        twin.put(b"k00", b"old")
        first_group = -twin_faults.hits("tx.write")
        twin.put_many(self.ITEMS[:per_tx])
        first_group += twin_faults.hits("tx.write")

        logged, committed_txs = faults.hits("tx.log"), faults.hits("tx.commit")
        with faults.injected(
            "tx.write", error=KeyboardInterrupt, after=first_group
        ):
            with pytest.raises(KeyboardInterrupt):
                store.put_many(self.ITEMS)
        assert faults.hits("tx.log") - logged == 2  # second run is down
        assert faults.hits("tx.commit") - committed_txs == 1
        committed = dict(self.ITEMS[:per_tx])
        # Contents, pool/DAP accounting (nothing left claimed) and catalog
        # of the *live* store, then of the media alone.
        check_durable_invariants(store, committed)
        assert harness.fsck(device) == []
        check_durable_invariants(harness.reopen(device), committed)
        device.faults = faults
        store.put_many(self.ITEMS)  # the next PUT succeeds
        check_durable_invariants(store, dict(self.ITEMS))
        check_durable_invariants(harness.reopen(device), dict(self.ITEMS))

    def test_repeated_key_supersedes_its_first_occurrence(self, harness):
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put(b"a", b"zero")
        addrs = store.put_many(
            [(b"a", b"first"), (b"b", b"other"), (b"a", b"second!")]
        )
        # One transaction for the whole batch: the first occurrence was
        # superseded before it could become visible, so only the last
        # value is published and the first's segment is free again.
        assert faults.hits("tx.begin") == 2
        assert store.get(b"a") == b"second!"
        assert addrs[0] in store.pool.free_addresses()
        assert addrs[0] in store.engine.free_addresses()
        assert sorted(e.key for e in store.catalog.scan()) == [b"a", b"b"]
        expected = {b"a": b"second!", b"b": b"other"}
        check_durable_invariants(store, expected)
        reopened = harness.reopen(device)
        assert reopened.recovery.duplicate_keys_dropped == 0
        check_durable_invariants(reopened, expected)

    def test_mixed_value_lengths_under_verify(self):
        """Values of different lengths share one batch on verifying media:
        the controller batches them per length."""
        mortal = KVCrashHarness(wearout=WearOutConfig(seed=3))
        device, _, store = mortal.fresh(FaultInjector())
        controller = store.engine.controller
        assert controller.verify_writes
        items = [
            (b"k%02d" % i, bytes([i + 1]) * length)
            for i, length in enumerate([64, 7, 64, 1, 33, 7, 64, 33])
        ]
        verified = controller.verify_reads
        writes = device.stats.writes
        store.put_many(items)
        # Every device write of the batch was read back and verified.
        assert controller.verify_reads - verified == (
            device.stats.writes - writes
        )
        check_durable_invariants(store, dict(items))
        check_durable_invariants(mortal.reopen(device), dict(items))


class TestLogWrites:
    """The header raise rides in the first row of the record run, so a
    transaction writes the log header's 16 bytes exactly twice: with its
    payload's first row, and as the 1-byte flag clear."""

    def test_scalar_update_costs_four_device_writes(
        self, harness, monkeypatch
    ):
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put(b"k", b"first")
        header_rows = []
        for name in ("program", "program_many"):
            method = getattr(device, name)

            def spy(addrs, *args, _method=method, **kwargs):
                header_rows.extend(
                    a for a in np.atleast_1d(addrs).tolist() if a < 16
                )
                return _method(addrs, *args, **kwargs)

            monkeypatch.setattr(device, name, spy)
        writes, logged = device.stats.writes, faults.hits("tx.log")
        # Value, log payload (one row), catalog record, flag clear.
        store.put(b"k", b"second")
        assert device.stats.writes - writes == 4
        store.put_many(TestGroupCommit.ITEMS)
        store.delete(b"k")
        transactions = faults.hits("tx.log") - logged
        assert transactions > 3
        assert len(header_rows) == 2 * transactions
        assert set(header_rows) == {0, LOG_FLAG_AT}


class TestConstruction:
    def test_pool_without_catalog_rejected(self, harness):
        _, pool, store = harness.fresh(FaultInjector())
        with pytest.raises(ValueError, match="both pool and catalog"):
            KVStore(store.engine, pool=pool)

    def test_undersized_log_rejected(self):
        """create() must refuse a log too small for a worst-case PUT —
        an UPDATE's 36-B undo record against a 32 - 16 = 16 B log — and
        say which shape did not fit."""
        device = NVMDevice(
            capacity_bytes=32 * 32, segment_size=32,
            initial_fill="random", seed=0,
        )
        meta = PersistentCatalog.meta_segments_for(32, 1, 32, 8)
        pool = PersistentPool(
            MemoryController(device), log_segments=1, meta_segments=meta
        )
        with pytest.raises(ValueError, match=r"undo log .* an UPDATE"):
            KVStore.create(
                pool, config=fast_test_config(), key_capacity=8
            )
