"""Durable-mode KVStore tests: slot commits and full recovery.

A "restart" here is the real thing: the device is the only object carried
over; controller, pool, catalog, index, validity map, allocator and DAP
are all rebuilt by :meth:`KVStore.open`.
"""

import pytest

from repro.core import KVStore
from repro.core.config import fast_test_config
from repro.nvm import MemoryController, NVMDevice, WearOutConfig
from repro.pmem import PersistentCatalog, PersistentPool
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
        free = set(store.engine.free_addresses())
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
        assert report.dropped_slots == 0  # clean shutdown
        assert report.live_objects == len(oracle)
        assert report.free_objects == (
            reopened.pool.capacity_objects - len(oracle)
        )
        assert report.duplicate_keys_dropped == 0
        assert report.max_epoch == 21  # 20 PUTs and a DELETE's tombstone

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
        store.put(b"a", b"older")  # record 0, epoch 1, slot A
        store.put(b"b", b"newer")  # record 1, epoch 2
        catalog = store.catalog
        older, newer = catalog.read(0), catalog.read(1)
        key, segment = b"a", older.segment
        if defect == "key":  # record 0's key becomes "b"
            key = b"b"
        elif defect == "segment":  # record 0 names record 1's segment
            segment = newer.segment
        else:  # record 0 names a segment index past the object range
            segment = 0xFFFFFFFF
        # Rewrite record 0 as a valid INSERT of slot A, checksums and all
        # (the pool stands in for the transaction: the row lands at once).
        catalog._target[0] = 0
        catalog.tx_set(
            store.pool, 0, segment, key, older.value_len, 1, 0, older.crc
        )
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
        # An UPDATE's one slot write, torn 11 bytes into its 22.
        faults.arm("catalog.write", error=CrashError, torn_fraction=0.5)
        with pytest.raises(CrashError):
            store.put(b"k", b"doomed")
        del store
        reopened = harness.reopen(device)
        check_durable_invariants(reopened, {b"k": b"stable"})

    def test_unacked_put_is_invisible_after_crash(self, harness):
        """Crashing at the commit's site (before its row lands) must leave
        the un-acknowledged PUT invisible."""
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put(b"old", b"acked")
        faults.arm("catalog.write", error=CrashError)
        with pytest.raises(CrashError):
            store.put(b"new", b"never-acked")
        del store
        reopened = harness.reopen(device)
        check_durable_invariants(reopened, {b"old": b"acked"})

    def test_non_crash_error_unclaims_address(self, harness):
        """An ordinary failure inside the commit zeroes its slot and
        returns the placed address to the DAP (no leak, store usable)."""
        faults = FaultInjector()
        _, _, store = harness.fresh(faults)
        store.put(b"k", b"stable")
        free_before = set(store.engine.free_addresses())
        with faults.injected("catalog.write", error=OSError("media error")):
            with pytest.raises(OSError):
                store.put(b"k", b"doomed")
        assert store.get(b"k") == b"stable"
        assert set(store.engine.free_addresses()) == free_before
        store.put(b"k", b"recovered")  # still fully usable
        assert store.get(b"k") == b"recovered"


class TestGroupCommit:
    """``put_many`` writes the batch's values to free segments, then
    publishes their catalog slots in one commit per batch of distinct
    keys."""

    ITEMS = [(b"k%02d" % i, bytes([i + 1]) * (i + 5)) for i in range(8)]

    def test_batch_commits_in_few_transactions(self, harness, monkeypatch):
        faults = FaultInjector()
        device, pool, store = harness.fresh(faults)
        commits = []
        commit = pool.commit
        monkeypatch.setattr(
            pool, "commit", lambda *args: commits.append(args) or commit(*args)
        )
        store.put_many(self.ITEMS)
        # One commit, one row per pair: no log to fill.
        assert len(commits) == 1
        assert faults.hits("catalog.write") == len(self.ITEMS)
        check_durable_invariants(store, dict(self.ITEMS))
        check_durable_invariants(harness.reopen(device), dict(self.ITEMS))

    def test_failed_group_keeps_and_counts_the_committed_prefix(
        self, harness
    ):
        """A repeated key starts a second batch; a non-crash failure in
        its commit leaves the first batch committed *and counted* as
        committed writes, and un-claims every address it did not
        publish."""
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        counts = []
        store.engine.record_committed_writes = counts.append
        items = self.ITEMS[:5] + [(b"k00", b"again")] + self.ITEMS[5:]
        faults.arm("catalog.write", error=OSError("media error"), after=5)
        with pytest.raises(OSError):
            store.put_many(items)
        committed = dict(items[:5])
        assert sum(counts) == len(committed)
        check_durable_invariants(store, committed)
        store.put_many(items)  # still fully usable
        check_durable_invariants(harness.reopen(device), dict(items))

    def test_keyboard_interrupt_mid_commit_keeps_the_committed_prefix(
        self, harness
    ):
        """A ``KeyboardInterrupt`` between two rows of the *second* batch's
        commit — its first slot is on the media — is not a crash: the live
        store zeroes that batch's slots, keeps the committed first batch,
        releases every address it had claimed and keeps serving; the media
        is reopenable and fsck-clean."""
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put(b"k00", b"old")
        items = self.ITEMS[:4] + [(b"k00", b"again")] + self.ITEMS[4:]
        # Programs of the call: its 9 values, the first batch's slots (an
        # UPDATE, then three INSERTs in their own pass), then the second
        # batch's first row.
        programs = faults.hits("device.program")
        with faults.injected(
            "device.program", error=KeyboardInterrupt, after=9 + 4 + 1
        ):
            with pytest.raises(KeyboardInterrupt):
                store.put_many(items)
        # ...then the zeroing of the second batch's five slots.
        assert faults.hits("device.program") - programs == 15 + 5
        committed = {b"k00": b"old", **dict(items[:4])}
        # Contents, pool/DAP accounting (nothing left claimed) and catalog
        # of the *live* store, then of the media alone.
        check_durable_invariants(store, committed)
        assert harness.fsck(device) == []
        check_durable_invariants(harness.reopen(device), committed)
        device.faults = faults
        store.put_many(items)  # the next PUT succeeds
        check_durable_invariants(store, dict(items))
        check_durable_invariants(harness.reopen(device), dict(items))

    def test_repeated_key_supersedes_its_first_occurrence(self, harness):
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put(b"a", b"zero")
        addrs = store.put_many(
            [(b"a", b"first"), (b"b", b"other"), (b"a", b"second!")]
        )
        # The repeat starts a second batch, so every crash state is a
        # prefix of the call: "first" goes live, then "second!" replaces
        # it and its segment is recycled.
        assert faults.hits("catalog.write") == 1 + 3
        assert store.get(b"a") == b"second!"
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


class TestSlotWrites:
    """What each mutation costs the device: the value (when there is
    one) and one catalog row, nothing else."""

    def test_scalar_update_costs_two_device_writes(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        store.put(b"k", b"first")
        writes = device.stats.writes
        store.put(b"k", b"second")  # value, slot
        assert device.stats.writes - writes == 2

    def test_insert_costs_two_and_delete_one(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        writes = device.stats.writes
        store.put(b"k", b"v")  # value, key + slot
        assert device.stats.writes - writes == 2
        store.delete(b"k")  # tombstone slot
        assert device.stats.writes - writes == 3
        store.put(b"k", b"w")  # into the record the delete freed
        assert device.stats.writes - writes == 5

    def test_put_many_of_fresh_keys_costs_two_per_pair(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        writes = device.stats.writes
        store.put_many(TestGroupCommit.ITEMS)
        assert device.stats.writes - writes == 2 * len(TestGroupCommit.ITEMS)


class TestConstruction:
    def test_pool_without_catalog_rejected(self, harness):
        """The durable half of the constructor is the catalog, which
        names its pool: a pool alone is no argument."""
        _, pool, store = harness.fresh(FaultInjector())
        with pytest.raises(TypeError, match="pool"):
            KVStore(store.engine, pool=pool)
        assert KVStore(store.engine, catalog=store.catalog).pool is pool

    def test_record_wider_than_a_segment_rejected(self):
        """A record — two 22-B slots, two header bytes and the key — must
        fit one segment; the error names the key capacity that would."""
        device = NVMDevice(
            capacity_bytes=32 * 64, segment_size=64,
            initial_fill="random", seed=0,
        )
        pool = PersistentPool(MemoryController(device), meta_segments=8)
        with pytest.raises(ValueError, match="key_capacity 18 or less fits"):
            KVStore.create(
                pool, config=fast_test_config(), key_capacity=32
            )
        with pytest.raises(ValueError, match="key_capacity 18 or less"):
            PersistentCatalog.meta_segments_for(32, 64, 19)
