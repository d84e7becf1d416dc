"""Crash-consistency tests: recovery from the two-slot catalog.

Commits are staged, so the media is only at risk *during commit*.  A
"crash" is a :class:`CrashError` at a ``catalog.write`` site — the rows
before it in ``write_many`` order on the media, the crashed one torn —
after which every DRAM object is discarded and the store is reopened from
the *same device*, exactly what a restart over real persistent memory
does.  ``land`` (from ``test_slot_recovery``) puts chosen rows of a batch
on the media directly, for the subsets ``write_many`` cannot produce.
"""

import numpy as np
import pytest

from repro.testing import CrashError, FaultInjector, KVCrashHarness
from repro.testing.crash_sweep import check_durable_invariants
from repro.testing.model import PREFIX, DurabilityModel

from .test_slot_recovery import land


@pytest.fixture(scope="module")
def harness():
    return KVCrashHarness(n_segments=48)


def crash_at_row(store, items, row: int, torn=None):
    """``put_many(items)`` crashed at its ``row``-th catalog row (in write
    order), with ``torn`` bytes of it on the media."""
    faults = FaultInjector()
    store.pool.faults = faults
    faults.arm("catalog.write", error=CrashError, after=row, torn_bytes=torn)
    with pytest.raises(CrashError):
        store.put_many(items)


class TestCrashRecovery:
    def test_uncommitted_transaction_is_rolled_back(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        store.put(b"k", b"STABLE")
        crash_at_row(store, [(b"k", b"TORN")], 0, torn=10)
        recovered = harness.reopen(device)
        assert recovered.get(b"k") == b"STABLE"
        assert recovered.recovery.dropped_slots == 0

    def test_multi_write_crash_rolls_back_everything(self, harness):
        """Index 0 never landed, 1 and 2 did: the whole batch is dropped
        and zeroed."""
        device, _, store = harness.fresh(FaultInjector())
        old = [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]
        store.put_many(old)
        land(store, [(b"a", b"x"), (b"b", b"y"), (b"c", b"z")], {1, 2})
        recovered = harness.reopen(device)
        assert recovered.recovery.dropped_slots == 2
        assert dict(recovered.items()) == dict(old)
        assert not harness.fsck(device)

    def test_partial_batch_keeps_its_prefix(self, harness):
        """Rows 0 and 2 landed, 1 did not: the batch keeps index 0."""
        device, _, store = harness.fresh(FaultInjector())
        store.put_many([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        land(store, [(b"a", b"x"), (b"b", b"y"), (b"c", b"z")], {0, 2})
        recovered = harness.reopen(device)
        assert recovered.recovery.dropped_slots == 1
        assert dict(recovered.items()) == {b"a": b"x", b"b": b"2", b"c": b"3"}

    def test_committed_transaction_survives_recovery(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        store.put_many([(b"a", b"DURABLE!"), (b"b", b"too")])
        recovered = harness.reopen(device)
        assert dict(recovered.items()) == {b"a": b"DURABLE!", b"b": b"too"}

    def test_clean_device_recovery_is_noop(self, harness):
        """Recovering a cleanly closed store drops nothing and writes
        nothing."""
        device, _, store = harness.fresh(FaultInjector())
        store.put_many([(b"a", b"1"), (b"b", b"2")])
        store.delete(b"a")
        writes = device.stats.writes
        recovered = harness.reopen(device)
        assert recovered.recovery.dropped_slots == 0
        assert device.stats.writes == writes

    def test_stale_records_from_prior_tx_not_replayed(self, harness):
        """The slots a recovery dropped — stale rows of an interrupted
        commit — are zeroed, so a later recovery does not replay them:
        once a newer batch exists, the interrupted one is no longer the
        newest, and nothing would trim it again."""
        device, _, store = harness.fresh(FaultInjector())
        store.put_many([(b"a", b"1"), (b"b", b"2")])
        land(store, [(b"a", b"x"), (b"b", b"y")], {1})
        recovered = harness.reopen(device)
        assert recovered.recovery.dropped_slots == 1
        recovered.put(b"c", b"3")
        again = harness.reopen(device)
        assert dict(again.items()) == {b"a": b"1", b"b": b"2", b"c": b"3"}

    def test_mark_allocated_restores_liveness(self, harness):
        """Recovery re-registers every live segment with the engine: it
        is never handed out again, and only object segments are
        accepted."""
        device, _, store = harness.fresh(FaultInjector())
        store.put(b"k", b"live")
        addr, _ = store.index.get(b"k")
        recovered = harness.reopen(device)
        engine = recovered.engine
        assert engine.is_allocated(addr)
        with pytest.raises(ValueError):
            engine.mark_allocated(3)  # not a segment address
        handed = engine.place_many(
            [b"%03d" % i for i in range(len(engine.free_addresses()))]
        )
        assert addr not in handed
        assert recovered.get(b"k") == b"live"

    def test_recover_resets_counter_on_clean_flag(self, harness):
        """A second recovery of media the first one cleaned must report 0
        dropped slots, not echo the previous recovery's count."""
        device, _, store = harness.fresh(FaultInjector())
        store.put_many([(b"a", b"1"), (b"b", b"2")])
        land(store, [(b"a", b"x"), (b"b", b"y")], {1})
        assert harness.reopen(device).recovery.dropped_slots == 1
        assert harness.reopen(device).recovery.dropped_slots == 0

    def test_recover_is_idempotent(self, harness):
        """Recovering again (without new batches) finds nothing more to
        drop and serves the same contents."""
        device, _, store = harness.fresh(FaultInjector())
        store.put_many([(b"a", b"1"), (b"b", b"2")])
        land(store, [(b"a", b"x"), (b"b", b"y"), (b"c", b"z")], {0, 2})
        first = harness.reopen(device)
        assert first.recovery.dropped_slots == 1
        contents = dict(first.items())
        for _ in range(2):
            again = harness.reopen(device)
            assert again.recovery.dropped_slots == 0
            assert dict(again.items()) == contents

    def test_crash_during_recovery_then_recover_again(self, harness):
        """A crash tearing recovery's invalidation of a dropped slot, at
        every byte: the newest batch and its gap are unchanged, so the
        next recovery drops the same slots."""
        for n in range(23):
            device, _, store = harness.fresh(FaultInjector())
            store.put_many([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
            land(store, [(b"a", b"x"), (b"b", b"y"), (b"c", b"z")], {0, 2})
            faults = FaultInjector()
            faults.arm(
                "catalog.invalidate", error=CrashError, torn_bytes=n
            )
            pool = harness._pool(device, faults)
            with pytest.raises(CrashError):
                type(store).open(
                    pool, config=harness.config,
                    key_capacity=harness.key_capacity,
                )
            recovered = harness.reopen(device)
            assert dict(recovered.items()) == {
                b"a": b"x", b"b": b"2", b"c": b"3"
            }, n
            assert not harness.fsck(device), n

    def test_crash_error_in_context_manager_skips_rollback(self, harness):
        """CrashError means process death: the rows that landed stay on
        the media — no invalidation — for the *next* recovery to judge."""
        device, _, store = harness.fresh(FaultInjector())
        store.put_many([(b"a", b"1"), (b"b", b"2")])
        addr, _ = store.index.get(b"a")
        crash_at_row(store, [(b"a", b"x"), (b"b", b"y")], 1, torn=5)
        # a's new slot landed and was not zeroed: it names a new segment.
        entry = store.catalog.read(store._live[addr][3])
        assert entry.segment != store.pool.object_index(addr)
        recovered = harness.reopen(device)
        assert dict(recovered.items()) == {b"a": b"x", b"b": b"2"}

    def test_recovery_under_random_crashes(self, harness):
        """Random batches crashed at random rows and bytes: the surviving
        state is always the acknowledged one plus a prefix of the
        interrupted batch."""
        rng = np.random.default_rng(7)
        device, _, store = harness.fresh(FaultInjector())
        model = DurabilityModel()
        keys = [b"k%d" % i for i in range(6)]
        for round_idx in range(25):
            picks = rng.choice(len(keys), int(rng.integers(1, 5)), False)
            items = [
                (keys[i], rng.integers(0, 256, int(rng.integers(1, 65)),
                                       dtype=np.uint8).tobytes())
                for i in picks
            ]
            model.begin(items, PREFIX)
            if rng.random() < 0.5:
                crash_at_row(
                    store, items, int(rng.integers(0, len(items))),
                    torn=int(rng.integers(0, 41)),
                )
                store = harness.reopen(device)
                check_durable_invariants(store, model)
                model.settle(dict(store.items()))
            else:
                store.put_many(items)
                model.ack()
            assert not model.check(dict(store.items())), round_idx


class TestTornRows:
    def test_torn_at_every_byte(self, harness):
        """One UPDATE batch of two slots — a 22-B row each — crashed at
        every byte of each row in write order: the batch is always a
        prefix, a row torn before its CRC (bytes 18–21) is not in it,
        and a row before the torn one is, once any byte landed (a tear
        of zero bytes is a crash before the commit's first write)."""
        prefixes = [
            {b"a": b"1", b"b": b"2"},
            {b"a": b"x", b"b": b"2"},
            {b"a": b"x", b"b": b"y"},
        ]
        for row in range(2):
            for n in range(23):
                device, _, store = harness.fresh(FaultInjector())
                store.put_many([(b"a", b"1"), (b"b", b"2")])
                crash_at_row(
                    store, [(b"a", b"x"), (b"b", b"y")], row, torn=n
                )
                got = dict(harness.reopen(device).items())
                assert got in prefixes[: row + 2], (row, n)
                if n < 18:
                    assert got == prefixes[row if n else 0], (row, n)

    def test_interrupt_between_rows_zeroes_the_landed_slots(self, harness):
        """A non-crash failure after the first row of a commit landed: the
        store zeroes every slot the batch staged before it un-claims its
        segments, so the next reopen cannot bring the row back."""
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put_many([(b"a", b"1"), (b"b", b"2")])
        # Programs: the two values, then the two slots in one pass.
        faults.arm("device.program", error=KeyboardInterrupt, after=3)
        with pytest.raises(KeyboardInterrupt):
            store.put_many([(b"a", b"x"), (b"b", b"y")])
        faults.disarm("device.program")
        assert dict(store.items()) == {b"a": b"1", b"b": b"2"}
        store.put_many([(b"c", b"3"), (b"d", b"4")])  # reuses segments
        recovered = harness.reopen(device)
        assert dict(recovered.items()) == {
            b"a": b"1", b"b": b"2", b"c": b"3", b"d": b"4"
        }
        assert not harness.fsck(device)
