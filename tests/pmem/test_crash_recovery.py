"""Crash-consistency tests: recovery from the media-resident undo log.

Transactions are staged, so the media is only at risk *during commit*.  A
"crash" is simulated by a :class:`CrashError` at the ``tx.commit`` site —
undo records persisted, header raised, every write applied in place, flag
not yet cleared — followed by constructing a fresh :class:`PersistentPool`
over the *same device* with ``recover=True``, exactly what a restart over
real persistent memory does.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.nvm import MemoryController, NVMDevice
from repro.pmem import PersistentPool
from repro.pmem.pool import LOG_FLAG_AT, LOG_HEADER, log_active_flag
from repro.testing import CrashError, FaultInjector


def make_device(n_segments=24, seed=0):
    return NVMDevice(
        capacity_bytes=n_segments * 64,
        segment_size=64,
        initial_fill="random",
        seed=seed,
    )


def crash_at_commit(pool, writes: list[tuple[int, bytes]]):
    """Run ``writes`` in one transaction of ``pool`` and 'crash' at the
    commit point: everything is applied in place, the log is still active,
    and the DRAM pool object is to be discarded."""
    pool.faults = FaultInjector()
    pool.faults.arm("tx.commit", error=CrashError)
    with pytest.raises(CrashError):
        with pool.transaction() as tx:
            for addr, data in writes:
                tx.write(addr, data)


def crash_mid_transaction(device, payloads: list[tuple[int, bytes]]):
    """Open a pool and crash a transaction writing ``payloads`` to freshly
    allocated segments.  Returns the allocated addresses."""
    pool = PersistentPool(MemoryController(device), log_segments=8)
    addrs = [pool.alloc() for _ in range(len(payloads))]
    crash_at_commit(
        pool, [(addr, data) for addr, (_, data) in zip(addrs, payloads)]
    )
    return addrs


class TestCrashRecovery:
    def test_uncommitted_transaction_is_rolled_back(self):
        device = make_device(seed=1)
        pool = PersistentPool(MemoryController(device), log_segments=8)
        addr = pool.alloc()
        pool.write(addr, b"STABLE" + bytes(58))
        # Crash mid-commit on the same device.
        crash_at_commit(pool, [(addr, b"TORN" + bytes(60))])
        assert device.peek(addr, 4).tobytes() == b"TORN"
        del pool

        recovered = PersistentPool(
            MemoryController(device), log_segments=8, recover=True
        )
        assert recovered.recovered_records == 1
        assert recovered.read(addr, 6) == b"STABLE"

    def test_multi_write_crash_rolls_back_everything(self):
        device = make_device(seed=2)
        baseline = {
            64 * 8: device.peek(64 * 8, 64).tobytes(),
            64 * 9: device.peek(64 * 9, 64).tobytes(),
            64 * 10: device.peek(64 * 10, 64).tobytes(),
        }
        crash_mid_transaction(
            device,
            [(0, b"A" * 64), (1, b"B" * 64), (2, b"C" * 64)],
        )
        recovered = PersistentPool(
            MemoryController(device), log_segments=8, recover=True
        )
        assert recovered.recovered_records == 3
        for addr, old in baseline.items():
            assert recovered.read(addr, 64) == old

    def test_partial_undo_restores_only_the_logged_prefix(self):
        """``undo_len``: the whole payload is written in place, but only
        its first byte is logged — rollback restores that byte alone (a
        catalog insert: a clear flag byte makes the rest dead metadata)
        and the log pays for one byte, not sixty-four."""
        device = make_device(seed=9)
        pool = PersistentPool(MemoryController(device), log_segments=1)
        addr = pool.alloc()
        pool.write(addr, bytes(64))
        pool.faults = FaultInjector()
        pool.faults.arm("tx.commit", error=CrashError)
        with pytest.raises(CrashError), pool.transaction() as tx:
            # 64 + 16 B of full undo would not fit the 48-B log.
            tx.write(addr, b"\x01" + b"K" * 63, undo_len=1)
        assert device.peek(addr, 2).tobytes() == b"\x01K"
        del pool

        recovered = PersistentPool(
            MemoryController(device), log_segments=1, recover=True
        )
        assert recovered.recovered_records == 1
        assert recovered.read(addr, 64) == b"\x00" + b"K" * 63

    def test_committed_transaction_survives_recovery(self):
        device = make_device(seed=3)
        pool = PersistentPool(MemoryController(device), log_segments=8)
        addr = pool.alloc()
        with pool.transaction() as tx:
            tx.write(addr, b"DURABLE!" + bytes(56))
        del pool

        recovered = PersistentPool(
            MemoryController(device), log_segments=8, recover=True
        )
        assert recovered.recovered_records == 0
        assert recovered.read(addr, 8) == b"DURABLE!"

    def test_clean_device_recovery_is_noop(self):
        device = make_device(seed=4)
        # Fresh random device: flag byte is random — initialise it first.
        pool = PersistentPool(MemoryController(device), log_segments=8)
        with pool.transaction() as tx:
            pass
        del pool
        recovered = PersistentPool(
            MemoryController(device), log_segments=8, recover=True
        )
        assert recovered.recovered_records == 0

    def test_stale_records_from_prior_tx_not_replayed(self):
        """After tx1 commits, a crash in a smaller tx2 must roll back only
        tx2's records — the run's closing header (and the sequence stamp)
        stop the scan before tx1 leftovers."""
        device = make_device(seed=5)
        pool = PersistentPool(MemoryController(device), log_segments=8)
        a, b, c = pool.alloc(), pool.alloc(), pool.alloc()
        with pool.transaction() as tx:  # tx1: three records
            tx.write(a, b"1" * 64)
            tx.write(b, b"2" * 64)
            tx.write(c, b"3" * 64)
        crash_at_commit(pool, [(a, b"X" * 64)])  # tx2: one record
        del pool

        recovered = PersistentPool(
            MemoryController(device), log_segments=8, recover=True
        )
        assert recovered.recovered_records == 1
        assert recovered.read(a, 64) == b"1" * 64  # tx2 undone
        assert recovered.read(b, 64) == b"2" * 64  # tx1 intact
        assert recovered.read(c, 64) == b"3" * 64

    def test_mark_allocated_restores_liveness(self):
        device = make_device(seed=6)
        pool = PersistentPool(MemoryController(device), log_segments=8)
        addr = pool.alloc()
        pool.write(addr, b"live" + bytes(60))
        del pool
        recovered = PersistentPool(
            MemoryController(device), log_segments=8, recover=True
        )
        recovered.mark_allocated(addr)
        with pytest.raises(KeyError):
            recovered.mark_allocated(3)  # not a pool segment address
        # The re-registered segment is not handed out again.
        handed = {recovered.alloc() for _ in range(recovered.capacity_objects - 1)}
        assert addr not in handed

    def test_recover_resets_counter_on_clean_flag(self):
        """A second recover() on clean media must report 0, not echo the
        previous recovery's count."""
        device = make_device(seed=8)
        crash_mid_transaction(device, [(0, b"A" * 64), (1, b"B" * 64)])
        pool = PersistentPool(MemoryController(device), log_segments=8)
        assert pool.recover() == 2
        assert pool.recovered_records == 2
        assert pool.recover() == 0
        assert pool.recovered_records == 0

    def test_recover_is_idempotent(self):
        """Recovering twice (without new transactions) is harmless: undo
        records replay absolute old content, not deltas."""
        device = make_device(seed=9)
        baseline = device.peek(64 * 8, 64).tobytes()
        crash_mid_transaction(device, [(0, b"A" * 64)])
        for _ in range(3):
            pool = PersistentPool(
                MemoryController(device), log_segments=8, recover=True
            )
            assert pool.read(64 * 8, 64) == baseline

    def test_crash_during_recovery_then_recover_again(self):
        """A crash tearing a rollback write mid-recovery leaves the log
        active (the flag clears only after every record replays), so the
        next recovery repairs everything."""
        device = make_device(seed=10)
        baseline = {
            64 * 8: device.peek(64 * 8, 64).tobytes(),
            64 * 9: device.peek(64 * 9, 64).tobytes(),
            64 * 10: device.peek(64 * 10, 64).tobytes(),
        }
        crash_mid_transaction(
            device, [(0, b"A" * 64), (1, b"B" * 64), (2, b"C" * 64)]
        )
        faults = FaultInjector()
        faults.arm(
            "recover.rollback", error=CrashError, after=1, torn_fraction=0.5
        )
        crashing = PersistentPool(
            MemoryController(device), log_segments=8, faults=faults
        )
        with pytest.raises(CrashError):
            crashing.recover()
        # The second rollback write landed only half: media is now in a
        # state neither before nor after the transaction...
        recovered = PersistentPool(
            MemoryController(device), log_segments=8, recover=True
        )
        # ...but the log survived the crash, so recovery completes now.
        assert recovered.recovered_records == 3
        for addr, old in baseline.items():
            assert recovered.read(addr, 64) == old

    def test_crash_error_in_context_manager_skips_rollback(self):
        """CrashError means process death: the media must be left exactly
        as the crash left it — rolled back only by the *next* recover()."""
        device = make_device(seed=11)
        faults = FaultInjector()
        pool = PersistentPool(
            MemoryController(device), log_segments=8, faults=faults
        )
        addr = pool.alloc()
        pool.write(addr, b"OLD" + bytes(61))
        faults.arm("tx.commit", error=CrashError)
        with pytest.raises(CrashError):
            with pool.transaction() as tx:
                tx.write(addr, b"NEW" + bytes(61))
        # No rollback happened: the in-place write is still on the media
        # and the log is still active.
        assert device.peek(addr, 3).tobytes() == b"NEW"
        assert device.peek(LOG_FLAG_AT, 1)[0] == 1
        recovered = PersistentPool(
            MemoryController(device), log_segments=8, recover=True
        )
        assert recovered.recovered_records == 1
        assert recovered.read(addr, 3) == b"OLD"

    def test_stale_older_sequence_record_not_replayed(self):
        """The log region is reused: a payload torn exactly at a record
        boundary leaves an *intact* record of an earlier transaction right
        behind the new records — under a header already raised for the
        new transaction, since the flag lands with the payload's first
        row.  The stale record's CRC covers the older sequence number, so
        the scan stops in front of it: only the torn transaction's own
        record replays."""
        device = make_device(seed=12)
        faults = FaultInjector()
        controller = MemoryController(device)
        pool = PersistentPool(controller, log_segments=8, faults=faults)
        a, b = pool.alloc(), pool.alloc()
        with pool.transaction() as tx:  # records for a, then b
            tx.write(a, b"1" * 64)
            tx.write(b, b"2" * 64)
        record = pool.record_overhead_bytes() + 64
        # Next transaction: its payload (header, a, b, closing header) is
        # torn after exactly one record, so b's stale record survives.
        faults.arm("tx.log", error=CrashError, torn_bytes=16 + record)
        with pytest.raises(CrashError):
            with pool.transaction() as tx:
                tx.write(a, b"3" * 64)
                tx.write(b, b"4" * 64)
        log = b"".join(controller.read(i * 64, 64) for i in range(8))
        sequence, flag = LOG_HEADER.unpack_from(log)
        assert flag == 1  # the torn transaction's header is up
        stale = log[16 + record : 16 + 2 * record]
        addr, length = struct.unpack_from("<QI", stale)
        assert (addr, length) == (b, 64)  # intact, from the first tx
        older = LOG_HEADER.pack(sequence - 1, 1)[:LOG_FLAG_AT]
        assert struct.unpack_from("<I", stale, 12 + 64)[0] == zlib.crc32(
            older + stale[: 12 + 64]
        )
        recovered = PersistentPool(
            MemoryController(device), log_segments=8, recover=True
        )
        assert recovered.recovered_records == 1
        assert recovered.read(a, 64) == b"1" * 64
        assert recovered.read(b, 64) == b"2" * 64

    def test_recovery_under_random_crashes(self):
        """Random crash points across a random workload: the surviving
        state always equals the last committed state."""
        rng = np.random.default_rng(7)
        device = make_device(n_segments=32, seed=7)
        pool = PersistentPool(MemoryController(device), log_segments=8)
        slots = [pool.alloc() for _ in range(6)]
        committed = {addr: pool.read(addr, 64) for addr in slots}
        for round_idx in range(25):
            n_writes = int(rng.integers(1, 4))
            writes = [
                (slots[int(rng.integers(0, 6))],
                 rng.integers(0, 256, 64, dtype=np.uint8).tobytes())
                for _ in range(n_writes)
            ]
            crash = rng.random() < 0.5
            if crash:
                crash_at_commit(pool, writes)
                # Restart.
                pool = PersistentPool(
                    MemoryController(device), log_segments=8, recover=True
                )
                for addr in slots:
                    pool.mark_allocated(addr)
            else:
                with pool.transaction() as tx:
                    for addr, data in writes:
                        tx.write(addr, data)
                for addr, data in writes:
                    committed[addr] = data
            for addr, expected in committed.items():
                assert pool.read(addr, 64) == expected, round_idx


class TestHeaderFold:
    """The header raise rides in the first row of the record run: one
    payload from byte 0 — sequence, active flag, records, closing header
    — torn at every byte."""

    A = [b"A" * 64, b"B" * 64, b"C" * 64]
    B = [b"x" * 64, b"y" * 64]
    #: A's sequence: B's (``0x0100…00``) carries through all eight bytes.
    SEQUENCE_A = 0x00FF_FFFF_FFFF_FFFF

    def tear_b(self, n: int):
        """Commit A (three records), then crash B (two records, over A's
        first two) with ``n`` bytes of its payload on the media; returns
        the device, A's addresses and the tear rule."""
        device = make_device(seed=13)
        controller = MemoryController(device)
        controller.write(0, LOG_HEADER.pack(self.SEQUENCE_A - 1, 0))
        faults = FaultInjector()
        pool = PersistentPool(controller, log_segments=8, faults=faults)
        addrs = [pool.alloc() for _ in self.A]
        with pool.transaction() as tx:
            for addr, value in zip(addrs, self.A):
                tx.write(addr, value)
        rule = faults.arm("tx.log", error=CrashError, torn_bytes=n)
        with pytest.raises(CrashError), pool.transaction() as tx:
            for addr, value in zip(addrs, self.B):
                tx.write(addr, value)
        return device, addrs, rule

    def test_torn_at_every_byte(self):
        """A's values are never rolled back; up to byte 8 the flag is
        still down and nothing replays; from byte 9 on exactly B's intact
        records replay — never A's third record, intact right behind B's
        run at the tear after B's last record.  And a tear inside the
        sequence never hands the next transaction a sequence already
        stamped on a record in the log."""
        record = PersistentPool.record_overhead_bytes() + 64
        payload = 16 + 2 * record + 12
        for n in range(payload + 1):
            device, addrs, rule = self.tear_b(n)
            assert rule.payload_len == payload
            recovered = PersistentPool(
                MemoryController(device), log_segments=8, recover=True
            )
            intact = sum(16 + (i + 1) * record <= n for i in range(2))
            assert recovered.recovered_records == (
                0 if n <= LOG_FLAG_AT else intact
            ), n
            assert [recovered.read(a, 64) for a in addrs] == self.A, n
            assert log_active_flag(recovered.controller) == 0, n
            with recovered.transaction() as tx:
                tx.write(addrs[0], b"z" * 64)
            sequence, _ = LOG_HEADER.unpack(
                recovered.controller.read(0, LOG_HEADER.size)
            )
            assert sequence > self.SEQUENCE_A, n

    def test_interrupt_between_payload_rows_lowers_the_flag(self):
        """A non-crash failure after the payload's first row landed (the
        flag is up) but before the rest did: nothing was written in
        place, so the live pool lowers the flag without replaying, and
        the media stays clean for the next transaction."""
        faults = FaultInjector()
        device = NVMDevice(
            capacity_bytes=24 * 64, segment_size=64,
            initial_fill="random", seed=14, faults=faults,
        )
        pool = PersistentPool(MemoryController(device), log_segments=8)
        pool.format()
        addrs = [pool.alloc() for _ in self.A]
        before = [pool.read(a, 64) for a in addrs]
        # The payload's rows are the first programs of the commit.
        faults.arm("device.program", error=KeyboardInterrupt, after=1)
        with pytest.raises(KeyboardInterrupt), pool.transaction() as tx:
            for addr, value in zip(addrs, self.A):
                tx.write(addr, value)
        assert device.peek(LOG_FLAG_AT, 1)[0] == 0
        assert [pool.read(a, 64) for a in addrs] == before
        with pool.transaction() as tx:
            tx.write(addrs[0], b"z" * 64)
        assert pool.read(addrs[0], 64) == b"z" * 64
