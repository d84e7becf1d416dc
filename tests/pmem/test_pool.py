"""Persistent pool and commit-group (transaction) tests."""

import pytest

from repro.core import E2NVM
from repro.core.config import fast_test_config
from repro.nvm import MemoryController, NVMDevice
from repro.pmem import PersistentPool
from repro.testing import FaultError, FaultInjector


def make_pool(n_segments=16, meta_segments=2, seed=0):
    dev = NVMDevice(
        capacity_bytes=n_segments * 64,
        segment_size=64,
        initial_fill="random",
        seed=seed,
    )
    pool = PersistentPool(MemoryController(dev), meta_segments=meta_segments)
    return pool, dev


def make_ledger(n_segments=16, meta_segments=2, seed=0, live=()):
    """A pool and the engine that hands out its object segments, wired as
    ``KVStore.format`` wires them; ``live`` segments are re-registered
    the way recovery does (left out of training, then marked allocated)."""
    pool, _ = make_pool(n_segments, meta_segments, seed)
    engine = E2NVM(
        pool.controller,
        fast_test_config(n_clusters=2),
        reserved_segments=pool.meta_segments,
    )
    engine.train(
        addresses=[a for a in engine.free_addresses() if a not in live]
    )
    for addr in live:
        engine.mark_allocated(addr)
    return pool, engine


class TestAllocator:
    """The object segments the pool numbers — how many, and where — and
    the engine ledger that hands them out."""

    def test_capacity_excludes_metadata(self):
        pool, _ = make_pool(n_segments=16, meta_segments=2)
        assert pool.capacity_objects == 14

    def test_alloc_free_cycle(self):
        pool, engine = make_ledger()
        addr = engine.place(b"v" * 64)
        assert engine.is_allocated(addr)
        engine.release(addr)
        assert not engine.is_allocated(addr)
        again = engine.place(b"v" * 64)
        assert again >= pool.object_address(0)

    def test_alloc_exhaustion(self):
        pool, engine = make_ledger(n_segments=4, meta_segments=2)
        handed = {engine.place(b"v" * 64), engine.place(b"w" * 64)}
        assert handed == {pool.object_address(0), pool.object_address(1)}
        with pytest.raises(RuntimeError):
            engine.place(b"x" * 64)
        assert engine.allocated_count == 2

    def test_free_rejects_metadata_region_address(self):
        _, engine = make_ledger(meta_segments=2)
        for addr in (0, 64):
            with pytest.raises(KeyError, match="not allocated"):
                engine.release(addr)
            with pytest.raises(ValueError, match="reserved"):
                engine.mark_allocated(addr)

    def test_free_rejects_unaligned_address(self):
        _, engine = make_ledger()
        addr = engine.place(b"v" * 64)
        with pytest.raises(KeyError, match="not allocated"):
            engine.release(addr + 1)
        with pytest.raises(ValueError, match="segment-aligned"):
            engine.mark_allocated(addr + 1)
        assert engine.is_allocated(addr)

    def test_free_never_allocated_object_address(self):
        _, engine = make_ledger()
        free_addr = engine.free_addresses()[0]
        with pytest.raises(KeyError, match="not allocated"):
            engine.release(free_addr)
        assert free_addr in engine.free_addresses()

    def test_mark_allocated_is_idempotent_and_validated(self):
        live = 5 * 64
        pool, engine = make_ledger(live=[live])
        assert engine.is_allocated(live)
        assert live not in engine.free_addresses()
        count = engine.allocated_count
        engine.mark_allocated(live)  # already live: no-op
        assert engine.allocated_count == count
        addr = engine.place(b"v" * 64)
        engine.mark_allocated(addr)
        assert engine.allocated_count == count + 1
        with pytest.raises(ValueError):
            engine.mark_allocated(3)  # not a segment address
        assert pool.object_index(live) == 3

    def test_allocations_avoid_metadata_region(self):
        pool, _ = make_pool(meta_segments=3)
        for i in range(pool.capacity_objects):
            addr = pool.object_address(i)
            assert addr >= 3 * 64
            assert pool.object_index(addr) == i

    def test_validation(self):
        dev = NVMDevice(capacity_bytes=128, segment_size=64)
        with pytest.raises(ValueError):
            PersistentPool(MemoryController(dev), meta_segments=2)
        with pytest.raises(ValueError):
            PersistentPool(MemoryController(dev), meta_segments=-1)


class TestTransactions:
    def test_commit_persists(self):
        pool, _ = make_pool()
        addr = pool.object_address(0)
        with pool.transaction() as tx:
            tx.write(addr, b"A" * 64)
        assert pool.read(addr, 64) == b"A" * 64

    def test_exception_rolls_back(self):
        pool, _ = make_pool()
        addr = pool.object_address(0)
        pool.write(addr, b"X" * 64)
        with pytest.raises(ValueError):
            with pool.transaction() as tx:
                tx.write(addr, b"Y" * 64)
                raise ValueError("boom")
        assert pool.read(addr, 64) == b"X" * 64

    def test_multi_write_rollback_order(self):
        pool, _ = make_pool(n_segments=16)
        a, b = pool.object_address(0), pool.object_address(1)
        pool.write(a, b"1" * 64)
        pool.write(b, b"2" * 64)
        with pytest.raises(ValueError):
            with pool.transaction() as tx:
                tx.write(a, b"3" * 64)
                tx.write(b, b"4" * 64)
                tx.write(a, b"5" * 64)  # second write to the same address
                raise ValueError("roll back")
        assert pool.read(a, 64) == b"1" * 64
        assert pool.read(b, 64) == b"2" * 64

    def test_write_outside_transaction_raises(self):
        pool, _ = make_pool()
        tx = pool.transaction()
        with pytest.raises(RuntimeError):
            tx.write(pool.object_address(0), b"x")

    def test_commit_costs_only_the_staged_writes(self):
        """No log: a transactional write costs the device exactly what
        the same raw write does (Figure 1's overwrite pays no log)."""
        pool_tx, dev_tx = make_pool(seed=5)
        pool_raw, dev_raw = make_pool(seed=5)
        addr_tx = pool_tx.object_address(0)
        addr_raw = pool_raw.object_address(0)
        payload = b"Z" * 64
        with pool_tx.transaction() as tx:
            tx.write(addr_tx, payload)
        pool_raw.write(addr_raw, payload)
        assert dev_tx.stats == dev_raw.stats

    def test_sequential_transactions_commit_in_order(self):
        pool, _ = make_pool(n_segments=8)
        addr = pool.object_address(0)
        for i in range(20):
            with pool.transaction() as tx:
                tx.write(addr, bytes([i]) * 64)
        assert pool.read(addr, 64) == bytes([19]) * 64

    def test_large_transaction_is_one_batched_write(self):
        """No log to fill: a commit group of any size lands in one
        ``write_many`` — one device write per row, nothing else."""
        pool, dev = make_pool(n_segments=16)
        addrs = [pool.object_address(i) for i in range(12)]
        before = dev.stats.snapshot()
        with pool.transaction() as tx:
            for i, addr in enumerate(addrs):
                tx.write(addr, bytes([i]) * 64)
        assert (dev.stats - before).writes == 12
        for i, addr in enumerate(addrs):
            assert pool.read(addr, 64) == bytes([i]) * 64

    def test_commit_fires_its_site_per_row_in_write_order(self):
        """Rows fire in the order ``write_many`` programs them (passes by
        length, first-seen length first), and a torn firing of one lands
        the rows before it plus a prefix of its own."""
        pool, _ = make_pool(n_segments=16)
        a, b, c = (pool.object_address(i) for i in range(3))
        for addr in (a, b, c):
            pool.write(addr, bytes(64))
        pool.faults = FaultInjector()
        pool.faults.arm(
            "catalog.write", error=FaultError, after=1, torn_bytes=4
        )
        with pytest.raises(FaultError):
            with pool.transaction() as tx:
                tx.write(a, b"A" * 32)
                tx.write(b, b"B" * 16)
                tx.write(c, b"C" * 32)
        # Pass order a, c (32 B), then b: a landed, c torn at 4 bytes.
        assert pool.faults.hits("catalog.write") == 2
        assert pool.read(a, 32) == b"A" * 32
        assert pool.read(c, 8) == b"CCCC" + bytes(4)
        assert pool.read(b, 16) == bytes(16)

    def test_passes_are_the_order_write_many_programs(self):
        """``controller.passes`` — the order the commit's site fires in —
        is the order ``write_many`` puts rows on the device."""
        pool, dev = make_pool(n_segments=16)
        addrs = [pool.object_address(i) for i in range(5)]
        data = [b"A" * 32, b"B" * 16, b"C" * 32, b"D" * 8, b"E" * 16]
        programmed = []
        program, program_many = dev.program, dev.program_many

        def one(addr, *args, **kwargs):
            programmed.append(int(addr))
            return program(addr, *args, **kwargs)

        def many(phys, *args, **kwargs):
            programmed.extend(int(a) for a in phys)
            return program_many(phys, *args, **kwargs)

        dev.program, dev.program_many = one, many
        pool.controller.write_many(addrs, data)
        passes = pool.controller.passes(addrs, [len(d) for d in data])
        assert programmed == [addrs[i] for rows in passes for i in rows]
        assert programmed == [addrs[i] for i in (0, 2, 1, 4, 3)]

    def test_failed_commit_leaves_previous_transaction_committed(self):
        """A commit whose only staged write crosses a segment boundary is
        refused before anything lands: the previous transaction's
        content stays, and the pool stays usable."""
        pool, _ = make_pool(n_segments=16)
        addr = pool.object_address(0)
        with pool.transaction() as tx:
            tx.write(addr, b"1" * 64)
        with pytest.raises(ValueError, match="segment boundary"):
            with pool.transaction() as tx:
                tx.write(addr + 32, b"x" * 64)
        assert pool.read(addr, 64) == b"1" * 64
        with pool.transaction() as tx:  # the pool stays usable
            tx.write(addr, b"3" * 64)
        assert pool.read(addr, 64) == b"3" * 64

    def test_writes_are_staged_until_commit(self):
        pool, dev = make_pool()
        addr = pool.object_address(0)
        pool.write(addr, b"X" * 64)
        writes = dev.stats.writes
        with pool.transaction() as tx:
            tx.write(addr, b"Y" * 64)
            assert pool.read(addr, 64) == b"X" * 64
            assert dev.stats.writes == writes  # nothing on the media yet
        assert pool.read(addr, 64) == b"Y" * 64

    def test_transaction_object_reuse_raises(self):
        pool, _ = make_pool()
        addr = pool.object_address(0)
        tx = pool.transaction()
        with tx:
            tx.write(addr, b"A" * 64)
        with pytest.raises(RuntimeError, match="single-use"):
            tx.__enter__()

    def test_reentering_active_transaction_raises(self):
        pool, _ = make_pool()
        tx = pool.transaction()
        tx.__enter__()
        with pytest.raises(RuntimeError, match="already active"):
            tx.__enter__()

    def test_rolled_back_transaction_is_also_single_use(self):
        pool, _ = make_pool()
        addr = pool.object_address(0)
        tx = pool.transaction()
        with pytest.raises(ValueError):
            with tx:
                tx.write(addr, b"A" * 64)
                raise ValueError("roll back")
        with pytest.raises(RuntimeError, match="single-use"):
            tx.__enter__()
        # And a fresh transaction works after the rollback.
        with pool.transaction() as tx2:
            tx2.write(addr, b"B" * 64)
        assert pool.read(addr, 64) == b"B" * 64
