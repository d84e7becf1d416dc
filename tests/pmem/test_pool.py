"""Persistent pool and transaction tests."""

import pytest

from repro.nvm import MemoryController, NVMDevice
from repro.pmem import PersistentPool


def make_pool(n_segments=16, log_segments=2, seed=0):
    dev = NVMDevice(
        capacity_bytes=n_segments * 64,
        segment_size=64,
        initial_fill="random",
        seed=seed,
    )
    return PersistentPool(MemoryController(dev), log_segments=log_segments), dev


class TestAllocator:
    def test_capacity_excludes_log(self):
        pool, _ = make_pool(n_segments=16, log_segments=2)
        assert pool.capacity_objects == 14

    def test_alloc_free_cycle(self):
        pool, _ = make_pool()
        addr = pool.alloc()
        pool.free(addr)
        assert pool.alloc() is not None

    def test_alloc_exhaustion(self):
        pool, _ = make_pool(n_segments=4, log_segments=2)
        pool.alloc()
        pool.alloc()
        with pytest.raises(RuntimeError):
            pool.alloc()

    def test_double_free_raises(self):
        pool, _ = make_pool()
        addr = pool.alloc()
        pool.free(addr)
        with pytest.raises(KeyError, match="double free"):
            pool.free(addr)

    def test_free_rejects_log_region_address(self):
        pool, _ = make_pool(log_segments=2)
        with pytest.raises(ValueError, match="log"):
            pool.free(64)  # inside the 2-segment log region

    def test_free_rejects_metadata_region_address(self):
        dev = NVMDevice(
            capacity_bytes=16 * 64, segment_size=64,
            initial_fill="random", seed=0,
        )
        pool = PersistentPool(
            MemoryController(dev), log_segments=2, meta_segments=2
        )
        with pytest.raises(ValueError, match="metadata"):
            pool.free(3 * 64)

    def test_free_rejects_unaligned_address(self):
        pool, _ = make_pool()
        addr = pool.alloc()
        with pytest.raises(ValueError, match="segment-aligned"):
            pool.free(addr + 1)

    def test_free_never_allocated_object_address(self):
        pool, _ = make_pool()
        free_addr = pool.free_addresses()[0]
        with pytest.raises(KeyError, match="already free"):
            pool.free(free_addr)

    def test_mark_allocated_is_idempotent_and_validated(self):
        pool, _ = make_pool()
        addr = pool.alloc()
        pool.mark_allocated(addr)  # already allocated: no-op
        assert addr in pool.allocated_addresses()
        free_addr = pool.free_addresses()[0]
        pool.mark_allocated(free_addr)
        assert free_addr in pool.allocated_addresses()
        assert free_addr not in pool.free_addresses()
        with pytest.raises(KeyError):
            pool.mark_allocated(3)  # not a pool segment

    def test_mark_allocated_many_is_fast_path(self):
        """O(1) per call: re-registering every segment of a larger pool
        must not degrade (the old implementation rebuilt a list per call)."""
        pool, _ = make_pool(n_segments=256, log_segments=2)
        for addr in list(pool.free_addresses()):
            pool.mark_allocated(addr)
        assert pool.free_addresses() == []
        assert len(pool.allocated_addresses()) == pool.capacity_objects

    def test_allocations_avoid_log_region(self):
        pool, _ = make_pool(log_segments=3)
        for _ in range(pool.capacity_objects):
            assert pool.alloc() >= 3 * 64

    def test_validation(self):
        dev = NVMDevice(capacity_bytes=128, segment_size=64)
        with pytest.raises(ValueError):
            PersistentPool(MemoryController(dev), log_segments=2)


class TestTransactions:
    def test_commit_persists(self):
        pool, _ = make_pool()
        addr = pool.alloc()
        with pool.transaction() as tx:
            tx.write(addr, b"A" * 64)
        assert pool.read(addr, 64) == b"A" * 64

    def test_exception_rolls_back(self):
        pool, _ = make_pool()
        addr = pool.alloc()
        pool.write(addr, b"X" * 64)
        with pytest.raises(ValueError):
            with pool.transaction() as tx:
                tx.write(addr, b"Y" * 64)
                raise ValueError("boom")
        assert pool.read(addr, 64) == b"X" * 64

    def test_explicit_abort_is_swallowed(self):
        pool, _ = make_pool()
        addr = pool.alloc()
        pool.write(addr, b"X" * 64)
        with pool.transaction() as tx:
            tx.write(addr, b"Y" * 64)
            tx.abort()
        assert pool.read(addr, 64) == b"X" * 64

    def test_multi_write_rollback_order(self):
        pool, _ = make_pool(n_segments=16, log_segments=6)
        a, b = pool.alloc(), pool.alloc()
        pool.write(a, b"1" * 64)
        pool.write(b, b"2" * 64)
        with pool.transaction() as tx:
            tx.write(a, b"3" * 64)
            tx.write(b, b"4" * 64)
            tx.write(a, b"5" * 64)  # second write to the same address
            tx.abort()
        assert pool.read(a, 64) == b"1" * 64
        assert pool.read(b, 64) == b"2" * 64

    def test_write_outside_transaction_raises(self):
        pool, _ = make_pool()
        tx = pool.transaction()
        with pytest.raises(RuntimeError):
            tx.write(pool.alloc(), b"x")

    def test_undo_log_traffic_is_accounted(self):
        """Transactional writes must cost more than raw writes (log traffic),
        which is how PMDK overhead appears in Figure 1."""
        pool_tx, dev_tx = make_pool(seed=5)
        pool_raw, dev_raw = make_pool(seed=5)
        addr_tx = pool_tx.alloc()
        addr_raw = pool_raw.alloc()
        payload = b"Z" * 64
        with pool_tx.transaction() as tx:
            tx.write(addr_tx, payload)
        pool_raw.write(addr_raw, payload)
        assert dev_tx.stats.writes > dev_raw.stats.writes
        assert dev_tx.stats.write_energy_pj > dev_raw.stats.write_energy_pj

    def test_log_reused_across_transactions(self):
        """Each transaction restarts the per-tx undo log (PMDK style)."""
        pool, _ = make_pool(n_segments=8, log_segments=2)
        addr = pool.alloc()
        for i in range(20):
            with pool.transaction() as tx:
                tx.write(addr, bytes([i]) * 64)
        assert pool.read(addr, 64) == bytes([19]) * 64

    def test_oversized_transaction_raises(self):
        """A transaction bigger than the log region is rejected upfront."""
        pool, _ = make_pool(n_segments=8, log_segments=2)
        addrs = [pool.alloc() for _ in range(4)]
        with pytest.raises(RuntimeError):
            with pool.transaction() as tx:
                for addr in addrs:
                    tx.write(addr, b"Z" * 64)  # 4x(16+64+5) > 112 B of log

    def test_failed_commit_leaves_previous_transaction_committed(self):
        """A commit that fails before its header goes up (here: a staged
        write crossing a segment boundary) must not replay the log — it
        still holds the *previous* transaction's undo records."""
        pool, _ = make_pool(n_segments=16, log_segments=6)
        addr = pool.alloc()
        with pool.transaction() as tx:
            tx.write(addr, b"1" * 64)
        with pytest.raises(ValueError, match="segment boundary"):
            with pool.transaction() as tx:
                tx.write(addr, b"2" * 64)
                tx.write(addr + 32, b"x" * 64)
        assert pool.read(addr, 64) == b"1" * 64
        with pool.transaction() as tx:  # the pool stays usable
            tx.write(addr, b"3" * 64)
        assert pool.read(addr, 64) == b"3" * 64

    def test_writes_are_staged_until_commit(self):
        pool, dev = make_pool()
        addr = pool.alloc()
        pool.write(addr, b"X" * 64)
        writes = dev.stats.writes
        with pool.transaction() as tx:
            tx.write(addr, b"Y" * 64)
            assert pool.read(addr, 64) == b"X" * 64
            assert dev.stats.writes == writes  # nothing on the media yet
        assert pool.read(addr, 64) == b"Y" * 64

    def test_nested_transaction_raises(self):
        """The undo log holds one transaction; nesting must fail loudly
        instead of silently resetting the first transaction's records."""
        pool, _ = make_pool()
        addr = pool.alloc()
        pool.write(addr, b"X" * 64)
        with pool.transaction() as tx:
            tx.write(addr, b"Y" * 64)
            with pytest.raises(RuntimeError, match="already active"):
                pool.transaction().__enter__()
        # The outer transaction still committed intact.
        assert pool.read(addr, 64) == b"Y" * 64

    def test_transaction_object_reuse_raises(self):
        pool, _ = make_pool()
        addr = pool.alloc()
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
        addr = pool.alloc()
        tx = pool.transaction()
        with tx:
            tx.write(addr, b"A" * 64)
            tx.abort()
        with pytest.raises(RuntimeError, match="single-use"):
            tx.__enter__()
        # And a fresh transaction works after the rollback.
        with pool.transaction() as tx2:
            tx2.write(addr, b"B" * 64)
        assert pool.read(addr, 64) == b"B" * 64
