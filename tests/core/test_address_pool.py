"""Dynamic Address Pool tests: FIFO semantics, fallback, thread safety."""

import threading

import numpy as np
import pytest

from repro.core.address_pool import DynamicAddressPool, PoolExhaustedError


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicAddressPool(0)

    def test_populate_and_counts(self):
        pool = DynamicAddressPool(3)
        pool.populate([0, 0, 1, 2, 2, 2], [10, 20, 30, 40, 50, 60])
        assert pool.sizes() == {0: 2, 1: 1, 2: 3}
        assert pool.free_count() == 6
        assert pool.min_cluster_free() == 1

    def test_get_is_fifo(self):
        """The paper takes 'the first available address in the cluster'."""
        pool = DynamicAddressPool(2)
        pool.populate([0, 0, 0], [100, 200, 300])
        assert pool.get(0) == 100
        assert pool.get(0) == 200

    def test_add_recycles(self):
        pool = DynamicAddressPool(2)
        pool.add(1, 42)
        assert pool.get(1) == 42

    def test_add_bad_cluster_raises(self):
        with pytest.raises(KeyError):
            DynamicAddressPool(2).add(5, 1)

    def test_exhausted_raises(self):
        pool = DynamicAddressPool(2)
        with pytest.raises(PoolExhaustedError):
            pool.get(0)
        with pytest.raises(PoolExhaustedError):
            pool.get_many([0])

    def test_get_is_get_many_of_one(self):
        """``get`` is a one-entry ``get_many``: same pops, same fallback."""
        centroids = np.array([[0.0, 0.0], [5.0, 5.0], [0.5, 0.5]])
        scalar, batched = DynamicAddressPool(3), DynamicAddressPool(3)
        for pool in (scalar, batched):
            pool.populate([1, 1, 2], [10, 20, 30])
        for cluster in (1, 0, 0):
            assert scalar.get(cluster, centroids=centroids) == (
                batched.get_many([cluster], centroids=centroids)[0]
            )
        assert scalar.sizes() == batched.sizes()

    def test_get_many_exhaustion_is_all_or_nothing(self):
        pool = DynamicAddressPool(2)
        pool.populate([0, 1], [10, 20])
        with pytest.raises(PoolExhaustedError):
            pool.get_many([0, 1, 1])
        assert pool.snapshot() == {0: (10,), 1: (20,)}

    def test_drain_empties_everything(self):
        pool = DynamicAddressPool(2)
        pool.populate([0, 1, 1], [1, 2, 3])
        assert sorted(pool.drain()) == [1, 2, 3]
        assert pool.free_count() == 0


class TestSnapshotRestore:
    def test_snapshot_preserves_order_and_clusters(self):
        pool = DynamicAddressPool(3)
        pool.populate([0, 0, 2], [10, 20, 30])
        assert pool.snapshot() == {0: (10, 20), 1: (), 2: (30,)}

    def test_restore_reinstates_snapshot_exactly(self):
        pool = DynamicAddressPool(3)
        pool.populate([0, 0, 2], [10, 20, 30])
        saved = pool.snapshot()
        pool.drain()
        pool.add(1, 99)  # divergent state to be discarded
        pool.restore(saved)
        assert pool.snapshot() == saved
        assert pool.get(0) == 10  # FIFO order survived the round trip

    def test_snapshot_is_isolated_from_later_mutation(self):
        pool = DynamicAddressPool(2)
        pool.populate([0], [7])
        saved = pool.snapshot()
        pool.get(0)
        assert saved == {0: (7,), 1: ()}


class TestFallback:
    def test_fallback_without_centroids_uses_fullest(self):
        pool = DynamicAddressPool(3)
        pool.populate([1, 1, 2], [10, 20, 30])
        # Cluster 0 is empty; the fullest non-empty is 1.
        assert pool.get(0) == 10

    def test_fallback_with_centroids_uses_nearest(self):
        pool = DynamicAddressPool(3)
        pool.populate([1, 1, 2], [10, 20, 30])
        centroids = np.array([[0.0, 0.0], [5.0, 5.0], [0.5, 0.5]])
        # Cluster 0's nearest neighbour is cluster 2 despite cluster 1 being
        # fuller.
        assert pool.get(0, centroids=centroids) == 30

    def test_fallback_exhaustion(self):
        pool = DynamicAddressPool(2)
        pool.populate([1], [10])
        pool.get(0)
        with pytest.raises(RuntimeError):
            pool.get(0)

    def test_fallback_memo_safe_after_retirement(self):
        """Retiring addresses *between* model swaps must not stale the
        nearest-cluster fallback memo: the memo holds only cluster visit
        order and every candidate's free list is re-read at use time, so a
        freshly retired address can never be popped via fallback."""
        pool = DynamicAddressPool(3)
        pool.populate([1, 1, 2], [10, 20, 30])
        centroids = np.array([[0.0, 0.0], [0.5, 0.5], [5.0, 5.0]])
        # Prime the memo: cluster 0 falls back to its nearest neighbour 1.
        assert pool.get(0, centroids=centroids) == 10
        # Retire the rest of cluster 1 without touching the centroids (the
        # health manager retires mid-epoch; no model swap happens).
        pool.quarantine(20)
        # Same memoised visit order, but cluster 1 is now empty: the
        # fallback must skip to cluster 2, not resurrect address 20.
        assert pool.get(0, centroids=centroids) == 30
        with pytest.raises(RuntimeError):
            pool.get(0, centroids=centroids)

    def test_fallback_never_pops_quarantined_address(self):
        pool = DynamicAddressPool(2)
        pool.populate([1, 1], [10, 20])
        pool.quarantine(10)
        centroids = np.array([[0.0], [1.0]])
        assert pool.get(0, centroids=centroids) == 20

    def test_get_many_fallback_respects_quarantine(self):
        pool = DynamicAddressPool(3)
        pool.populate([1, 1, 2], [10, 20, 30])
        centroids = np.array([[0.0, 0.0], [0.5, 0.5], [5.0, 5.0]])
        pool.quarantine(10)
        # Batch claim hitting empty cluster 0 twice: 20 (nearest), then 30.
        assert pool.get_many([0, 0], centroids=centroids) == [20, 30]


class TestFootprint:
    def test_footprint_scales_with_entries(self):
        small = DynamicAddressPool(4)
        small.populate([0] * 10, range(10))
        large = DynamicAddressPool(4)
        large.populate([0] * 1000, range(1000))
        assert large.memory_footprint_bytes() > small.memory_footprint_bytes()

    def test_footprint_formula(self):
        pool = DynamicAddressPool(2)
        pool.populate([0, 1], [1, 2])
        expected = 2 * pool.BYTES_PER_ENTRY + 2 * pool.BYTES_PER_CLUSTER
        assert pool.memory_footprint_bytes() == expected


class TestThreadSafety:
    def test_concurrent_get_add(self):
        """Hammer the pool from several threads; every address must be
        handed out exactly once per residence in the pool."""
        pool = DynamicAddressPool(4)
        n = 400
        pool.populate([i % 4 for i in range(n)], range(n))
        claimed: list[int] = []
        lock = threading.Lock()

        def worker():
            for _ in range(n // 8):
                try:
                    addr = pool.get(0)
                except RuntimeError:
                    return
                with lock:
                    claimed.append(addr)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claimed) == len(set(claimed))
        assert len(claimed) + pool.free_count() == n
