"""The cluster-to-memory Dynamic Address Pool (DAP, §3.3.1).

A mapping from cluster id to the free memory addresses whose current content
belongs to that cluster.  PUT pops the *first* available address of the
predicted cluster (the paper's deliberate first-fit choice); DELETE recycles
addresses back into the pool.  All mutation is lock-protected — the paper
notes E2-NVM "utilize[s] thread-safe methods ... to maintain address pools
and mapping" (§5.1).
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np


class PoolExhaustedError(RuntimeError):
    """Every cluster's free list is empty (and no fallback exists)."""


class DynamicAddressPool:
    """Per-cluster FIFO free lists of segment addresses.

    Addresses can additionally be *quarantined* (retired or retiring
    segments, reserved spares): a quarantined address is removed from its
    free list, refused by :meth:`add`, and survives the pool rebuilds a
    retrain or recovery performs — callers carry the set across with
    :meth:`adopt_quarantine`.
    """

    #: DRAM bytes per pool entry (an 8-byte address plus list overhead),
    #: used for the Figure 7 footprint accounting.
    BYTES_PER_ENTRY = 16
    #: Fixed DRAM bytes per cluster bucket.
    BYTES_PER_CLUSTER = 64

    def __init__(self, n_clusters: int) -> None:
        if n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        self.n_clusters = n_clusters
        self._pools: dict[int, deque[int]] = {
            c: deque() for c in range(n_clusters)
        }
        self._quarantined: set[int] = set()
        self._lock = threading.Lock()
        # Nearest-neighbour fallback cache: per-cluster centroid-distance
        # order, memoised on the centroids array identity.  A model swap
        # installs a new centroids array, which invalidates this naturally.
        self._cached_centroids: np.ndarray | None = None
        self._neighbor_order: np.ndarray | None = None

    def populate(self, labels, addresses) -> None:
        """Append each address to its cluster's free list (initialisation,
        relabelling, recycling) under one lock acquisition.

        Raises:
            KeyError: when a label is not a cluster of this pool.
            ValueError: when an address is quarantined (retired segments
                must never re-enter the free lists; recycle those through
                :meth:`quarantine`-aware callers).
        """
        with self._lock:
            for label, addr in zip(labels, addresses):
                addr = int(addr)
                if addr in self._quarantined:
                    raise ValueError(
                        f"address {addr} is quarantined and cannot be pooled"
                    )
                self._pools[int(label)].append(addr)

    def get(self, cluster: int, centroids: np.ndarray | None = None) -> int:
        """Pop the first free address of ``cluster``: a one-entry
        :meth:`get_many` (same fallback, same :class:`PoolExhaustedError`).
        """
        return self.get_many([cluster], centroids)[0]

    def get_many(
        self, clusters, centroids: np.ndarray | None = None
    ) -> list[int]:
        """Pop the first free address of each entry of ``clusters`` under
        a single lock acquisition (the write path's claim step).

        When an entry's cluster is empty and ``centroids`` are given, falls
        back to the nearest non-empty cluster by centroid distance; without
        centroids, falls back to the fullest non-empty cluster.

        Raises:
            PoolExhaustedError: when every cluster is empty.  All-or-
                nothing: every address popped so far is pushed back (in
                order) first, so pool accounting stays exact.
        """
        with self._lock:
            popped: list[tuple[int, int]] = []
            out: list[int] = []
            for cluster in clusters:
                cluster = int(cluster)
                pool = self._pools[cluster]
                if not pool:
                    fallback = self._fallback_cluster(cluster, centroids)
                    if fallback is None:
                        for source, addr in reversed(popped):
                            self._pools[source].appendleft(addr)
                        raise PoolExhaustedError(
                            "dynamic address pool is exhausted"
                        )
                    cluster = fallback
                    pool = self._pools[cluster]
                addr = pool.popleft()
                popped.append((cluster, addr))
                out.append(addr)
            return out

    def add(self, cluster: int, addr: int) -> None:
        """Recycle ``addr`` into ``cluster`` (the DELETE path): a one-pair
        :meth:`populate`, ``KeyError`` on an unknown cluster included."""
        self.populate([cluster], [addr])

    def take(self, addr: int) -> bool:
        """Claim a *specific* free address, removing it from whichever
        cluster's free list holds it (directed placement: the compactor's
        static wear-leveling swaps target the most-worn free segment).

        Returns False — without mutating anything — when the address is
        quarantined or not currently free.
        """
        addr = int(addr)
        with self._lock:
            if addr in self._quarantined:
                return False
            for pool in self._pools.values():
                try:
                    pool.remove(addr)
                    return True
                except ValueError:
                    continue
            return False

    # ------------------------------------------------------------ quarantine

    def quarantine(self, addr: int) -> None:
        """Bar ``addr`` from placement: drop it from any free list and
        refuse future :meth:`add`/:meth:`populate` calls for it.

        Used for retired/retiring segments and reserved spares.  Idempotent;
        composes with batch claims (a quarantined address simply is not in
        any pool) and with the nearest-cluster fallback.
        """
        addr = int(addr)
        with self._lock:
            self._quarantined.add(addr)
            for pool in self._pools.values():
                try:
                    pool.remove(addr)
                    break
                except ValueError:
                    continue

    def unquarantine(self, addr: int) -> None:
        """Lift the bar on ``addr`` (spare activation).  The caller re-pools
        it explicitly (e.g. ``E2NVM.add_addresses``); this only re-permits
        :meth:`add`/:meth:`populate`."""
        with self._lock:
            self._quarantined.discard(int(addr))

    def quarantined(self) -> set[int]:
        """Snapshot of every quarantined address."""
        with self._lock:
            return set(self._quarantined)

    def adopt_quarantine(self, addrs) -> None:
        """Carry a quarantine set into this (fresh) pool — retrains and
        recovery rebuild the DAP wholesale and must not lose it."""
        with self._lock:
            self._quarantined.update(int(a) for a in addrs)

    def drain(self) -> list[int]:
        """Remove and return every free address (used before a retrain)."""
        with self._lock:
            addrs = [a for pool in self._pools.values() for a in pool]
            for pool in self._pools.values():
                pool.clear()
            return addrs

    def snapshot_addresses(self) -> list[int]:
        """Every free address, without removing anything (for background
        retraining snapshots)."""
        with self._lock:
            return [a for pool in self._pools.values() for a in pool]

    def snapshot(self) -> dict[int, tuple[int, ...]]:
        """Exact per-cluster contents, in order (transactional retrains
        capture this before mutating and :meth:`restore` it on failure)."""
        with self._lock:
            return {c: tuple(pool) for c, pool in self._pools.items()}

    def restore(self, snapshot: dict[int, tuple[int, ...]]) -> None:
        """Reinstate a :meth:`snapshot` exactly, discarding current state."""
        with self._lock:
            for c in self._pools:
                self._pools[c] = deque(snapshot.get(c, ()))

    def free_count(self) -> int:
        """Total free addresses across all clusters."""
        with self._lock:
            return sum(len(pool) for pool in self._pools.values())

    def min_cluster_free(self) -> int:
        """Smallest per-cluster free count (drives the retrain trigger)."""
        with self._lock:
            return min(len(pool) for pool in self._pools.values())

    def sizes(self) -> dict[int, int]:
        """Free addresses per cluster."""
        with self._lock:
            return {c: len(pool) for c, pool in self._pools.items()}

    def memory_footprint_bytes(self) -> int:
        """Estimated DRAM footprint of the pool (Figure 7)."""
        return (
            self.free_count() * self.BYTES_PER_ENTRY
            + self.n_clusters * self.BYTES_PER_CLUSTER
        )

    def _fallback_cluster(
        self, cluster: int, centroids: np.ndarray | None
    ) -> int | None:
        if centroids is None:
            non_empty = [c for c, pool in self._pools.items() if pool]
            if not non_empty:
                return None
            return max(non_empty, key=lambda c: len(self._pools[c]))
        # O(k) walk over the cached nearest-centroid order instead of an
        # O(k * d) distance computation on every empty-cluster miss.
        #
        # Retirement-safety: the memo stores only the *cluster* visit
        # order, never addresses, and each candidate's free list is
        # re-checked here at use time under the pool lock.  A segment the
        # health manager retires between model swaps is removed from its
        # free list by ``quarantine()`` (same lock), so the fallback can
        # observe an emptied cluster but can never pop a retired address —
        # no invalidation of the memo is needed.
        for candidate in self._neighbor_order_for(centroids)[cluster]:
            if self._pools[int(candidate)]:
                return int(candidate)
        return None

    def _neighbor_order_for(self, centroids: np.ndarray) -> np.ndarray:
        """Per-cluster centroid indices sorted by squared distance.

        Memoised on the centroids array object: a trained model's centroid
        array is stable, and a swap replaces it wholesale.  Ties break on
        the lower cluster index (stable argsort), matching the previous
        linear-scan ``min``.
        """
        if (
            self._neighbor_order is None
            or self._cached_centroids is not centroids
        ):
            diffs = centroids[:, None, :] - centroids[None, :, :]
            sq = np.einsum("ijk,ijk->ij", diffs, diffs)
            self._neighbor_order = np.argsort(sq, axis=1, kind="stable")
            self._cached_centroids = centroids
        return self._neighbor_order
