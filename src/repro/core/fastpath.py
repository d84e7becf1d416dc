"""Memo-cache fast placement in front of the VAE+K-means teacher.

The encoder forward pass dominates the hot write path (~hundreds of µs per
prediction), yet skewed traffic (YCSB / Zipfian) re-writes the same values
constantly and the placer only *needs* the full model when content is
novel.  A **value → cluster memo cache** — a bounded LRU keyed on the
value's bytes (raw bit arrays bypass it) — sits in front of
:class:`~repro.core.pipeline.EncoderPipeline` and is consulted before any
matmul; a miss goes to the teacher, whose answer is memoised.

The cache is **epoch-scoped**: the engine bumps ``_model_epoch`` under its
swap lock whenever a new model/pool pair is installed, and
:meth:`FastPlacementLayer.install` (called at the same point) wholesale
invalidates the cache.  A lookup or insert carrying a stale epoch is
refused, so a mid-flight model swap can never place with a stale cluster
map — the engine's epoch re-validation then retries against the new model.

Correctness note: the cache only ever short-circuits the *cluster
prediction*.  The address claim still goes through the Dynamic Address
Pool, whose free lists never contain quarantined (retired/retiring/spare)
addresses — so cached placements respect health-manager quarantine and
wear-out retirement exactly like teacher-served ones.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

class PlacementCache:
    """Bounded LRU mapping values (their ``bytes``) to cluster ids.

    All entries belong to one model epoch; :meth:`invalidate` clears the
    cache wholesale when a new model is installed.  Telemetry counters
    (hits/misses/evictions/invalidations) are cumulative across epochs.
    Callers serialise access (the owning :class:`FastPlacementLayer` holds
    its lock around every call).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key) -> int | None:
        """Cluster id for ``key``, refreshing its LRU position; ``None``
        (a counted miss) when absent."""
        cluster = self._entries.get(key)
        if cluster is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return cluster

    def insert(self, key, cluster: int) -> None:
        """Memoise ``key`` → ``cluster``, evicting the LRU entry at capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = int(cluster)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = int(cluster)

    def invalidate(self) -> None:
        """Drop every entry (model swap: all memoised clusters are stale)."""
        if self._entries:
            self._entries.clear()
        self.invalidations += 1


class FastPlacementLayer:
    """Cache tier + teacher fallback, with epoch scoping.

    Args:
        cache_size: memo-cache capacity; 0 disables the cache tier.

    The layer is thread-safe: a single lock guards the cache and the
    installed epoch, held only for dictionary operations — never across a
    teacher forward pass.
    """

    def __init__(self, cache_size: int = 0) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.cache = PlacementCache(cache_size) if cache_size else None
        self._epoch: int | None = None
        self._lock = threading.Lock()
        # Telemetry: how many predictions the teacher served.
        self.teacher_served = 0

    # ------------------------------------------------------------- lifecycle

    def install(self, epoch: int) -> None:
        """Adopt a new model epoch: wholesale-invalidate the memo cache.
        The engine calls this under its swap lock at the same point it
        bumps ``_model_epoch``, so entries from the old model can never
        serve the new pool."""
        with self._lock:
            self._epoch = epoch
            if self.cache is not None:
                self.cache.invalidate()

    # ------------------------------------------------------------ prediction

    def predict(self, values, pipeline, epoch: int) -> np.ndarray:
        """Cluster ids for ``values``, consulting cache → teacher.

        ``epoch`` is the model epoch the caller captured with ``pipeline``;
        cache lookups and inserts are refused when it disagrees with the
        installed epoch (a swap landed), in which case everything falls
        through to the teacher and the caller's own epoch re-validation
        retries the placement.
        """
        n = len(values)
        clusters = np.empty(n, dtype=np.int64)
        pending = list(range(n))
        keys = [  # ``bytes(v)`` is ``v`` itself for a bytes object
            bytes(v) if isinstance(v, (bytes, bytearray, memoryview)) else None
            for v in values
        ]

        if self.cache is not None:
            with self._lock:
                if self._epoch == epoch:
                    still = []
                    for i in pending:
                        key = keys[i]
                        hit = None if key is None else self.cache.lookup(key)
                        if hit is None:
                            still.append(i)
                        else:
                            clusters[i] = hit
                    pending = still

        if pending:
            teacher = pipeline.predict_batch([values[i] for i in pending])
            for i, cluster in zip(pending, teacher):
                clusters[i] = cluster
            with self._lock:
                self.teacher_served += len(pending)
                # A swap that landed mid-prediction makes these labels
                # stale: drop them instead of poisoning the fresh epoch's
                # cache.
                if self.cache is not None and self._epoch == epoch:
                    for i in pending:
                        if keys[i] is not None:
                            self.cache.insert(keys[i], int(clusters[i]))
        return clusters

    # ------------------------------------------------------------- telemetry

    def stats(self) -> dict:
        """Counter snapshot (benchmark/monitoring reporting): every value
        sums across shards.  ``student_served`` is a constant 0: the
        frozen end-to-end benchmark (``benchmarks/e2e/run.py``) still reads
        it, until its next change (ROADMAP item 8) drops the key."""
        # NB: ``is None`` checks, never truthiness — an empty cache has
        # ``len() == 0`` and would read as absent right after an
        # invalidation, zeroing every cache counter in the report.
        cache = self.cache
        with self._lock:
            out = {
                "cache_hits": cache.hits if cache is not None else 0,
                "cache_misses": cache.misses if cache is not None else 0,
                "cache_evictions": (
                    cache.evictions if cache is not None else 0
                ),
                "cache_invalidations": (
                    cache.invalidations if cache is not None else 0
                ),
                "cache_entries": len(cache) if cache is not None else 0,
                "cache_capacity": cache.capacity if cache is not None else 0,
                "student_served": 0,
                "teacher_served": self.teacher_served,
            }
        return out
