"""Memo-cache fast placement in front of the VAE+K-means teacher.

The encoder forward pass dominates the hot write path (~hundreds of µs per
prediction), yet skewed traffic (YCSB / Zipfian) re-writes the same values
constantly and the placer only *needs* the full model when content is
novel.  A **content-fingerprint → cluster memo cache** — a bounded LRU
keyed on a cheap stable hash of the value bytes — sits in front of
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
import zlib
from collections import OrderedDict

import numpy as np


def fingerprint(value) -> tuple[int, int, int] | None:
    """Cheap stable content fingerprint of a bytes-like value.

    CRC32 and Adler32 are independent single-pass checksums; combined with
    the length they form a ~64-bit key whose collision odds are negligible
    at cache scale.  Non-bytes inputs (raw bit arrays) are not fingerprinted
    — they bypass the cache and go straight to the teacher.
    """
    if not isinstance(value, (bytes, bytearray, memoryview)):
        return None
    buf = bytes(value)
    return (len(buf), zlib.crc32(buf), zlib.adler32(buf))


class PlacementCache:
    """Bounded LRU mapping content fingerprints to cluster ids.

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

    def predict(
        self,
        values,
        pipeline,
        epoch: int,
        memory_ones_fraction: float | None = None,
    ) -> np.ndarray:
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
        keys = [fingerprint(v) for v in values]

        if self.cache is not None:
            with self._lock:
                if self._epoch == epoch:
                    still = []
                    for i in pending:
                        hit = (
                            self.cache.lookup(keys[i])
                            if keys[i] is not None
                            else None
                        )
                        if hit is None:
                            still.append(i)
                        else:
                            clusters[i] = hit
                    pending = still

        if pending:
            teacher = pipeline.predict_batch(
                [values[i] for i in pending],
                memory_ones_fraction=memory_ones_fraction,
            )
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
