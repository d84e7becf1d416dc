"""Two-tier fast placement in front of the VAE+K-means teacher.

The encoder forward pass dominates the hot write path (~hundreds of µs per
prediction), yet skewed traffic (YCSB / Zipfian) re-writes similar values
constantly and the placer only *needs* the full model when content is
novel.  Two cheap tiers sit in front of :class:`~repro.core.pipeline
.EncoderPipeline`:

1. a **content-fingerprint → cluster memo cache** — a bounded LRU keyed on
   a cheap stable hash of the value bytes, consulted before any matmul;
2. a **distilled student placer** (:class:`repro.ml.student.StudentPlacer`)
   — a logistic head over raw byte histograms trained from the teacher at
   every (re)train, serving cache-miss predictions whose softmax confidence
   clears a threshold and deferring to the teacher otherwise.

Both tiers are **epoch-scoped**: the engine bumps ``_model_epoch`` under
its swap lock whenever a new model/pool pair is installed, and
:meth:`FastPlacementLayer.install` (called at the same point) wholesale
invalidates the cache and replaces the student.  A lookup or insert carrying
a stale epoch is refused, so a mid-flight model swap can never place with a
stale cluster map — the engine's epoch re-validation then retries against
the new model.

Correctness note: both tiers only ever short-circuit the *cluster
prediction*.  The address claim still goes through the Dynamic Address
Pool, whose free lists never contain quarantined (retired/retiring/spare)
addresses — so cached and student-served placements respect health-manager
quarantine and wear-out retirement exactly like teacher-served ones.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict

import numpy as np

from repro.ml.student import StudentPlacer, featurize_values


def fingerprint(value) -> tuple[int, int, int] | None:
    """Cheap stable content fingerprint of a bytes-like value.

    CRC32 and Adler32 are independent single-pass checksums; combined with
    the length they form a ~64-bit key whose collision odds are negligible
    at cache scale.  Non-bytes inputs (raw bit arrays) are not fingerprinted
    — they bypass the fast tiers and go straight to the teacher.
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
    """Cache tier + student tier + teacher fallback, with epoch scoping.

    Args:
        cache_size: memo-cache capacity; 0 disables the cache tier.
        student_confidence: minimum softmax confidence for the student tier
            to serve a prediction; misses below it defer to the teacher.

    The layer is thread-safe: a single lock guards the cache and the
    installed (student, epoch) pair, held only for dictionary operations —
    never across a student or teacher forward pass.
    """

    def __init__(
        self, cache_size: int = 0, student_confidence: float = 0.9
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if not 0.0 <= student_confidence <= 1.0:
            raise ValueError("student_confidence must be in [0, 1]")
        self.cache = PlacementCache(cache_size) if cache_size else None
        self.student_confidence = student_confidence
        self.student: StudentPlacer | None = None
        self._epoch: int | None = None
        self._lock = threading.Lock()
        # Telemetry: how many predictions each tier served.
        self.student_served = 0
        self.student_deferred = 0
        self.teacher_served = 0

    # ------------------------------------------------------------- lifecycle

    def install(self, epoch: int, student: StudentPlacer | None) -> None:
        """Adopt a new model epoch: wholesale-invalidate the memo cache and
        replace the student.  The engine calls this under its swap lock at
        the same point it bumps ``_model_epoch``, so entries from the old
        model can never serve the new pool."""
        with self._lock:
            self._epoch = epoch
            self.student = student
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
        """Cluster ids for ``values``, consulting cache → student → teacher.

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
            pending = self._predict_student(values, keys, clusters, pending, epoch)

        if pending:
            teacher = pipeline.predict_batch(
                [values[i] for i in pending],
                memory_ones_fraction=memory_ones_fraction,
            )
            for i, cluster in zip(pending, teacher):
                clusters[i] = cluster
            self._memoise(keys, clusters, pending, epoch)
            with self._lock:
                self.teacher_served += len(pending)
        return clusters

    def _predict_student(
        self, values, keys, clusters: np.ndarray, pending: list[int], epoch: int
    ) -> list[int]:
        """Serve confident student predictions for ``pending``; returns the
        indices the student deferred (or all of them when no student of the
        right epoch is installed, or the value is not bytes-like)."""
        with self._lock:
            student = self.student if self._epoch == epoch else None
        if student is None or not student.trained:
            return pending
        eligible = [i for i in pending if keys[i] is not None]
        if not eligible:
            return pending
        features = featurize_values(
            [values[i] for i in eligible], student.segment_size
        )
        labels, confidence = student.predict(features)
        served: list[int] = []
        for i, label, conf in zip(eligible, labels, confidence):
            if conf >= self.student_confidence:
                clusters[i] = label
                served.append(i)
        if served:
            self._memoise(keys, clusters, served, epoch)
        with self._lock:
            self.student_served += len(served)
            self.student_deferred += len(eligible) - len(served)
        if not served:
            return pending
        served_set = set(served)
        return [i for i in pending if i not in served_set]

    def _memoise(
        self, keys, clusters: np.ndarray, indices: list[int], epoch: int
    ) -> None:
        if self.cache is None:
            return
        with self._lock:
            # A swap that landed mid-prediction makes these labels stale:
            # drop them instead of poisoning the fresh epoch's cache.
            if self._epoch != epoch:
                return
            for i in indices:
                if keys[i] is not None:
                    self.cache.insert(keys[i], int(clusters[i]))

    # ------------------------------------------------------------- telemetry

    def stats(self) -> dict:
        """Counter snapshot (benchmark/monitoring reporting): every value
        sums across shards."""
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
                "student_served": self.student_served,
                "student_deferred": self.student_deferred,
                "teacher_served": self.teacher_served,
            }
        return out
