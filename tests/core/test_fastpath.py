"""Fast placement: memo cache in front of the teacher, epoch safety.

The fast layer must be *invisible* in placement behaviour (cache-on and
cache-off twins produce identical addresses for identical value streams,
across model swaps) and *bounded* in adversity (a hostile retrain cadence
can no longer starve a writer).  Cached placements must respect
health-manager quarantine exactly like teacher-served ones.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.e2nvm import PLACE_EPOCH_RETRIES
from repro.core.fastpath import FastPlacementLayer, PlacementCache

from tests.conftest import SEGMENT_SIZE, make_engine


class TestPlacementCache:
    def test_lru_eviction_order(self):
        cache = PlacementCache(2)
        cache.insert("a", 0)
        cache.insert("b", 1)
        assert cache.lookup("a") == 0  # refreshes "a"
        cache.insert("c", 2)  # evicts "b", the LRU entry
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 0
        assert cache.lookup("c") == 2
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_telemetry_counters(self):
        cache = PlacementCache(4)
        assert cache.lookup("x") is None
        cache.insert("x", 3)
        assert cache.lookup("x") == 3
        cache.invalidate()
        assert cache.lookup("x") is None
        assert (cache.hits, cache.misses, cache.invalidations) == (1, 2, 1)
        assert len(cache) == 0

    def test_reinsert_updates_value_without_eviction(self):
        cache = PlacementCache(2)
        cache.insert("a", 0)
        cache.insert("a", 5)
        assert cache.lookup("a") == 5
        assert cache.evictions == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlacementCache(0)


class _StubPipeline:
    """Teacher stub: cluster = first byte, and every call is recorded."""

    def __init__(self):
        self.calls: list[list] = []

    def predict_batch(self, values):
        self.calls.append(list(values))
        return np.array([v[0] if len(v) else 0 for v in values], dtype=np.int64)


class TestCacheKeys:
    """The cache keys on the value's bytes: equal content hits whatever
    object carries it; a raw bit array is never cached."""

    def test_equal_content_hits_across_objects(self):
        layer = FastPlacementLayer(cache_size=8)
        layer.install(1)
        teacher = _StubPipeline()
        value = bytes([7]) * 16
        layer.predict([value], teacher, 1)
        for same in (
            bytes(bytearray(value)),  # a distinct but equal bytes object
            bytearray(value),
            memoryview(value),
        ):
            assert layer.predict([same], teacher, 1).tolist() == [7]
        assert len(teacher.calls) == 1
        assert layer.stats()["cache_hits"] == 3
        layer.predict([bytes([7]) * 15 + b"\x00"], teacher, 1)
        assert len(teacher.calls) == 2  # one differing byte misses

    def test_bit_arrays_bypass_the_cache(self):
        layer = FastPlacementLayer(cache_size=8)
        layer.install(1)
        teacher = _StubPipeline()
        bits = np.zeros(8, dtype=np.float32)
        layer.predict([bits], teacher, 1)
        layer.predict([bits], teacher, 1)
        assert len(teacher.calls) == 2
        assert layer.stats()["cache_entries"] == 0


class TestFastPlacementLayer:
    def test_cache_short_circuits_teacher(self):
        layer = FastPlacementLayer(cache_size=8)
        layer.install(1)
        teacher = _StubPipeline()
        first = layer.predict([b"\x02x", b"\x05y"], teacher, 1)
        again = layer.predict([b"\x05y", b"\x02x"], teacher, 1)
        np.testing.assert_array_equal(first, [2, 5])
        np.testing.assert_array_equal(again, [5, 2])
        assert len(teacher.calls) == 1  # second batch fully cache-served
        stats = layer.stats()
        assert stats["cache_hits"] == 2
        assert stats["teacher_served"] == 2

    def test_stale_epoch_refuses_cache_and_inserts(self):
        layer = FastPlacementLayer(cache_size=8)
        layer.install(1)
        teacher = _StubPipeline()
        layer.predict([b"\x02x"], teacher, 1)
        # A caller still carrying epoch 0 must not see epoch-1 entries, and
        # its (stale-model) predictions must not poison the cache.
        layer.predict([b"\x02x"], teacher, 0)
        assert len(teacher.calls) == 2
        layer.predict([b"\x02x"], teacher, 1)
        assert len(teacher.calls) == 2  # epoch-1 entry survived untouched

    def test_install_invalidates_wholesale(self):
        layer = FastPlacementLayer(cache_size=8)
        layer.install(1)
        teacher = _StubPipeline()
        layer.predict([b"\x02x"], teacher, 1)
        layer.install(2)
        layer.predict([b"\x02x"], teacher, 2)
        assert len(teacher.calls) == 2
        assert layer.stats()["cache_invalidations"] == 2

    def test_ndarray_values_bypass_cache(self):
        layer = FastPlacementLayer(cache_size=8)
        layer.install(1)
        teacher = _StubPipeline()
        bits = np.ones(16, dtype=np.float32)
        teacher_calls = []

        class ArrayTeacher:
            def predict_batch(self, values):
                teacher_calls.append(len(values))
                return np.zeros(len(values), dtype=np.int64)

        layer.predict([bits], ArrayTeacher(), 1)
        layer.predict([bits], ArrayTeacher(), 1)
        assert teacher_calls == [1, 1]  # never cached

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FastPlacementLayer(cache_size=-1)

    def test_stats_survive_invalidation_to_empty(self):
        """Regression: an empty PlacementCache is falsy (``__len__``), so a
        truthiness check in stats() zeroed every cache counter right after
        a model swap's wholesale invalidation."""
        layer = FastPlacementLayer(cache_size=8)
        layer.install(1)
        teacher = _StubPipeline()
        layer.predict([b"\x02x"], teacher, 1)
        layer.predict([b"\x02x"], teacher, 1)
        layer.install(2)  # invalidates: cache now empty, still present
        stats = layer.stats()
        assert stats["cache_capacity"] == 8
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["cache_invalidations"] == 2
        assert stats["cache_entries"] == 0


# --------------------------------------------------------------------------
# Twin-object equivalence: cache-on vs cache-off, across a model swap.

TWIN_SEGMENT = 16
TWIN_SEGMENTS = 48


def _twin_engine(cache_size: int, **overrides):
    return make_engine(
        seed=53,
        n_segments=TWIN_SEGMENTS,
        segment_size=TWIN_SEGMENT,
        fastpath_cache_size=cache_size,
        pretrain_epochs=2,
        joint_epochs=1,
        hidden=(16,),
        **overrides,
    )


@pytest.fixture(scope="module")
def twin_engines():
    """Identically seeded engines: one with the memo cache, one without.

    Module-scoped: every Hypothesis example drives both through identical
    operations, so they stay in lockstep across examples too.
    """
    return _twin_engine(cache_size=64), _twin_engine(cache_size=0)


_VALUE_POOL = [
    bytes([b]) * TWIN_SEGMENT for b in (0x00, 0x11, 0x55, 0xAA, 0xEE, 0xFF)
]


class TestCacheEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(
        before=st.lists(st.integers(0, 5), min_size=2, max_size=8),
        after=st.lists(st.integers(0, 5), min_size=2, max_size=8),
    )
    def test_cache_on_off_identical_across_swap(
        self, twin_engines, before, after
    ):
        cached, plain = twin_engines

        def stream(indices):
            claimed = []
            for i in indices:
                value = _VALUE_POOL[i]
                a = cached.place(value)
                b = plain.place(value)
                assert a == b
                claimed.append(a)
            # Restore both pools identically (release re-encodes content,
            # which is identical on both sides).
            cached.release_many(claimed)
            plain.release_many(claimed)

        stream(before)
        # Model swap: both twins retrain on identical free pools, bumping
        # the epoch — the cache must invalidate and keep matching.
        cached.train()
        plain.train()
        stream(after)
        stats = cached.placement_telemetry()
        assert stats["cache_invalidations"] >= 1

    def test_frozen_student_fields_are_inert_across_swap(self):
        """``student_enabled`` / ``student_confidence`` are accepted and
        ignored: with them set, batched placement and the release
        relabelling match the default config's, across a model swap."""
        plain = _twin_engine(cache_size=64)
        frozen = _twin_engine(
            cache_size=64, student_enabled=True, student_confidence=0.6
        )
        rng = np.random.default_rng(61)
        for _ in range(2):
            for _ in range(3):
                values = [
                    _VALUE_POOL[i] for i in rng.integers(0, 6, size=4)
                ] + [
                    rng.integers(0, 256, TWIN_SEGMENT, dtype=np.uint8)
                    .tobytes()
                    for _ in range(4)
                ]
                claimed = plain.place_many(values)
                assert frozen.place_many(values) == claimed
                plain.release_many(claimed)
                frozen.release_many(claimed)
                assert frozen.dap.snapshot() == plain.dap.snapshot()
            plain.train()
            frozen.train()
        assert frozen.placement_telemetry() == plain.placement_telemetry()

    def test_repeated_content_hits_cache(self):
        engine = _twin_engine(cache_size=64)
        value = _VALUE_POOL[2]
        a1 = engine.place(value)
        engine.release(a1)
        a2 = engine.place(value)
        engine.release(a2)
        stats = engine.placement_telemetry()
        assert stats["cache_hits"] >= 1


# --------------------------------------------------------------------------
# Bounded epoch-mismatch retries (hostile retrain cadence).


class TestBoundedEpochRetries:
    def test_place_terminates_under_hostile_swap_cadence(self):
        engine = make_engine(seed=13, fastpath_cache_size=0)
        real = engine.pipeline.predict_batch
        forward_passes = []

        def hostile(values):
            # Simulate a background swap landing during *every* prediction:
            # without a retry bound, place() would spin forever.
            engine._model_epoch += 1
            forward_passes.append(len(values))
            return real(values)

        engine.pipeline.predict_batch = hostile
        addr = engine.place(b"\x01" * 16)
        del engine.pipeline.predict_batch  # restore before the release
        engine.release(addr)
        # N lock-free retries plus the final under-lock prediction.
        assert len(forward_passes) == PLACE_EPOCH_RETRIES + 1

    def test_release_many_terminates_under_hostile_swap_cadence(self):
        engine = make_engine(seed=13, fastpath_cache_size=0)
        # ``place`` claims without writing, so the address carries no
        # placement label: its release re-encodes, and must retry.
        addr = engine.place(b"\x01" * 16)
        real = engine.pipeline.predict_batch
        calls = []

        def hostile(values):
            engine._model_epoch += 1
            calls.append(1)
            return real(values)

        engine.pipeline.predict_batch = hostile
        engine.release(addr)  # must terminate
        assert len(calls) == PLACE_EPOCH_RETRIES + 1
        assert engine.allocated_count == 0

    def test_writer_makes_progress_while_model_swaps_in_tight_loop(self):
        engine = make_engine(
            seed=17,
            n_segments=48,
            segment_size=16,
            pretrain_epochs=2,
            joint_epochs=1,
            hidden=(16,),
            fastpath_cache_size=32,
        )
        stop = threading.Event()
        swaps = []

        def swapper():
            while not stop.is_set():
                engine.train()
                swaps.append(1)

        thread = threading.Thread(target=swapper)
        thread.start()
        try:
            rng = np.random.default_rng(5)
            for _ in range(20):
                value = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
                addr, _ = engine.write(value)
                engine.release(addr)
        finally:
            stop.set()
            thread.join()
        assert engine.allocated_count == 0
        assert len(swaps) >= 1  # the cadence really was hostile


# --------------------------------------------------------------------------
# Cached placements must respect quarantine/retirement.


class TestCacheRespectsQuarantine:
    def test_cached_cluster_never_places_on_quarantined_address(self):
        engine = make_engine(seed=19, n_segments=32, fastpath_cache_size=64)
        value = b"\x42" * SEGMENT_SIZE
        addr = engine.place(value)  # teacher path; cluster memoised
        engine.release(addr)
        engine.quarantine_address(addr)
        for _ in range(6):
            placed = engine.place(value)  # cache-hit path
            assert placed != addr
            engine.release(placed)
        stats = engine.placement_telemetry()
        assert stats["cache_hits"] >= 6

    def test_cache_hit_with_emptied_cluster_falls_back_not_retired(self):
        """Retire a segment, then exhaust its cluster: the cached cluster id
        must route through the DAP's nearest-cluster fallback without ever
        yielding the retired address (satellite: fallback-memo audit)."""
        engine = make_engine(seed=23, n_segments=24, fastpath_cache_size=64)
        value = b"\x37" * SEGMENT_SIZE
        addr = engine.place(value)
        engine.release(addr)
        # Find the cluster the value maps to and quarantine *every* address
        # in it, so a cache-hit placement must take the fallback path.
        cluster = engine.pipeline.predict_cluster(value)
        doomed = list(engine.dap.snapshot()[cluster])
        for a in doomed:
            engine.quarantine_address(a)
        placed = engine.place(value)
        assert placed not in doomed
        engine.release(placed)
        stats = engine.placement_telemetry()
        assert stats["cache_hits"] >= 1
