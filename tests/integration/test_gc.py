"""Capacity reclamation under crash fire: GC-site sweeps, compaction
content-neutrality and recovery-time reclaim replay.

Tier 1 runs a small sweep restricted to the GC sites
(``compact.migrate``, ``compact.reclaim``, ``wl.swap``) with the offline
checker run on the crashed media at every point, plus the Hypothesis
twin test (compaction on vs off must be invisible in contents).  The
``gc``-marked test is the acceptance sweep — every fired site, torn
variants included, fsck clean at every crash point — and runs in CI's
dedicated ``gc`` job (``pytest -m gc``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kvstore import StoreReadOnlyError
from repro.nvm import WearOutConfig
from repro.testing import (
    GC_CRASH_SITES,
    FaultInjector,
    KVCrashHarness,
    check_durable_invariants,
    make_ycsb_trace,
    run_crash_sweep,
    weave_compaction,
)

#: Mortal enough that segments hit ECP capacity and retire mid-trace —
#: firing the whole reclamation path — but long-lived enough that the DAP
#: keeps free segments for wear-leveling swap targets.
WEAROUT = WearOutConfig(
    endurance_mean=10, endurance_sigma=0.5, seed=5, ecp_entries=1
)


@pytest.fixture(scope="module")
def gc_harness():
    """Stores on dying media with a synchronous compactor attached."""
    return KVCrashHarness(
        n_segments=40, segment_size=64, seed=7, wearout=WEAROUT, spares=4,
        gc=True,
    )


def _gc_trace(n_ops=60):
    return weave_compaction(
        make_ycsb_trace(
            n_ops, n_keys=8, value_size=48, seed=3, mix=(0.7, 0.15, 0.15)
        ),
        compact_every=4,
    )


def test_small_gc_sweep_every_point_recovers(gc_harness):
    """Crashes at every migration write point, reclaim transition and
    wear-leveling swap recover to the acknowledged state, and the crashed
    media passes the offline checker at every point."""
    report = run_crash_sweep(
        gc_harness, _gc_trace(), sites=GC_CRASH_SITES, torn_sites=(),
        check_fsck=True,
    )
    assert report.passed, report.failures[:5]
    for site in GC_CRASH_SITES:
        assert report.site_hits[site] > 0, f"{site} never fired"


def test_recovery_reclaims_drained_retiring_segments(gc_harness):
    """A retiring segment left drained on the media (the crash landed
    before the reclaim metadata write) is folded into the spares pool by
    recovery — the replay that makes ``compact.reclaim`` idempotent."""
    faults = FaultInjector()
    device, _, store = gc_harness.fresh(faults)
    store.put(b"user001", b"x" * 32)
    # Strand a drained retiring segment: health says retiring, but no
    # live catalog record occupies it (exactly the pre-reclaim window).
    free_addr = store.engine.free_addresses()[0]
    seg = free_addr // 64
    device.health.retiring.add(seg)
    del store

    recovered = gc_harness.reopen(device)
    assert recovered.recovery.reclaimed_segments == 1
    health = recovered.engine.health
    assert seg in health.state.reclaimed
    assert free_addr in health.state.spares
    assert recovered.get(b"user001") == b"x" * 32


def test_reclaimed_capacity_defers_read_only(gc_harness):
    """A store whose free pool is exhausted adopts reclaimed spare-class
    capacity instead of degrading to read-only."""
    device, _, store = gc_harness.fresh(FaultInjector())
    health = store.engine.health
    # Drain the entire free pool into quarantine so the next placement
    # would otherwise exhaust the DAP...
    store.put(b"user001", b"x" * 32)
    while store.engine.adopt_spare() is not None:
        pass  # reserved spares must not mask the reclamation path
    free = store.engine.free_addresses()
    for addr in free:
        store.engine.quarantine_address(addr)
    # ...but leave one drained retiring segment for _reclaim_stranded to
    # fold back in (stranded: never recycled through a PUT/DELETE).
    quarantined = min(free)
    health.state.retiring.add(quarantined // 64)

    store.put(b"user002", b"y" * 32)  # reclaim + adopt, not read-only
    assert not store.read_only
    assert store.get(b"user002") == b"y" * 32
    assert health.reclaimed_total >= 1


def test_reclaim_stranded_spares_drained_never_retired(gc_harness):
    """Last-ditch reclamation folds a drained retiring segment into the
    spares, and never a retired one, even when nothing live names it."""
    _, _, store = gc_harness.fresh(FaultInjector())
    health = store.engine.health
    store.put(b"user001", b"x" * 32)
    drained, dead = store.engine.free_addresses()[:2]
    for addr in (drained, dead):
        store.engine.quarantine_address(addr)
        health.mark_retiring(addr // 64)
    health.retire(dead // 64)

    assert store._reclaim_stranded() == 1
    assert drained // 64 in health.state.reclaimed
    assert drained in health.state.spares
    assert health.is_retired(dead // 64)
    assert dead // 64 not in health.state.reclaimed
    assert dead not in health.state.spares
    check_durable_invariants(store, {b"user001": b"x" * 32})


_KEYS = [b"twin%02d" % i for i in range(6)]


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(_KEYS),
            st.integers(1, 48),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
    compact_every=st.integers(1, 6),
)
def test_compaction_twin_is_content_neutral(gc_harness, ops, compact_every):
    """Twin property: the same operation sequence applied with and
    without interleaved compaction rounds yields identical store
    contents — compaction and wear leveling only move bytes, never
    change them."""

    def run(with_compaction):
        _, _, store = gc_harness.fresh(FaultInjector())
        oracle = {}
        for i, (key, size, is_put) in enumerate(ops, 1):
            value = (b"%02d" % (i % 100)) * 24
            try:
                if is_put:
                    store.put(key, value[:size])
                    oracle[key] = value[:size]
                else:
                    store.delete(key)
                    oracle.pop(key, None)
            except StoreReadOnlyError:
                return None, None
            if with_compaction and i % compact_every == 0:
                store.compactor.compact_round()
        return dict(store.items()), oracle

    with_items, with_oracle = run(True)
    without_items, without_oracle = run(False)
    if with_items is None or without_items is None:
        return  # the device died mid-sequence; neutrality is moot
    assert with_items == with_oracle
    assert without_items == without_oracle
    assert with_items == without_items


@pytest.mark.gc
def test_gc_sweep_acceptance(gc_harness):
    """Acceptance criterion: a compacting, wear-leveling workload on
    dying media crashed at every fired site — GC sites, wear sites, torn
    log/value writes — recovers to exactly the acknowledged state, and
    the crashed media passes fsck (zero errors) at every single point."""
    report = run_crash_sweep(gc_harness, _gc_trace(), check_fsck=True)
    assert report.passed, (
        f"{len(report.failures)} of {report.crash_points} crash points "
        f"failed; first: {report.failures[:3]}"
    )
    for site in GC_CRASH_SITES:
        assert report.site_hits[site] > 0, f"{site} never fired"
    assert report.torn_points > 0


def test_recovery_keeps_a_retiring_segment_with_live_data_claimed(gc_harness):
    """A retiring segment that still holds a live value stays claimed
    across a reopen, so the evacuation recovery re-queues can move it."""
    device, _, store = gc_harness.fresh(FaultInjector())
    store.put(b"user001", b"x" * 32)
    addr, _ = store.index.get(b"user001")
    device.health.retiring.add(addr // 64)
    del store

    recovered = gc_harness.reopen(device)
    assert recovered.engine.is_allocated(addr)
    recovered.drain_relocations()
    assert recovered.index.get(b"user001")[0] != addr
    check_durable_invariants(recovered, {b"user001": b"x" * 32})
