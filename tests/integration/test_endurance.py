"""End-to-end endurance exhaustion: accelerated aging, degraded mode and
wear-leveling crash safety.

Tier 1 runs the accelerated-aging acceptance — a verify-protected store
stays *correct* until it degrades to read-only with a dedicated error —
plus compact wear-leveling sweeps.  The ``endurance``-marked organic-wear
run and the ``crash``-marked wear-out sweep are CI's dedicated heavy jobs.
"""

import numpy as np
import pytest

from repro.core.kvstore import StoreReadOnlyError
from repro.nvm import WearOutConfig
from repro.testing import (
    FaultInjector,
    KVCrashHarness,
    make_ycsb_trace,
    run_crash_sweep,
    run_wear_leveling_crash_sweep,
)

WEAROUT = WearOutConfig(
    endurance_mean=12, endurance_sigma=0.3, seed=5, ecp_entries=8
)


@pytest.fixture(scope="module")
def worn_harness():
    """Store builder over a mortal device; the reserved log/catalog prefix
    is made immortal by the harness (real deployments over-provision it)."""
    return KVCrashHarness(
        n_segments=32, segment_size=64, seed=7, wearout=WEAROUT, spares=2
    )


def hammer_until_read_only(store, oracle=None, *, n_keys=6, max_ops=1500,
                           seed=3):
    """PUT random values round-robin, checking *every* GET against the
    oracle after each acknowledgement, until the store degrades."""
    rng = np.random.default_rng(seed)
    oracle = {} if oracle is None else oracle
    for i in range(max_ops):
        key = b"key-%d" % (i % n_keys)
        value = rng.integers(0, 256, size=48, dtype=np.uint8).tobytes()
        try:
            store.put(key, value)
        except StoreReadOnlyError:
            return oracle, i
        oracle[key] = value
        for k, v in oracle.items():
            assert store.get(k) == v, f"corrupt read of {k!r} after op {i}"
    raise AssertionError("store never degraded to read-only")


class TestProtectedStore:
    def test_aged_store_correct_until_read_only(self, worn_harness):
        device, _, store = worn_harness.fresh(FaultInjector())
        rng = np.random.default_rng(1)
        seeded = {}
        for i in range(4):
            value = rng.integers(0, 256, 48, dtype=np.uint8).tobytes()
            store.put(b"seed-%d" % i, value)
            seeded[b"seed-%d" % i] = value
        device.age(6)  # accelerated aging: most budgets nearly exhausted

        oracle, ops = hammer_until_read_only(store, seeded)
        assert ops > 0

        # Degradation is explicit and sticky: reads still served, writes
        # refused with the dedicated error.
        assert store.read_only
        with pytest.raises(StoreReadOnlyError):
            store.put(b"more", b"x" * 8)
        with pytest.raises(StoreReadOnlyError):
            store.delete(next(iter(oracle)))
        for k, v in oracle.items():
            assert store.get(k) == v

        telemetry = store.engine.health.telemetry()
        assert telemetry["stuck_cells"] > 0
        assert telemetry["segments_retired"] > 0
        assert telemetry["spares_left"] == 0
        assert telemetry["usable_capacity_fraction"] < 1.0

        # A restart rebuilds the same contents from the worn media; the
        # pool is still exhausted, so the first write re-degrades.
        recovered = worn_harness.reopen(device)
        assert dict(recovered.items()) == dict(store.items())
        with pytest.raises(StoreReadOnlyError):
            recovered.put(b"more", b"x" * 8)

    @pytest.mark.endurance
    def test_organic_wear_correct_until_read_only(self, worn_harness):
        """No aging shortcut: every GET stays correct over the device's
        whole organic lifetime, then the store degrades cleanly."""
        device, _, store = worn_harness.fresh(FaultInjector())
        oracle, ops = hammer_until_read_only(store, max_ops=5000)
        assert ops > 50  # a mortal-but-useful device, not dead on arrival
        assert store.read_only
        for k, v in oracle.items():
            assert store.get(k) == v
        assert device.stuck_cell_count() > 0


class TestWearLevelingCrashSafety:
    def test_scratch_swap_sweep_passes(self):
        report = run_wear_leveling_crash_sweep(
            "swap-scratch", n_segments=8, n_writes=24, period=2
        )
        assert report.passed, report.failures[:3]
        # Pinned: a harness refactor must not enumerate fewer points.
        assert report.site_hits == {
            "wl.swap": 12, "wl.gap_move": 24, "device.program": 48,
        }
        assert (report.crash_points, report.torn_points) == (132, 48)
        assert report.clean_replays == 0

    def test_start_gap_sweep_passes(self):
        report = run_wear_leveling_crash_sweep(
            "start-gap", n_segments=8, n_writes=24, period=2
        )
        assert report.passed, report.failures[:3]
        assert report.site_hits == {
            "wl.swap": 0, "wl.gap_move": 12, "device.program": 36,
        }
        assert (report.crash_points, report.torn_points) == (84, 36)
        assert report.clean_replays == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_wear_leveling_crash_sweep("bogus")


@pytest.mark.crash
def test_wearout_crash_sweep_acceptance():
    """Crash-durability holds on a dying device: every crash point across
    the wear sites (stuck-at, retirement, relocation) recovers to exactly
    the acknowledged state."""
    wearout = WearOutConfig(
        endurance_mean=5, endurance_sigma=0.6, seed=5, ecp_entries=1
    )
    harness = KVCrashHarness(
        n_segments=40, segment_size=64, seed=7, wearout=wearout, spares=4
    )
    trace = make_ycsb_trace(
        70, n_keys=6, value_size=48, seed=3, mix=(0.7, 0.15, 0.15)
    )
    report = run_crash_sweep(harness, trace)
    assert report.passed, (
        f"{len(report.failures)} of {report.crash_points} crash points "
        f"failed; first: {report.failures[:3]}"
    )
    for site in ("device.stuck_at", "health.retire", "health.relocate"):
        assert report.site_hits[site] > 0, f"{site} never fired"
