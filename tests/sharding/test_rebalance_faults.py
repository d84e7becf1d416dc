"""Rebalance fault coverage: coordinator crash sweep + endpoint SIGKILLs.

Marked ``rebalance`` (excluded from tier-1 by default); CI runs these in
their own job with hard timeouts, mirroring the ``gc``/``chaos`` jobs.
"""

from __future__ import annotations

import pytest

from repro.testing.chaos import (
    REBALANCE_CRASH_SITES,
    run_rebalance_crash_sweep,
    run_rebalance_storm,
)

pytestmark = pytest.mark.rebalance


class TestCrashSweep:
    def test_recovers_from_every_fault_site_firing(self, tmp_path):
        """A coordinator crash at every firing of every rebalance fault
        site, then ``open()``: the journal in the state that site implies
        (copy/delete crashes land mid-drain and resume from "draining";
        the flip crash lands past the point of no return and rolls
        "flipped" forward), every acked key readable exactly once on its
        ring owner, journal retired, cross-shard fsck clean."""
        report = run_rebalance_crash_sweep(tmp_path / "sweep", seed=3)
        assert report.passed, report.failures
        # Pinned to the parent's enumeration: every site exercised, and
        # a refactor cannot silently sweep fewer points.
        assert report.site_hits == {
            "rebalance.copy": 4, "rebalance.delete": 4, "rebalance.flip": 1,
        }
        assert (report.crash_points, report.clean_replays) == (9, 0)
        assert set(report.site_hits) == set(REBALANCE_CRASH_SITES)


class TestStorm:
    def test_sigkill_source_and_target_mid_drain(self, tmp_path):
        """SIGKILL both endpoints of the in-flight migration pair while
        foreground writes continue under ``partial``: the supervisor
        heals the fleet, the drain resumes, and the migration lands with
        zero lost acked writes and no duplicate/orphan keys."""
        report = run_rebalance_storm(
            tmp_path / "storm", seed=5, rounds=4, heal_timeout_s=120.0
        )
        assert report.kills >= 2, "storm never killed an endpoint pair"
        assert report.all_healthy, report.summary()
        assert report.finalized, report.summary()
        assert not report.lost_writes, report.lost_writes[:5]
        assert not report.corrupt_keys, report.corrupt_keys[:5]
        assert not report.duplicate_keys, report.duplicate_keys[:5]
        assert not report.orphan_keys, report.orphan_keys[:5]
        assert report.fsck_ok, report.fsck_errors[:5]
        assert report.keys_copied >= 1
