"""Chaos drill acceptance tests (marker: ``chaos``).

The drill itself lives in :mod:`repro.testing.chaos`; these tests pin
its contract for CI: random kill / SIGSTOP / in-transaction-crash faults
landing mid-``put_many`` while wearout and drift clocks advance, and the
fleet must converge back to all-shards-healthy with zero lost
acknowledged writes and a clean fsck on every shard.  Seeded — a failure
reproduces from its seed.
"""

from __future__ import annotations

import pytest

from repro.testing.chaos import FAULT_KINDS, run_chaos_drill

pytestmark = pytest.mark.chaos


class TestChaosDrill:
    def test_drill_converges_with_no_lost_acked_writes(self, tmp_path):
        report = run_chaos_drill(
            tmp_path / "drill",
            rounds=5,
            batch_size=16,
            seed=0,
            heal_timeout_s=120.0,
        )
        assert report.all_healthy, "fleet did not converge to healthy"
        assert report.lost_writes == [], report.lost_writes
        assert report.corrupt_keys == [], report.corrupt_keys
        assert report.fsck_ok, report.fsck_errors
        assert report.ok
        # The drill must actually have hurt something, or it proves nothing.
        assert sum(report.faults.values()) == 5
        assert report.restarts >= 1
        assert report.total_items > 0
        assert 0.0 < report.availability <= 1.0

    def test_drill_is_seeded_and_reports_recoveries(self, tmp_path):
        report = run_chaos_drill(
            tmp_path / "drill",
            rounds=4,
            batch_size=12,
            seed=3,
            heal_timeout_s=120.0,
        )
        assert report.ok
        assert set(report.faults) == set(FAULT_KINDS)
        if report.recovery_count:
            assert report.recovery_time_mean_s > 0.0
            assert (
                report.recovery_time_max_s >= report.recovery_time_mean_s
            )

    def test_watchdog_species_only(self, tmp_path):
        """A stop-only drill exercises the heartbeat watchdog end to end:
        every fault is a SIGSTOP, so every recovery went detect → kill →
        reopen."""
        report = run_chaos_drill(
            tmp_path / "drill",
            rounds=3,
            batch_size=12,
            seed=1,
            faults=("stop",),
            heal_timeout_s=120.0,
        )
        assert report.ok
        assert report.faults == {"stop": 3}
        assert report.watchdog_kills >= 1

    def test_worn_out_shards_refuse_writes_without_losing_acked_ones(
        self, tmp_path
    ):
        """Median endurance = the round count: cells die under the drill
        until shards go read-only.  A batch a read-only shard refuses is
        unacknowledged, not a drill failure, and nothing acked is lost."""
        rounds = 4
        report = run_chaos_drill(
            tmp_path / "drill",
            rounds=rounds,
            batch_size=16,
            seed=7,
            heal_timeout_s=120.0,
            endurance_mean=1.0 * rounds,
        )
        assert report.ok, report.summary()
        assert report.stuck_cells > 0
        assert report.acked_items < report.total_items

    def test_rejects_unknown_fault_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown fault kind"):
            run_chaos_drill(tmp_path / "drill", faults=("meteor",))
