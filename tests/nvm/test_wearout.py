"""Wear-out model tests: endurance budgets, stuck-at failure, accelerated
aging, lifetime estimates and snapshot round-trips."""

import numpy as np
import pytest

from repro.nvm import NVMDevice, WearOutConfig
from repro.testing import FaultInjector


def worn_device(
    n_segments: int = 8,
    segment_size: int = 32,
    wearout: WearOutConfig | None = None,
    **kwargs,
) -> NVMDevice:
    return NVMDevice(
        capacity_bytes=n_segments * segment_size,
        segment_size=segment_size,
        wearout=wearout or WearOutConfig(endurance_mean=4, seed=1),
        **kwargs,
    )


class TestBudgets:
    def test_budgets_deterministic_per_seed(self):
        a = worn_device(wearout=WearOutConfig(endurance_mean=10, seed=3))
        b = worn_device(wearout=WearOutConfig(endurance_mean=10, seed=3))
        c = worn_device(wearout=WearOutConfig(endurance_mean=10, seed=4))
        budgets = [dev._cell_budgets(dev.wearout) for dev in (a, b, c)]
        assert np.array_equal(budgets[0], budgets[1])
        assert not np.array_equal(budgets[0], budgets[2])
        # The countdown starts at the draw: a fresh device has no wear.
        assert not a.wear_count().any()

    def test_budgets_at_least_one_cycle(self):
        dev = worn_device(
            wearout=WearOutConfig(endurance_mean=1, endurance_sigma=2.0)
        )
        assert int(dev._cell_budgets(dev.wearout).min()) >= 1

    def test_immortal_prefix(self):
        cfg = WearOutConfig(
            endurance_mean=2, endurance_sigma=0.0, immortal_prefix_segments=2
        )
        dev = worn_device(wearout=cfg)
        prefix_bits = 2 * dev.segment_size * 8
        budgets = dev._cell_budgets(dev.wearout)
        assert int(budgets[:prefix_bits].min()) > 10**15
        assert int(budgets[prefix_bits:].max()) <= 4

    def test_immortal_prefix_out_of_range(self):
        with pytest.raises(ValueError, match="immortal_prefix_segments"):
            worn_device(
                wearout=WearOutConfig(
                    endurance_mean=2, immortal_prefix_segments=99
                )
            )

    def test_budget_seed_must_redraw_the_same_budgets(self):
        # Wear is the redrawn budget minus the countdown: a seed that draws
        # anew each time (OS entropy, a shared generator) is refused.
        for seed in (None, np.random.default_rng(1)):
            with pytest.raises(TypeError, match="seed must be an int"):
                worn_device(wearout=WearOutConfig(seed=seed))

    def test_endurance_mean_validated(self):
        with pytest.raises(ValueError, match="endurance_mean"):
            worn_device(wearout=WearOutConfig(endurance_mean=0))

    def test_no_wearout_means_no_state(self):
        dev = NVMDevice(capacity_bytes=256, segment_size=32)
        assert dev.ecc is None and dev.health is None
        assert dev.stuck_cell_count() == 0
        assert not dev.stuck_mask(0, 32).any()


class TestStuckAt:
    def one_shot_device(self):
        """Every cell dies after exactly one program pulse."""
        return worn_device(
            wearout=WearOutConfig(endurance_mean=1, endurance_sigma=0.0)
        )

    def test_killing_pulse_still_lands(self):
        dev = self.one_shot_device()
        ones = b"\xff" * 32
        dev.program(0, ones)
        assert dev.read(0, 32) == ones

    def test_stuck_cells_silently_keep_their_value(self):
        dev = self.one_shot_device()
        ones = b"\xff" * 32
        dev.program(0, ones)
        dev.program(0, b"\x00" * 32)  # every cell is stuck by now
        assert dev.read(0, 32) == ones

    def test_stuck_mask_and_count(self):
        dev = self.one_shot_device()
        assert dev.stuck_cell_count() == 0
        dev.program(0, b"\xaa" * 32)
        assert dev.stuck_cell_count() == 32 * 8
        assert np.array_equal(
            dev.stuck_mask(0, 32), np.full(32, 0xFF, dtype=np.uint8)
        )
        assert not dev.stuck_mask(32, 32).any()

    def test_unmasked_cells_keep_their_budget(self):
        dev = self.one_shot_device()
        mask = np.zeros(32, dtype=np.uint8)
        mask[0] = 0xFF
        dev.program(0, b"\x55" * 32, program_mask=mask)
        assert dev.stuck_cell_count() == 8  # only the masked byte died

    def test_stuck_at_site_fires_after_marking(self):
        faults = FaultInjector()
        dev = worn_device(
            wearout=WearOutConfig(endurance_mean=1, endurance_sigma=0.0),
            faults=faults,
        )
        faults.arm("device.stuck_at", error=RuntimeError("crash"))
        with pytest.raises(RuntimeError):
            dev.program(0, b"\xff" * 32)
        # Media and wear state are already consistent at the crash point:
        # the pulse landed and the dead cells are marked stuck.
        assert dev.read(0, 32) == b"\xff" * 32
        assert dev.stuck_cell_count() == 32 * 8

    def test_stuck_at_site_quiet_without_new_deaths(self):
        faults = FaultInjector()
        dev = worn_device(
            wearout=WearOutConfig(endurance_mean=100, endurance_sigma=0.0),
            faults=faults,
        )
        dev.program(0, b"\xff" * 32)
        assert faults.hits("device.stuck_at") == 0


class TestAcceleratedAging:
    def test_age_kills_and_reports(self):
        dev = worn_device(
            wearout=WearOutConfig(endurance_mean=50, endurance_sigma=0.0)
        )
        assert dev.age(10) == 0
        killed = dev.age(100)
        assert killed == dev.capacity_bytes * 8
        assert dev.stuck_cell_count() == killed
        assert dev.age(5) == 0  # already dead cells are not re-counted

    def test_age_preserves_content_and_stats(self):
        dev = worn_device()
        dev.program(0, b"\x42" * 32)
        before = dev.peek(0, dev.capacity_bytes).copy()
        writes = dev.stats.writes
        dev.age(10**6)
        assert np.array_equal(dev.peek(0, dev.capacity_bytes), before)
        assert dev.stats.writes == writes

    def test_aged_cells_are_stuck_at_current_value(self):
        dev = worn_device()
        payload = b"\x5a" * 32
        dev.program(0, payload)
        dev.age(10**6)
        dev.program(0, b"\xa5" * 32)
        assert dev.read(0, 32) == payload

    def test_age_requires_wearout_model(self):
        dev = NVMDevice(capacity_bytes=256, segment_size=32)
        with pytest.raises(RuntimeError, match="wearout"):
            dev.age(1)

    def test_age_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            worn_device().age(-1)


class TestWearSummary:
    def test_fallback_basis_is_segment_writes(self):
        dev = NVMDevice(capacity_bytes=256, segment_size=32)
        dev.program(0, b"\x01" * 32)
        dev.program(0, b"\x02" * 32)
        assert int(dev.segment_write_count.max()) == 2
        with pytest.raises(RuntimeError, match="track_bit_wear"):
            dev.bit_wear
        assert dev.stuck_cell_count() == 0

    def test_bit_wear_basis_when_tracked(self):
        dev = NVMDevice(
            capacity_bytes=256, segment_size=32, track_bit_wear=True
        )
        dev.program(0, b"\xff" * 32)
        assert int(dev.bit_wear.max()) == 1

    def test_stuck_cells_reported_with_wearout(self):
        dev = worn_device(
            wearout=WearOutConfig(endurance_mean=1, endurance_sigma=0.0)
        )
        dev.program(0, b"\xff" * 32)
        assert dev.stuck_cell_count() == 32 * 8


class TestSnapshotRoundTrip:
    def test_wearout_state_survives_save_load(self, tmp_path):
        cfg = WearOutConfig(
            endurance_mean=3,
            endurance_sigma=0.4,
            seed=9,
            ecp_entries=2,
            immortal_prefix_segments=1,
        )
        dev = worn_device(wearout=cfg)
        for i in range(6):
            dev.program(32, bytes([i * 37 % 256]) * 32)
        dev.ecc.record(1, [5, 9], [1, 0])
        dev.health.retired.add(3)
        dev.health.retiring.add(4)
        dev.health.spares.extend([160, 192])

        path = tmp_path / "snap.npz"
        dev.save(path)
        loaded = NVMDevice.load(path)

        assert loaded.wearout == cfg
        assert np.array_equal(loaded._pulses_left, dev._pulses_left)
        assert np.array_equal(loaded.wear_count(), dev.wear_count())
        assert np.array_equal(loaded._stuck_packed, dev._stuck_packed)
        assert np.array_equal(
            loaded.peek(0, loaded.capacity_bytes),
            dev.peek(0, dev.capacity_bytes),
        )
        for got, want in zip(
            loaded.ecc.state_arrays(), dev.ecc.state_arrays()
        ):
            assert np.array_equal(got, want)
        assert loaded.health.retired == {3}
        assert loaded.health.retiring == {4}
        assert list(loaded.health.spares) == [160, 192]

    def test_dead_cells_stay_dead_after_load(self, tmp_path):
        dev = worn_device(
            wearout=WearOutConfig(endurance_mean=1, endurance_sigma=0.0)
        )
        payload = b"\x3c" * 32
        dev.program(0, payload)
        path = tmp_path / "snap.npz"
        dev.save(path)
        loaded = NVMDevice.load(path)
        loaded.program(0, b"\xc3" * 32)  # must silently fail: cells stuck
        assert loaded.read(0, 32) == payload

    def test_immortal_device_snapshot_has_no_wear_state(self, tmp_path):
        dev = NVMDevice(capacity_bytes=256, segment_size=32)
        path = tmp_path / "snap.npz"
        dev.save(path)
        loaded = NVMDevice.load(path)
        assert loaded.wearout is None
        assert loaded.ecc is None and loaded.health is None
