"""Resistance-drift model: clock, budgets, sensing overlay, write refresh."""

import numpy as np
import pytest

from repro.nvm import DriftConfig, MemoryController, NVMDevice, WearOutConfig
from repro.testing import FaultInjector
from repro.util.bits import popcount_array

SEGMENT = 64


def make_drift_device(
    retention_mean=10, n_segments=8, *, seed=7, track_bit_wear=False,
    wearout=None, **cfg
):
    return NVMDevice(
        capacity_bytes=n_segments * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=seed,
        track_bit_wear=track_bit_wear,
        wearout=wearout,
        drift=DriftConfig(
            retention_mean=retention_mean, retention_sigma=0.3, seed=3, **cfg
        ),
    )


class TestClockAndBudgets:
    def test_clock_starts_at_zero_and_advances(self):
        device = make_drift_device()
        assert device.clock == 0
        assert device.advance_time(0) == 0
        device.advance_time(3)
        device.advance_time(4)
        assert device.clock == 7

    def test_advance_time_requires_drift_model(self):
        device = NVMDevice(capacity_bytes=8 * SEGMENT, segment_size=SEGMENT)
        with pytest.raises(RuntimeError, match="drift model"):
            device.advance_time(1)
        # The margin read degrades gracefully instead: all clean.
        assert not device.drift_mask(0, SEGMENT).any()
        assert device.drifted_cell_count() == 0

    def test_negative_ticks_rejected(self):
        with pytest.raises(ValueError):
            make_drift_device().advance_time(-1)

    def test_budgets_are_deterministic_per_seed(self):
        a = make_drift_device()
        b = make_drift_device()
        a.advance_time(20)
        b.advance_time(20)
        assert np.array_equal(a.drift_mask(0, 8 * SEGMENT),
                              b.drift_mask(0, 8 * SEGMENT))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="retention_mean"):
            make_drift_device(retention_mean=0)
        with pytest.raises(ValueError, match="wear_scale"):
            make_drift_device(wear_scale=-1)


class TestSensingOverlay:
    def test_drifted_cells_read_flipped_until_rewritten(self):
        device = make_drift_device(retention_mean=5)
        before = bytes(device.read_array(0, SEGMENT))
        device.advance_time(50)  # far past every budget
        mask = device.drift_mask(0, SEGMENT)
        assert popcount_array(mask) > 0
        sensed = device.read_array(0, SEGMENT)
        # Sensed value is exactly content XOR drift mask — drift corrupts
        # the *reading*, never the stored charge.
        assert bytes(np.bitwise_xor(sensed, mask)) == before
        assert bytes(sensed) != before

    def test_write_refreshes_drifted_cells(self):
        device = make_drift_device(retention_mean=5)
        controller = MemoryController(device)
        original = controller.read(0, SEGMENT)
        device.advance_time(50)
        assert controller.read(0, SEGMENT) != original
        # Rewriting the same logical value force-pulses the drifted cells:
        # the full value senses clean again.
        controller.write(0, np.frombuffer(original, dtype=np.uint8))
        assert controller.read(0, SEGMENT) == original
        assert popcount_array(device.drift_mask(0, SEGMENT)) == 0

    def test_refresh_resets_retention_timers(self):
        device = make_drift_device(retention_mean=5)
        controller = MemoryController(device)
        original = controller.read(0, SEGMENT)
        device.advance_time(50)
        controller.write(0, np.frombuffer(original, dtype=np.uint8))
        # A freshly refreshed segment survives another window shorter than
        # its smallest per-cell budget…
        window = int(device._drift_budget[: SEGMENT * 8].min()) - 1
        device.advance_time(window)
        assert popcount_array(device.drift_mask(0, SEGMENT)) == 0
        # …and drifts again once its budgets elapse anew.
        device.advance_time(100)
        assert popcount_array(device.drift_mask(0, SEGMENT)) > 0

    def test_controller_refresh_heals_and_counts(self):
        device = make_drift_device(retention_mean=5)
        controller = MemoryController(device)
        original = controller.read(0, SEGMENT)
        device.advance_time(50)
        drifted = popcount_array(device.drift_mask(0, SEGMENT))
        assert drifted > 0
        healed = controller.refresh(0, SEGMENT)
        assert healed == drifted
        assert controller.read(0, SEGMENT) == original
        assert controller.refresh(0, SEGMENT) == 0  # idempotent

    def test_batched_program_refreshes_drift(self):
        device = make_drift_device(retention_mean=5)
        device.advance_time(50)
        addrs = np.array([0, SEGMENT], dtype=np.int64)
        stored = np.vstack([
            device.read_array(0, SEGMENT) ^ device.drift_mask(0, SEGMENT),
            device.read_array(SEGMENT, SEGMENT)
            ^ device.drift_mask(SEGMENT, SEGMENT),
        ])
        masks = np.zeros((2, SEGMENT), dtype=np.uint8)  # DCW: nothing dirty
        device.program_many(addrs, stored, masks)
        assert popcount_array(device.drift_mask(0, 2 * SEGMENT)) == 0


class TestWearAndImmortality:
    def test_wear_scale_accelerates_drift(self):
        # Bit-wear tracking supplies the program-cycle counts the wear
        # coupling divides the budgets by.
        slow = make_drift_device(
            retention_mean=30, wear_scale=0.0, track_bit_wear=True
        )
        fast = make_drift_device(
            retention_mean=30, wear_scale=5.0, track_bit_wear=True
        )
        value = np.zeros(SEGMENT, dtype=np.uint8)
        ones = np.full(SEGMENT, 0xFF, dtype=np.uint8)
        for device in (slow, fast):
            for _ in range(10):  # wear segment 0 heavily
                device.program(0, ones, np.full(SEGMENT, 0xFF, np.uint8))
                device.program(0, value, np.full(SEGMENT, 0xFF, np.uint8))
        slow.advance_time(10)
        fast.advance_time(10)
        assert popcount_array(fast.drift_mask(0, SEGMENT)) > popcount_array(
            slow.drift_mask(0, SEGMENT)
        )

    def test_wear_scale_reads_the_endurance_countdown(self):
        # On mortal media the coupling reads each cell's cycles off the
        # endurance countdown.  A bit-wear-tracking twin given the same
        # cycles (two whole-device pulses stand in for ``age(2)``, which
        # ``bit_wear`` does not see) must drift exactly the same cells.
        counted = make_drift_device(
            retention_mean=30, wear_scale=5.0, track_bit_wear=True
        )
        mortal = make_drift_device(
            retention_mean=30, wear_scale=5.0,
            wearout=WearOutConfig(endurance_mean=1e6, seed=2),
        )
        ones = np.full(SEGMENT, 0xFF, dtype=np.uint8)
        for device in (counted, mortal):
            for i in range(10):
                device.program(i % 3 * SEGMENT, ones * (i % 2), ones)
        mortal.age(2)
        for _ in range(2):
            counted.program(0, np.zeros(8 * SEGMENT, np.uint8), None)
        np.testing.assert_array_equal(mortal.wear_count(), counted.bit_wear)
        counted.advance_time(10)
        mortal.advance_time(10)
        assert popcount_array(mortal.drift_mask(0, 8 * SEGMENT)) > 0
        np.testing.assert_array_equal(
            mortal.drift_mask(0, 8 * SEGMENT),
            counted.drift_mask(0, 8 * SEGMENT),
        )

    def test_immortal_prefix_never_drifts(self):
        device = make_drift_device(
            retention_mean=2, immortal_prefix_segments=2
        )
        device.advance_time(10_000)
        assert popcount_array(device.drift_mask(0, 2 * SEGMENT)) == 0
        assert popcount_array(device.drift_mask(2 * SEGMENT, SEGMENT)) > 0

    def test_stuck_cells_do_not_drift(self):
        from repro.nvm import WearOutConfig

        device = NVMDevice(
            capacity_bytes=8 * SEGMENT,
            segment_size=SEGMENT,
            initial_fill="random",
            seed=7,
            wearout=WearOutConfig(endurance_mean=1, seed=5),
            drift=DriftConfig(retention_mean=2, seed=3),
        )
        device.age(10)  # everything stuck at its current charge
        stuck = device.stuck_cell_count()
        assert stuck == device.capacity_bytes * 8
        assert device.advance_time(100) == 0
        assert device.drifted_cell_count() == 0

    def test_a_drifted_cell_that_dies_reads_its_stored_charge(self):
        """Frozen charge neither drifts nor heals: a cell that wears out
        while drifted stops sensing flipped.  Were it to keep its flag, a
        refresh would rewrite it against a flip no pulse can clear."""
        device = NVMDevice(
            capacity_bytes=8 * SEGMENT,
            segment_size=SEGMENT,
            initial_fill="random",
            seed=7,
            wearout=WearOutConfig(endurance_mean=1000, seed=5),
            drift=DriftConfig(retention_mean=2, seed=3),
        )
        everything = (0, device.capacity_bytes)
        stored = device.peek(*everything)
        assert device.advance_time(1000) > 0
        device.age(10**6)
        assert device.stuck_cell_count() == device.capacity_bytes * 8
        assert device.drifted_cell_count() == 0
        assert not device.drift_mask(*everything).any()
        np.testing.assert_array_equal(device.peek(*everything), stored)


class TestFaultSiteAndPersistence:
    def test_drift_flip_site_fires_once_per_call(self):
        faults = FaultInjector()
        device = make_drift_device(retention_mean=5)
        device.faults = faults
        device.advance_time(50)
        assert faults.hits("device.drift_flip") == 1
        device.advance_time(50)  # nothing new drifts
        assert faults.hits("device.drift_flip") == 1

    def test_save_load_roundtrips_drift_state(self, tmp_path):
        device = make_drift_device(retention_mean=5)
        device.advance_time(7)
        path = tmp_path / "drift.npz"
        device.save(path)
        clone = NVMDevice.load(path)
        assert clone.clock == device.clock
        assert clone.drift == device.drift
        assert np.array_equal(
            clone.drift_mask(0, 8 * SEGMENT),
            device.drift_mask(0, 8 * SEGMENT),
        )
        # The clone keeps drifting on the same schedule.
        clone.advance_time(43)
        device.advance_time(43)
        assert np.array_equal(
            clone.drift_mask(0, 8 * SEGMENT),
            device.drift_mask(0, 8 * SEGMENT),
        )
