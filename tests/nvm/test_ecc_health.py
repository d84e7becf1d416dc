"""Error-Correcting Pointers and segment health: correction entries,
verify-after-write, retirement and spare management."""

import numpy as np
import pytest

from repro.nvm import (
    ErrorCorrectingPointers,
    HealthManager,
    MemoryController,
    NVMDevice,
    SegmentRetiredError,
    StartGapWearLeveling,
    WearOutConfig,
)
from repro.testing import FaultInjector

SEG = 32


def worn_device(ecp_entries: int = 16, **kwargs) -> NVMDevice:
    wearout = kwargs.pop("wearout", None) or WearOutConfig(
        endurance_mean=2, endurance_sigma=0.0, ecp_entries=ecp_entries
    )
    return NVMDevice(
        capacity_bytes=8 * SEG, segment_size=SEG, wearout=wearout, **kwargs
    )


def ecp(entries: int = 6, size: int = SEG) -> ErrorCorrectingPointers:
    """An ECP table over a fresh slot plane for 8 segments."""
    return ErrorCorrectingPointers(size, np.zeros((8, entries), np.int32))


def kill_byte(device: NVMDevice, addr: int, value: int) -> None:
    """Exhaust one byte's cells (mean=2 endurance), leaving it stuck at
    ``value``."""
    device.program(addr, bytes([value ^ 0xFF]))
    device.program(addr, bytes([value]))
    assert device.stuck_mask(addr, 1)[0] == 0xFF


class TestErrorCorrectingPointers:
    def test_correct_without_entries_returns_input(self):
        ecc = ecp()
        data = np.zeros(SEG, dtype=np.uint8)
        assert ecc.correct(0, data) is data

    def test_correct_patches_msb_first(self):
        ecc = ecp()
        assert ecc.record(0, [0, 15], [1, 1])
        out = ecc.correct(0, np.zeros(SEG, dtype=np.uint8))
        assert out[0] == 0x80  # bit 0 is the MSB of byte 0
        assert out[1] == 0x01  # bit 15 is the LSB of byte 1

    def test_correct_clears_bits_too(self):
        ecc = ecp()
        assert ecc.record(0, [7], [0])
        out = ecc.correct(0, np.full(SEG, 0xFF, dtype=np.uint8))
        assert out[0] == 0xFE

    def test_correct_respects_sub_segment_window(self):
        ecc = ecp()
        assert ecc.record(0, [10 * 8], [1])  # byte 10, MSB
        window = ecc.correct(0, np.zeros(4, dtype=np.uint8), offset=10)
        assert window[0] == 0x80
        outside = ecc.correct(0, np.zeros(4, dtype=np.uint8), offset=20)
        assert not outside.any()

    def test_correct_never_mutates_input(self):
        ecc = ecp()
        assert ecc.record(0, [0], [1])
        data = np.zeros(SEG, dtype=np.uint8)
        ecc.correct(0, data)
        assert not data.any()

    def test_record_updates_in_place_without_new_entries(self):
        ecc = ecp(1)
        assert ecc.record(0, [3], [1])
        assert ecc.record(0, [3], [0])  # same dead cell, new replacement
        assert ecc.entries_used(0) == 1
        assert ecc.correct(0, np.full(SEG, 0xFF, dtype=np.uint8))[0] == 0xEF

    def test_record_is_all_or_nothing(self):
        ecc = ecp(2)
        assert not ecc.record(0, [1, 2, 3], [1, 1, 1])
        assert ecc.entries_used(0) == 0
        assert ecc.record(0, [1, 2], [1, 1])
        assert ecc.at_capacity(0)
        assert not ecc.record(0, [3], [1])
        assert ecc.entries_used(0) == 2  # the failed record changed nothing

    def test_capacity_counts_only_fresh_offsets(self):
        ecc = ecp(2)
        assert ecc.record(0, [1, 2], [1, 1])
        assert ecc.record(0, [1, 2], [0, 0])  # updates fit at capacity

    def test_inspection_counters(self):
        ecc = ecp()
        assert ecc.record(2, [0], [1])
        assert ecc.record(5, [1, 2], [0, 1])
        assert ecc.corrections_active == 3
        assert [ecc.entries_used(s) for s in (2, 5, 3)] == [1, 2, 0]

    def test_state_round_trip(self):
        ecc = ecp()
        assert ecc.record(1, [4, 9], [1, 0])
        assert ecc.record(6, [250], [1])
        restored = ecp()
        restored.restore_state(*ecc.state_arrays())
        for got, want in zip(restored.state_arrays(), ecc.state_arrays()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("size,entries", [(0, 6), (-1, 6), (32, 0)])
    def test_constructor_validation(self, size, entries):
        with pytest.raises(ValueError):
            ecp(entries, size)


class TestVerifyAfterWrite:
    def test_verify_default_tracks_wearout(self):
        assert MemoryController(worn_device()).verify_writes
        immortal = NVMDevice(capacity_bytes=8 * SEG, segment_size=SEG)
        assert not MemoryController(immortal).verify_writes

    def test_verify_requires_wearout_model(self):
        immortal = NVMDevice(capacity_bytes=8 * SEG, segment_size=SEG)
        ctrl = MemoryController(immortal)
        assert ctrl.ecc is None and ctrl.health_manager is None

    def test_verify_rejects_active_wear_leveling(self):
        with pytest.raises(ValueError, match="wear leveling"):
            MemoryController(
                worn_device(), wear_leveling=StartGapWearLeveling(4)
            )

    def test_verify_records_corrections_and_reads_heal(self):
        device = worn_device(ecp_entries=16)
        kill_byte(device, 0, 0x00)
        ctrl = MemoryController(device)
        ctrl.write(0, b"\xff" * SEG)
        # The stuck byte refused all 8 pulses; ECP substitutes them.
        assert ctrl.corrections_recorded == 8
        assert ctrl.ecc.entries_used(0) == 8
        assert ctrl.verify_reads >= 1
        assert ctrl.read(0, SEG) == b"\xff" * SEG
        assert device.read(0, 1) == b"\x00"  # raw media still disagrees

    def test_verify_retires_segment_past_ecp_capacity(self):
        device = worn_device(ecp_entries=4)  # fewer than one byte of bits
        kill_byte(device, 0, 0x00)
        ctrl = MemoryController(device)
        with pytest.raises(SegmentRetiredError) as info:
            ctrl.write(0, b"\xff" * SEG)
        assert info.value.segment == 0
        assert device.health.retired == {0}
        assert ctrl.health_manager.is_retired(0)

    def test_verify_skips_retired_segments(self):
        device = worn_device(ecp_entries=4)
        kill_byte(device, 0, 0x00)
        ctrl = MemoryController(device)
        with pytest.raises(SegmentRetiredError):
            ctrl.write(0, b"\xff" * SEG)
        # Rollback-style restores onto the dead segment must not cascade.
        ctrl.write(0, b"\x12" * SEG)
        assert device.health.retired == {0}

    def test_at_capacity_marks_segment_retiring(self):
        device = worn_device(ecp_entries=8)  # exactly one dead byte fits
        kill_byte(device, 0, 0x00)
        ctrl = MemoryController(device)
        ctrl.write(0, b"\xff" * SEG)
        health = ctrl.health_manager
        assert device.health.retiring == {0}
        assert health.pop_pending_relocation() == 0
        assert health.pop_pending_relocation() is None

    def test_dcw_never_pulses_corrected_matching_cells(self):
        device = worn_device(ecp_entries=16)
        kill_byte(device, 0, 0x00)
        ctrl = MemoryController(device)
        ctrl.write(0, b"\xff" * SEG)
        recorded = ctrl.corrections_recorded
        # Rewriting identical content plans against the *corrected* old
        # bytes: nothing differs, nothing is pulsed, nothing new recorded.
        result = ctrl.write(0, b"\xff" * SEG)
        assert result.bits_programmed == 0
        assert ctrl.corrections_recorded == recorded


class TestHealthManager:
    def manager(self, faults=None) -> HealthManager:
        ctrl = MemoryController(worn_device(faults=faults))
        return ctrl.health_manager

    def test_retire_fires_site_before_mutation(self):
        faults = FaultInjector()
        manager = self.manager(faults)
        faults.arm("health.retire", error=RuntimeError("crash"))
        with pytest.raises(RuntimeError):
            manager.retire(2)
        # Crashed before the metadata write: nothing was recorded.
        assert manager.state.retired == set()

    def test_retire_is_idempotent_and_clears_retiring(self):
        manager = self.manager()
        manager.mark_retiring(2)
        manager.retire(2)
        assert manager.state.retired == {2}
        assert manager.state.retiring == set()
        assert manager.pop_pending_relocation() is None
        manager.retire(2)  # no-op
        assert manager.state.retired == {2}

    def test_mark_retiring_queues_once(self):
        manager = self.manager()
        manager.mark_retiring(3)
        manager.mark_retiring(3)
        manager.queue_relocation(3)
        assert manager.pop_pending_relocation() == 3
        assert manager.pop_pending_relocation() is None

    def test_spares_are_fifo(self):
        manager = self.manager()
        manager.add_spares([96, 128])
        assert manager.spares_left == 2
        assert manager.take_spare() == 96
        assert manager.take_spare() == 128
        assert manager.take_spare() is None

    def test_is_unplaceable(self):
        manager = self.manager()
        manager.mark_retiring(1)
        manager.retire(2)
        assert manager.is_unplaceable(1)
        assert manager.is_unplaceable(2)
        assert not manager.is_unplaceable(3)

    def test_telemetry_snapshot(self):
        manager = self.manager()
        manager.retire(1)
        manager.mark_retiring(2)
        manager.add_spares([96])
        telemetry = manager.telemetry()
        assert telemetry["segments_retired"] == 1
        assert telemetry["segments_retiring"] == 1
        assert telemetry["spares_left"] == 1
        assert telemetry["usable_capacity_fraction"] == pytest.approx(7 / 8)
        assert telemetry["stuck_cells"] == 0
        assert telemetry["corrections_active"] == 0

    def test_state_is_shared_with_the_device(self):
        device = worn_device()
        manager = MemoryController(device).health_manager
        manager.retire(5)
        assert device.health.retired == {5}
