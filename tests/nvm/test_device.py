"""Device tests: programming semantics, accounting, wear counters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.device import NVMDevice
from repro.util.bits import hamming_bytes


def small_device(**kwargs) -> NVMDevice:
    defaults = dict(capacity_bytes=1024, segment_size=64)
    defaults.update(kwargs)
    return NVMDevice(**defaults)


class TestConstruction:
    def test_segment_count(self):
        assert small_device().n_segments == 16

    def test_zero_fill(self):
        dev = small_device(initial_fill="zero")
        assert not dev.peek(0, 1024).any()

    def test_random_fill_deterministic(self):
        a = small_device(initial_fill="random", seed=3).peek(0, 64)
        b = small_device(initial_fill="random", seed=3).peek(0, 64)
        assert np.array_equal(a, b)

    def test_bad_fill_raises(self):
        with pytest.raises(ValueError):
            small_device(initial_fill="garbage")

    @pytest.mark.parametrize("capacity,segment", [(0, 64), (100, 64), (-64, 64), (64, 0)])
    def test_bad_geometry_raises(self, capacity, segment):
        with pytest.raises(ValueError):
            NVMDevice(capacity_bytes=capacity, segment_size=segment)

    def test_segment_address(self):
        dev = small_device()
        assert dev.segment_address(0) == 0
        assert dev.segment_address(15) == 15 * 64
        with pytest.raises(IndexError):
            dev.segment_address(16)


class TestProgram:
    def test_full_program_stores_data(self):
        dev = small_device()
        data = bytes(range(64))
        dev.program(0, data)
        assert dev.read(0, 64) == data

    def test_masked_program_touches_only_masked_bits(self):
        dev = small_device(initial_fill="zero")
        new = np.full(4, 0xFF, dtype=np.uint8)
        mask = np.array([0xF0, 0x00, 0xFF, 0x01], dtype=np.uint8)
        dev.program(0, new, program_mask=mask)
        assert dev.peek(0, 4).tolist() == [0xF0, 0x00, 0xFF, 0x01]

    def test_bits_programmed_counts_mask(self):
        dev = small_device(initial_fill="zero")
        mask = np.array([0x0F, 0xFF], dtype=np.uint8)
        result = dev.program(0, np.zeros(2, dtype=np.uint8), program_mask=mask)
        assert result.bits_programmed == 12

    def test_bits_flipped_counts_changes_only(self):
        dev = small_device(initial_fill="zero")
        data = np.array([0xFF], dtype=np.uint8)
        first = dev.program(0, data)
        again = dev.program(0, data)
        assert first.bits_flipped == 8
        assert again.bits_flipped == 0
        assert again.bits_programmed == 8  # unmasked: cells still pulsed

    def test_dirty_lines_skips_clean_lines(self):
        dev = small_device(initial_fill="zero")
        new = np.zeros(128, dtype=np.uint8)
        mask = np.zeros(128, dtype=np.uint8)
        mask[70] = 0xFF  # activity only in the second 64 B line
        result = dev.program(0, new, program_mask=mask)
        assert result.dirty_lines == 1

    def test_dirty_lines_unaligned(self):
        dev = small_device(initial_fill="zero")
        # 8 bytes straddling the line boundary at 64.
        result = dev.program(60, np.full(8, 0xFF, dtype=np.uint8))
        assert result.dirty_lines == 2

    def test_mask_length_mismatch_raises(self):
        dev = small_device()
        with pytest.raises(ValueError):
            dev.program(0, np.zeros(4, dtype=np.uint8),
                        program_mask=np.zeros(3, dtype=np.uint8))

    def test_out_of_range_raises(self):
        dev = small_device()
        with pytest.raises(IndexError):
            dev.program(1020, np.zeros(8, dtype=np.uint8))

    def test_wrong_dtype_raises(self):
        dev = small_device()
        with pytest.raises(TypeError):
            dev.program(0, np.zeros(4, dtype=np.int32))

    def test_segment_write_count(self):
        dev = small_device()
        dev.program(0, np.zeros(64, dtype=np.uint8))
        dev.program(0, np.zeros(64, dtype=np.uint8))
        dev.program(64, np.zeros(64, dtype=np.uint8))
        assert dev.segment_write_count[0] == 2
        assert dev.segment_write_count[1] == 1

    def test_write_spanning_segments_counts_both(self):
        dev = small_device()
        dev.program(32, np.zeros(64, dtype=np.uint8))
        assert dev.segment_write_count[0] == 1
        assert dev.segment_write_count[1] == 1

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    @settings(max_examples=30)
    def test_dcw_flip_accounting_matches_hamming(self, old, new):
        n = min(len(old), len(new))
        old_arr = np.frombuffer(old[:n], dtype=np.uint8)
        new_arr = np.frombuffer(new[:n], dtype=np.uint8)
        dev = small_device(initial_fill="zero")
        dev.program(0, old_arr)
        mask = np.bitwise_xor(old_arr, new_arr)
        result = dev.program(0, new_arr, program_mask=mask)
        assert result.bits_programmed == hamming_bytes(old_arr, new_arr)
        assert result.bits_flipped == result.bits_programmed
        assert np.array_equal(dev.peek(0, n), new_arr)


class TestWearTracking:
    def test_bit_wear_disabled_raises(self):
        with pytest.raises(RuntimeError):
            _ = small_device().bit_wear

    def test_bit_wear_counts_programmed_positions(self):
        dev = small_device(track_bit_wear=True, initial_fill="zero")
        mask = np.array([0b10000001], dtype=np.uint8)
        dev.program(0, np.zeros(1, dtype=np.uint8), program_mask=mask)
        dev.program(0, np.zeros(1, dtype=np.uint8), program_mask=mask)
        assert dev.bit_wear[0] == 2      # MSB of byte 0
        assert dev.bit_wear[7] == 2      # LSB of byte 0
        assert dev.bit_wear[1:7].sum() == 0

    def test_bit_wear_offset_addressing(self):
        dev = small_device(track_bit_wear=True, initial_fill="zero")
        dev.program(10, np.zeros(1, dtype=np.uint8),
                    program_mask=np.array([0x80], dtype=np.uint8))
        assert dev.bit_wear[80] == 1


class TestStatsAccounting:
    def test_read_accounting(self):
        dev = small_device()
        dev.read(0, 64)
        assert dev.stats.reads == 1
        assert dev.stats.bytes_read == 64
        assert dev.stats.read_energy_pj > 0

    def test_peek_is_unaccounted(self):
        dev = small_device()
        dev.peek(0, 64)
        dev.peek(3 * 64, 64)
        assert dev.stats.reads == 0

    def test_reset_stats_preserves_content(self):
        dev = small_device()
        dev.program(0, bytes(range(64)))
        dev.reset_stats()
        assert dev.stats.writes == 0
        assert dev.read(0, 64) == bytes(range(64))

    def test_energy_accumulates(self):
        dev = small_device(initial_fill="zero")
        r1 = dev.program(0, np.full(64, 0xFF, dtype=np.uint8))
        r2 = dev.program(64, np.full(64, 0xFF, dtype=np.uint8))
        assert dev.stats.write_energy_pj == pytest.approx(r1.energy_pj + r2.energy_pj)
