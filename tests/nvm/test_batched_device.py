"""Batched device/controller operations vs their sequential equivalents.

``read_arrays``/``program_many``/``write_many`` must account exactly like a
loop of their scalar counterparts: same WriteResults, same stats counters,
same media content, same wear counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dcw import DCW
from repro.baselines.fnw import FNW
from repro.nvm import DriftConfig, MemoryController, NVMDevice, WearOutConfig
from repro.nvm.health import SegmentRetiredError
from repro.nvm.wear_leveling import SegmentSwapWearLeveling

from tests.conftest import assert_stats_equal

SEGMENT_SIZE = 64
N_SEGMENTS = 24


def _device(**kwargs) -> NVMDevice:
    return NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT_SIZE,
        segment_size=SEGMENT_SIZE,
        initial_fill="random",
        seed=5,
        **kwargs,
    )


class TestReadArrays:
    def test_matches_read_array_loop(self):
        batched, sequential = _device(), _device()
        addrs = [0, 192, 64, 512]
        rows = batched.read_arrays(addrs, SEGMENT_SIZE)
        expected = np.stack(
            [sequential.read_array(a, SEGMENT_SIZE) for a in addrs]
        )
        np.testing.assert_array_equal(rows, expected)
        assert_stats_equal(batched.stats, sequential.stats)

    def test_out_of_range_raises(self):
        device = _device()
        with pytest.raises(IndexError):
            device.read_arrays([0, device.capacity_bytes], 8)


class TestProgramMany:
    def _batch(self, rng, n_rows):
        addrs = rng.choice(N_SEGMENTS, size=n_rows, replace=False) * SEGMENT_SIZE
        new = rng.integers(0, 256, size=(n_rows, SEGMENT_SIZE), dtype=np.uint8)
        masks = rng.integers(0, 256, size=(n_rows, SEGMENT_SIZE), dtype=np.uint8)
        aux = rng.integers(0, 5, size=n_rows)
        return addrs.astype(np.int64), new, masks, aux

    def test_matches_sequential_program(self):
        batched = _device(track_bit_wear=True)
        sequential = _device(track_bit_wear=True)
        rng = np.random.default_rng(9)
        addrs, new, masks, aux = self._batch(rng, 6)

        got = batched.program_many(addrs, new, masks, aux)
        expected = [
            sequential.program(int(a), new[i], masks[i], int(aux[i]))
            for i, a in enumerate(addrs)
        ]
        assert list(got) == expected
        assert_stats_equal(batched.stats, sequential.stats)
        np.testing.assert_array_equal(
            batched.peek(0, batched.capacity_bytes),
            sequential.peek(0, sequential.capacity_bytes),
        )
        np.testing.assert_array_equal(
            batched.segment_write_count, sequential.segment_write_count
        )
        np.testing.assert_array_equal(batched.bit_wear, sequential.bit_wear)

    def test_default_mask_programs_everything(self):
        batched, sequential = _device(), _device()
        rng = np.random.default_rng(11)
        addrs = np.array([0, SEGMENT_SIZE * 3], dtype=np.int64)
        new = rng.integers(0, 256, size=(2, SEGMENT_SIZE), dtype=np.uint8)
        got = batched.program_many(addrs, new)
        expected = [
            sequential.program(int(a), new[i]) for i, a in enumerate(addrs)
        ]
        assert list(got) == expected

    def test_unaligned_rows_match_sequential(self):
        # Rows not aligned to cache lines are laid out at their offsets
        # over whole line slots to count dirty lines.
        batched, sequential = _device(), _device()
        rng = np.random.default_rng(13)
        addrs = np.array([3, 200, 530], dtype=np.int64)
        new = rng.integers(0, 256, size=(3, 17), dtype=np.uint8)
        masks = rng.integers(0, 256, size=(3, 17), dtype=np.uint8)
        got = batched.program_many(addrs, new, masks)
        expected = [
            sequential.program(int(a), new[i], masks[i])
            for i, a in enumerate(addrs)
        ]
        assert list(got) == expected
        assert_stats_equal(batched.stats, sequential.stats)

    @pytest.mark.parametrize("length, offset", [(SEGMENT_SIZE, 0), (17, 5)])
    def test_matches_sequential_program_wearing_out_and_drifting(
        self, length, offset
    ):
        # Wear-out and drift on together, over rounds that kill cells in
        # the middle of a batch and drift others between batches: every
        # overlay must stay the sequential loop's, pulse for pulse.
        kwargs = dict(
            track_bit_wear=True,
            wearout=WearOutConfig(
                endurance_mean=3, endurance_sigma=0.5, seed=2
            ),
            drift=DriftConfig(
                retention_mean=3, retention_sigma=0.5, seed=4, wear_scale=0.5
            ),
        )
        batched, sequential = _device(**kwargs), _device(**kwargs)
        rng = np.random.default_rng(21)
        capacity = batched.capacity_bytes
        for round_ in range(8):
            segs = rng.choice(N_SEGMENTS, size=6, replace=False)
            addrs = (segs * SEGMENT_SIZE + offset).astype(np.int64)
            new = rng.integers(0, 256, size=(6, length), dtype=np.uint8)
            masks = rng.integers(0, 256, size=(6, length), dtype=np.uint8)
            got = batched.program_many(addrs, new, masks)
            expected = [
                sequential.program(int(a), new[i], masks[i])
                for i, a in enumerate(addrs)
            ]
            assert list(got) == expected
            for device in (batched, sequential):
                device.advance_time(1 + round_ % 3)
            assert_stats_equal(batched.stats, sequential.stats)
            for view in ("peek", "stuck_mask", "drift_mask"):
                np.testing.assert_array_equal(
                    getattr(batched, view)(0, capacity),
                    getattr(sequential, view)(0, capacity),
                )
            np.testing.assert_array_equal(
                batched.wear_count(), sequential.wear_count()
            )
            np.testing.assert_array_equal(
                batched.bit_wear, sequential.bit_wear
            )
            np.testing.assert_array_equal(
                batched.segment_write_count, sequential.segment_write_count
            )
        assert batched.stuck_cell_count() > 0
        assert batched.stats.bits_flipped < batched.stats.bits_programmed

    def test_overlapping_rows_raise(self):
        device = _device()
        new = np.zeros((2, SEGMENT_SIZE), dtype=np.uint8)
        with pytest.raises(ValueError, match="must not overlap"):
            device.program_many([0, SEGMENT_SIZE // 2], new)

    def test_empty_batch(self):
        device = _device()
        assert list(device.program_many(
            np.empty(0, dtype=np.int64),
            np.empty((0, SEGMENT_SIZE), dtype=np.uint8),
        )) == []

    def test_empty_batch_still_needs_a_positive_length(self):
        # The scalar forms refuse a zero-length access; so do the batched
        # ones, rows or no rows.
        device = _device()
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="length must be positive"):
            device.program_many(empty, np.empty((0, 0), dtype=np.uint8))
        with pytest.raises(ValueError, match="length must be positive"):
            device.read_arrays(empty, 0)
        assert device.read_arrays(empty, 8).shape == (0, 8)


class TestControllerWriteMany:
    def test_matches_sequential_write(self):
        batched = MemoryController(_device())
        sequential = MemoryController(_device())
        rng = np.random.default_rng(17)
        addrs = [i * SEGMENT_SIZE for i in (0, 4, 9, 2)]
        values = [
            rng.integers(0, 256, size=SEGMENT_SIZE, dtype=np.uint8).tobytes()
            for _ in addrs
        ]
        got = batched.write_many(addrs, values)
        expected = [
            sequential.write(a, v) for a, v in zip(addrs, values)
        ]
        assert list(got) == expected
        assert_stats_equal(batched.stats, sequential.stats)
        for addr in addrs:
            assert batched.read(addr, SEGMENT_SIZE) == sequential.read(
                addr, SEGMENT_SIZE
            )

    def test_duplicate_segment_falls_back_to_sequential(self):
        # The same segment twice in one batch is order-dependent (the second
        # write's old content is the first write's output) and must take the
        # scalar path.
        batched = MemoryController(_device())
        sequential = MemoryController(_device())
        addrs = [0, 0]
        values = [b"a" * SEGMENT_SIZE, b"b" * SEGMENT_SIZE]
        got = batched.write_many(addrs, values)
        expected = [sequential.write(a, v) for a, v in zip(addrs, values)]
        assert list(got) == expected
        assert batched.read(0, SEGMENT_SIZE) == b"b" * SEGMENT_SIZE

    def test_wear_leveling_falls_back_to_sequential(self):
        # An active remapper may remap mid-batch; write_many must produce
        # exactly what the sequential loop produces.
        make = lambda: MemoryController(
            _device(), wear_leveling=SegmentSwapWearLeveling(period=2)
        )
        batched, sequential = make(), make()
        rng = np.random.default_rng(19)
        addrs = [i * SEGMENT_SIZE for i in (1, 3, 5, 7)]
        values = [
            rng.integers(0, 256, size=SEGMENT_SIZE, dtype=np.uint8).tobytes()
            for _ in addrs
        ]
        got = batched.write_many(addrs, values)
        expected = [sequential.write(a, v) for a, v in zip(addrs, values)]
        assert list(got) == expected
        for addr in addrs:
            assert batched.read(addr, SEGMENT_SIZE) == sequential.read(
                addr, SEGMENT_SIZE
            )

    def test_length_mismatch_raises(self):
        controller = MemoryController(_device())
        with pytest.raises(ValueError, match="must match"):
            controller.write_many([0], [b"a", b"b"])

    def test_empty(self):
        controller = MemoryController(_device())
        assert controller.write_many([], []) == []


class TestControllerReadMany:
    def test_matches_sequential_read(self):
        # Two 64-B rows (one gather), a lone 24-B row and a repeat.
        addrs = [0, 5 * SEGMENT_SIZE, 9 * SEGMENT_SIZE + 8, 0]
        lengths = [SEGMENT_SIZE, SEGMENT_SIZE, 24, SEGMENT_SIZE]
        rng = np.random.default_rng(9)
        values = [rng.integers(0, 256, n, dtype=np.uint8) for n in lengths[:3]]
        # DCW stores the logical bytes as they are; Flip-N-Write stores
        # some words inverted, so its rows must be decoded one by one.
        for scheme in (DCW, FNW):
            batched = MemoryController(_device(), scheme())
            sequential = MemoryController(_device(), scheme())
            for controller in (batched, sequential):
                for addr, value in zip(addrs, values):
                    controller.write(addr, value)
            if scheme is FNW:
                assert any(f.any() for f in batched.scheme._flags.values())
            got = batched.read_many(addrs, lengths)
            expected = [sequential.read(a, n) for a, n in zip(addrs, lengths)]
            assert got == expected
            assert_stats_equal(batched.stats, sequential.stats)

    @pytest.mark.parametrize(
        ("bad_addr", "error"),
        [
            (5 * SEGMENT_SIZE + 8, ValueError),  # crosses a segment end
            (N_SEGMENTS * SEGMENT_SIZE, IndexError),  # past the device
            (-SEGMENT_SIZE, IndexError),  # before it
        ],
    )
    def test_out_of_bounds_row_raises_what_read_raises(self, bad_addr, error):
        """A gathered row (its length has two rows) is bounds-checked as
        :meth:`read` checks it."""
        controller = MemoryController(_device())
        with pytest.raises(error):
            controller.read(bad_addr, SEGMENT_SIZE)
        with pytest.raises(error):
            controller.read_many([0, bad_addr], [SEGMENT_SIZE] * 2)

    def test_lone_length_row_goes_through_read(self, monkeypatch):
        controller = MemoryController(_device())
        device = controller.device
        calls = {"read": 0, "read_arrays": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(
            controller, "read", counted("read", controller.read)
        )
        monkeypatch.setattr(
            device, "read_arrays", counted("read_arrays", device.read_arrays)
        )
        controller.read_many([0, SEGMENT_SIZE, 128], [SEGMENT_SIZE, 8, 8])
        assert calls == {"read": 1, "read_arrays": 1}
        reads = device.stats.reads
        controller.read_many([SEGMENT_SIZE], [SEGMENT_SIZE])
        assert calls == {"read": 2, "read_arrays": 1}
        assert device.stats.reads == reads + 1


def _aged_controller(cycles: int, ecp_entries: int):
    """A controller over media aged ``cycles`` program cycles past a tiny
    endurance budget: many cells are already stuck, so verify-after-write
    has corrections to record and segments to retire."""
    device = _device(
        wearout=WearOutConfig(
            endurance_mean=6, endurance_sigma=0.4, seed=2,
            ecp_entries=ecp_entries,
        )
    )
    device.age(cycles)
    return MemoryController(device), device


def _verify_twin(seed: int, n_segments: int, cycles: int, ecp_entries: int):
    """Write the same rows through ``write_many`` and row by row; returns
    the retired rows after asserting the two controllers are twins."""
    rng = np.random.default_rng(seed)
    addrs, values = [], []
    for seg in rng.choice(N_SEGMENTS, size=n_segments, replace=False):
        base = int(seg) * SEGMENT_SIZE
        # Whole-segment rows and pairs of half-segment rows sharing one
        # segment: two lengths, hence two batched passes.
        spans = [(0, 64)] if rng.random() < 0.5 else [(0, 24), (32, 24)]
        for offset, length in spans:
            addrs.append(base + offset)
            values.append(
                rng.integers(0, 256, length, dtype=np.uint8).tobytes()
            )
    batched, batched_dev = _aged_controller(cycles, ecp_entries)
    scalar, scalar_dev = _aged_controller(cycles, ecp_entries)

    try:
        got = batched.write_many(addrs, values)
        got_retired = []
    except SegmentRetiredError as exc:
        got, got_retired = exc.results, exc.rows
    expected, expected_retired = [], []
    for row, (addr, value) in enumerate(zip(addrs, values)):
        try:
            expected.append(scalar.write(addr, value))
        except SegmentRetiredError:
            expected.append(None)
            expected_retired.append(row)

    assert list(got) == expected
    assert got_retired == expected_retired
    np.testing.assert_array_equal(
        batched_dev.peek(0, batched_dev.capacity_bytes),
        scalar_dev.peek(0, scalar_dev.capacity_bytes),
    )
    assert_stats_equal(batched_dev.stats, scalar_dev.stats)
    for a, b in zip(
        batched_dev.ecc.state_arrays(), scalar_dev.ecc.state_arrays()
    ):
        np.testing.assert_array_equal(a, b)
    assert batched.verify_reads == scalar.verify_reads == len(addrs)
    assert batched.corrections_recorded == scalar.corrections_recorded
    assert batched_dev.health.retired == scalar_dev.health.retired
    assert batched_dev.health.retiring == scalar_dev.health.retiring
    assert batched_dev.stuck_cell_count() == scalar_dev.stuck_cell_count()
    return got_retired


class TestWriteManyVerifyTwin:
    """``write_many`` verifies in-batch (one read-back per pass); on aged
    media it must stay the exact twin of row-by-row ``write`` calls."""

    @given(
        seed=st.integers(0, 2**16),
        n_segments=st.integers(1, 10),
        cycles=st.integers(0, 2),  # 3+ cycles kill every segment outright
        ecp_entries=st.integers(1, 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_row_by_row_write(
        self, seed, n_segments, cycles, ecp_entries
    ):
        _verify_twin(seed, n_segments, cycles, ecp_entries)

    def test_one_row_retires_the_rest_stay_written(self):
        retired = _verify_twin(seed=0, n_segments=8, cycles=1, ecp_entries=1)
        assert retired == [1]
