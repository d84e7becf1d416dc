"""Wear-leveling tests: mapping consistency and swap accounting."""

import numpy as np
import pytest

from repro.nvm.controller import MemoryController
from repro.nvm.device import NVMDevice
from repro.nvm.wear_leveling import (
    NoWearLeveling,
    SegmentSwapWearLeveling,
    StartGapWearLeveling,
)


def make_controller(wl, n_segments=16, seed=9):
    dev = NVMDevice(
        capacity_bytes=n_segments * 64,
        segment_size=64,
        initial_fill="random",
        seed=seed,
    )
    return MemoryController(dev, wear_leveling=wl), dev


class TestNoWearLeveling:
    def test_identity_mapping(self):
        controller, device = make_controller(NoWearLeveling())
        assert controller.n_segments == device.n_segments
        for seg in range(controller.n_segments):
            assert controller.wear_leveling.to_physical(seg) == seg


class TestSegmentSwap:
    def test_period_validation(self):
        with pytest.raises(ValueError):
            SegmentSwapWearLeveling(period=0)

    def test_swap_fires_every_period(self):
        wl = SegmentSwapWearLeveling(period=4, seed=0)
        controller, _ = make_controller(wl)
        for i in range(12):
            controller.write((i % 4) * 64, bytes(64))
        assert wl.swaps_performed == 3

    def test_contents_survive_swapping(self):
        wl = SegmentSwapWearLeveling(period=1, seed=1)
        controller, _ = make_controller(wl)
        rng = np.random.default_rng(2)
        expected = {}
        for i in range(60):
            seg = int(rng.integers(0, controller.n_segments))
            data = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            controller.write(seg * 64, data)
            expected[seg] = data
        for seg, data in expected.items():
            assert controller.read(seg * 64, 64) == data

    def test_mapping_is_bijective_after_swaps(self):
        """Logical segments map one-to-one onto every physical segment
        except the (rotating) scratch."""
        wl = SegmentSwapWearLeveling(period=1, seed=3)
        controller, device = make_controller(wl)
        for i in range(40):
            controller.write((i % controller.n_segments) * 64, bytes(64))
        physical = [wl.to_physical(s) for s in range(controller.n_segments)]
        assert sorted(physical + [wl._scratch_seg]) == list(
            range(device.n_segments)
        )

    def test_exposes_one_less_segment(self):
        controller, device = make_controller(
            SegmentSwapWearLeveling(period=2)
        )
        assert controller.n_segments == device.n_segments - 1

    def test_too_small_device_raises(self):
        dev = NVMDevice(capacity_bytes=64, segment_size=64)
        with pytest.raises(ValueError):
            SegmentSwapWearLeveling(period=1).attach(dev)

    def test_swap_traffic_is_accounted(self):
        wl = SegmentSwapWearLeveling(period=1, seed=4)
        controller, device = make_controller(wl)
        before = device.stats.writes
        controller.write(0, bytes(64))  # triggers a swap: 2 extra programs
        assert device.stats.writes >= before + 2

    def test_unattached_raises(self):
        with pytest.raises(RuntimeError):
            SegmentSwapWearLeveling(period=2).to_physical(0)


class TestStartGap:
    def test_exposes_one_less_segment(self):
        wl = StartGapWearLeveling(period=2)
        controller, _ = make_controller(wl)
        assert controller.n_segments == 15

    def test_mapping_is_injective_and_avoids_gap(self):
        wl = StartGapWearLeveling(period=1)
        controller, _ = make_controller(wl)
        for round_idx in range(50):
            controller.write(
                (round_idx % controller.n_segments) * 64, bytes(64)
            )
            physical = [
                wl.to_physical(s) for s in range(controller.n_segments)
            ]
            assert len(set(physical)) == len(physical)
            assert wl._gap not in physical

    def test_contents_survive_gap_rotation(self):
        wl = StartGapWearLeveling(period=1)
        controller, _ = make_controller(wl)
        rng = np.random.default_rng(5)
        expected = {}
        for i in range(100):
            seg = int(rng.integers(0, controller.n_segments))
            data = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            controller.write(seg * 64, data)
            expected[seg] = data
        for seg, data in expected.items():
            assert controller.read(seg * 64, 64) == data

    def test_gap_completes_revolutions(self):
        wl = StartGapWearLeveling(period=1)
        controller, _ = make_controller(wl, n_segments=4)
        # 4 physical segments -> gap returns home every 4 moves.
        for i in range(16):
            controller.write((i % 3) * 64, bytes(64))
        assert wl.moves_performed == 16

    def test_too_small_device_raises(self):
        wl = StartGapWearLeveling(period=1)
        dev = NVMDevice(capacity_bytes=64, segment_size=64)
        with pytest.raises(ValueError):
            wl.attach(dev)

    def test_out_of_range_logical_raises(self):
        wl = StartGapWearLeveling(period=1)
        make_controller(wl)
        with pytest.raises(IndexError):
            wl.to_physical(15)  # only 15 logical segments: 0..14


class TestWriteManyScalarFallback:
    """``controller.write_many`` must fall back to per-row writes — with
    byte-identical results — under an active wear-leveling remapper
    (mid-batch remaps are order-dependent).  Verify-after-write is batched
    too; its twin lives in ``test_batched_device.py``."""

    def _workload(self, controller, seed=5, n_writes=24):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, controller.n_segments, n_writes) * 64
        values = [
            rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            for _ in range(n_writes)
        ]
        return [int(a) for a in addrs], values

    @pytest.mark.parametrize(
        "make_wl",
        [
            lambda: SegmentSwapWearLeveling(period=2, seed=3),
            lambda: StartGapWearLeveling(period=2),
        ],
        ids=["swap-scratch", "start-gap"],
    )
    def test_batched_equals_sequential_under_wear_leveling(self, make_wl):
        ctrl_many, dev_many = make_controller(make_wl())
        ctrl_seq, dev_seq = make_controller(make_wl())
        addrs, values = self._workload(ctrl_many)

        results_many = ctrl_many.write_many(addrs, values)
        results_seq = [
            ctrl_seq.write(a, v) for a, v in zip(addrs, values)
        ]

        assert results_many == results_seq
        assert np.array_equal(
            dev_many.peek(0, dev_many.capacity_bytes),
            dev_seq.peek(0, dev_seq.capacity_bytes),
        )
        for seg in range(ctrl_many.n_segments):
            assert ctrl_many.wear_leveling.to_physical(
                seg
            ) == ctrl_seq.wear_leveling.to_physical(seg)
            assert ctrl_many.read(seg * 64, 64) == ctrl_seq.read(seg * 64, 64)
