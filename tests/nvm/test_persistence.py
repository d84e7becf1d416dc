"""Device snapshot/restore and wear-summary tests."""

import math

import numpy as np
import pytest

from repro.nvm import (
    DriftConfig,
    EnergyModel,
    MemoryController,
    NVMDevice,
    WearOutConfig,
)


class TestSnapshot:
    def test_content_roundtrip(self, tmp_path):
        device = NVMDevice(
            capacity_bytes=8 * 64, segment_size=64, initial_fill="random",
            seed=1,
        )
        device.program(0, bytes(range(64)))
        path = tmp_path / "device.npz"
        device.save(path)
        restored = NVMDevice.load(path)
        assert np.array_equal(restored.peek(0, 8 * 64), device.peek(0, 8 * 64))
        assert restored.capacity_bytes == device.capacity_bytes
        assert restored.segment_size == device.segment_size

    def test_wear_counters_roundtrip(self, tmp_path):
        device = NVMDevice(
            capacity_bytes=4 * 64, segment_size=64, track_bit_wear=True
        )
        device.program(0, bytes([0xFF] * 64))
        device.program(64, bytes([0x0F] * 64))
        path = tmp_path / "worn.npz"
        device.save(path)
        restored = NVMDevice.load(path)
        assert np.array_equal(restored.bit_wear, device.bit_wear)
        assert np.array_equal(
            restored.segment_write_count, device.segment_write_count
        )

    def test_snapshot_without_bit_wear(self, tmp_path):
        device = NVMDevice(capacity_bytes=128, segment_size=64)
        path = tmp_path / "plain.npz"
        device.save(path)
        restored = NVMDevice.load(path)
        with pytest.raises(RuntimeError):
            _ = restored.bit_wear

    def test_stats_are_transient(self, tmp_path):
        device = NVMDevice(capacity_bytes=128, segment_size=64)
        device.program(0, bytes(64))
        path = tmp_path / "stats.npz"
        device.save(path)
        restored = NVMDevice.load(path)
        assert restored.stats.writes == 0

    def test_restored_device_keeps_working(self, tmp_path):
        device = NVMDevice(
            capacity_bytes=8 * 64, segment_size=64, initial_fill="random",
            seed=2,
        )
        controller = MemoryController(device)
        controller.write(64, b"persist-me" + bytes(54))
        path = tmp_path / "live.npz"
        device.save(path)
        restored = NVMDevice.load(path, energy_model=EnergyModel())
        new_controller = MemoryController(restored)
        assert new_controller.read(64, 10) == b"persist-me"
        new_controller.write(128, bytes(range(64)))
        assert new_controller.read(128, 64) == bytes(range(64))


class TestWearSummary:
    def test_segment_statistics(self):
        device = NVMDevice(capacity_bytes=4 * 64, segment_size=64)
        for _ in range(5):
            device.program(0, bytes(64))
        device.program(64, bytes(64))
        assert int(device.segment_write_count.max()) == 5
        assert device.segment_write_count.mean() == pytest.approx(6 / 4)

    def test_bit_wear_statistics(self):
        device = NVMDevice(
            capacity_bytes=2 * 64, segment_size=64, track_bit_wear=True
        )
        for _ in range(10):
            device.program(0, bytes([0xFF] * 64))
        assert int(device.bit_wear.max()) == 10

    def test_summary_without_bit_tracking(self):
        device = NVMDevice(capacity_bytes=128, segment_size=64)
        with pytest.raises(RuntimeError, match="track_bit_wear"):
            device.bit_wear
        assert device.segment_write_count.shape == (2,)


SEG = 64
N_SEGS = 8
CAPACITY = SEG * N_SEGS


def _mortal_drifting(wearout=None, drift=None) -> NVMDevice:
    return NVMDevice(
        capacity_bytes=CAPACITY,
        segment_size=SEG,
        initial_fill="random",
        seed=5,
        track_bit_wear=True,
        wearout=wearout or WearOutConfig(
            endurance_mean=4, endurance_sigma=0.4, seed=9, ecp_entries=3,
            immortal_prefix_segments=1,
        ),
        drift=drift or DriftConfig(
            retention_mean=3, retention_sigma=0.5, seed=4, wear_scale=0.5,
            immortal_prefix_segments=1,
        ),
    )


def _use(device: NVMDevice, seed: int = 1) -> None:
    """Writes, ticks and aging enough to kill and drift cells."""
    rng = np.random.default_rng(seed)
    addrs = np.array([SEG, 3 * SEG + 5, 5 * SEG], dtype=np.int64)
    for _ in range(6):
        device.program_many(
            addrs,
            rng.integers(0, 256, (3, SEG), dtype=np.uint8),
            rng.integers(0, 256, (3, SEG), dtype=np.uint8),
        )
        device.advance_time(2)
    device.age(1)


def _draw(seed, mean, sigma, immortal_segments) -> np.ndarray:
    """The per-cell budget draw, restated: what snapshots that stored the
    budgets hold under ``endurance_budget`` / ``drift_budget``."""
    budgets = np.random.default_rng(seed).lognormal(
        math.log(mean), sigma, CAPACITY * 8
    )
    budgets = np.maximum(budgets, 1.0).astype(np.int64)
    budgets[: immortal_segments * SEG * 8] = 2**62
    return budgets


def _stored_budgets_layout(device: NVMDevice, path) -> None:
    """``device`` written in the layout that also stored both budget
    planes, key by key as that layout's ``save`` wrote it."""
    w, d = device.wearout, device.drift
    segs, offs, vals = device.ecc.state_arrays()
    retired, retiring, spares, reclaimed = device.health.snapshot_arrays()
    np.savez_compressed(
        path,
        content=device._content,
        segment_write_count=device.segment_write_count,
        geometry=np.array([device.capacity_bytes, device.segment_size]),
        bit_wear=device.bit_wear,
        wearout_params=np.array([
            w.endurance_mean, w.endurance_sigma, float(w.seed),
            float(w.ecp_entries), float(w.immortal_prefix_segments),
        ]),
        endurance_budget=_draw(
            w.seed, w.endurance_mean, w.endurance_sigma,
            w.immortal_prefix_segments,
        ),
        wear_count=device.wear_count(),
        stuck_packed=device.stuck_mask(0, CAPACITY),
        ecp_segments=segs,
        ecp_offsets=offs,
        ecp_values=vals,
        health_retired=np.asarray(retired, dtype=np.int64),
        health_retiring=np.asarray(retiring, dtype=np.int64),
        health_spares=np.asarray(spares, dtype=np.int64),
        health_reclaimed=np.asarray(reclaimed, dtype=np.int64),
        drift_params=np.array([
            d.retention_mean, d.retention_sigma, float(d.seed),
            d.wear_scale, float(d.immortal_prefix_segments),
        ]),
        drift_budget=_draw(
            d.seed, d.retention_mean, d.retention_sigma,
            d.immortal_prefix_segments,
        ),
        drift_last_program=device._last_program_tick,
        drift_packed=device.drift_mask(0, CAPACITY),
        drift_clock=np.array([device.clock], dtype=np.int64),
    )


def _assert_same_media(got: NVMDevice, want: NVMDevice) -> None:
    assert (got.wearout, got.drift) == (want.wearout, want.drift)
    for plane in ("_content", "segment_write_count", "bit_wear",
                  "_last_program_tick", "_drift_budget"):
        np.testing.assert_array_equal(
            getattr(got, plane), getattr(want, plane), err_msg=plane
        )
    for view in ("peek", "stuck_mask", "drift_mask"):
        np.testing.assert_array_equal(
            getattr(got, view)(0, CAPACITY), getattr(want, view)(0, CAPACITY)
        )
    np.testing.assert_array_equal(got.wear_count(), want.wear_count())
    np.testing.assert_array_equal(got._pulses_left, want._pulses_left)
    assert got.stuck_cell_count() == want.stuck_cell_count()
    assert got.drifted_cell_count() == want.drifted_cell_count()
    assert got.clock == want.clock
    for mine, theirs in zip(got.ecc.state_arrays(), want.ecc.state_arrays()):
        np.testing.assert_array_equal(mine, theirs)
    assert got.health.snapshot_arrays() == want.health.snapshot_arrays()


class TestSnapshotLayout:
    def _worn(self) -> NVMDevice:
        device = _mortal_drifting()
        _use(device)
        device.ecc.record(2, [5, 9], [1, 0])
        device.health.retired.add(3)
        device.health.retiring.add(4)
        device.health.reclaimed.add(6)
        device.health.spares.extend([6 * SEG, 7 * SEG])
        assert device.stuck_cell_count() and device.drifted_cell_count()
        return device

    def test_mortal_drifting_snapshot_stores_no_budgets(self, tmp_path):
        path = tmp_path / "snap.npz"
        self._worn().save(path)
        with np.load(path) as archive:
            keys = set(archive.files)
        assert "endurance_budget" not in keys
        assert "drift_budget" not in keys
        assert keys == {
            "content", "segment_write_count", "geometry", "bit_wear",
            "wearout_params", "wear_count", "stuck_packed", "ecp_segments",
            "ecp_offsets", "ecp_values", "health_retired",
            "health_retiring", "health_spares", "health_reclaimed",
            "drift_params", "drift_last_program", "drift_packed",
            "drift_clock",
        }

    def test_snapshot_with_stored_budgets_loads_identically(self, tmp_path):
        device = self._worn()
        old, new = tmp_path / "old.npz", tmp_path / "new.npz"
        _stored_budgets_layout(device, old)
        device.save(new)
        from_old, from_new = NVMDevice.load(old), NVMDevice.load(new)
        _assert_same_media(from_old, device)
        _assert_same_media(from_new, device)
        # And they age alike from there: the countdowns resumed in step.
        for twin in (device, from_old, from_new):
            _use(twin, seed=2)
        _assert_same_media(from_old, device)
        _assert_same_media(from_new, device)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    @pytest.mark.parametrize("immortal", [0, 2])
    def test_redrawn_budgets_equal_the_originals(
        self, tmp_path, seed, sigma, immortal
    ):
        device = _mortal_drifting(
            WearOutConfig(
                endurance_mean=4, endurance_sigma=sigma, seed=seed,
                immortal_prefix_segments=immortal,
            ),
            DriftConfig(
                retention_mean=3, retention_sigma=sigma, seed=seed + 1,
                immortal_prefix_segments=immortal,
            ),
        )
        # A fresh countdown is the endurance draw itself.
        endurance = device._pulses_left.copy()
        retention = device._drift_budget.copy()
        np.testing.assert_array_equal(
            endurance, _draw(seed, 4, sigma, immortal)
        )
        np.testing.assert_array_equal(
            retention, _draw(seed + 1, 3, sigma, immortal)
        )
        _use(device)
        path = tmp_path / "snap.npz"
        device.save(path)
        loaded = NVMDevice.load(path)
        np.testing.assert_array_equal(
            loaded._cell_budgets(loaded.wearout), endurance
        )
        np.testing.assert_array_equal(loaded._drift_budget, retention)
        np.testing.assert_array_equal(loaded._pulses_left, device._pulses_left)

    def test_a_seed_a_snapshot_cannot_hold_is_refused(self, tmp_path):
        device = NVMDevice(
            capacity_bytes=CAPACITY, segment_size=SEG,
            wearout=WearOutConfig(seed=2**53 + 1),
        )
        with pytest.raises(ValueError, match="float64 snapshot"):
            device.save(tmp_path / "snap.npz")
