"""``NVMDevice`` against the per-bit reference model, step by step.

One Hypothesis twin drives the real device and
:class:`tests.nvm.reference_device.ReferenceDevice` with the same random
sequence of ``program`` / ``program_many`` (aligned and unaligned rows,
rows sharing a segment, rows crossing segments, 1-byte rows,
``program_masks=None``, array ``aux_bits``) / torn writes / ``age`` /
``advance_time`` / accounted reads / ``save``→``load`` on tiny-endurance,
tiny-retention media, and after every step requires equal sensed reads,
``stuck_mask``, ``drift_mask``, per-cell wear, ``bit_wear``,
``segment_write_count``, every ``DeviceStats`` field, every returned
``WriteResult`` and the number of ``device.stuck_at`` /
``device.drift_flip`` firings.  Without an injector the device takes its
vectorised ``program_many`` path, with one its row-by-row path; both are
held to the same model.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm import DriftConfig, NVMDevice, WearOutConfig
from repro.testing import CrashError, FaultInjector

from tests.nvm.reference_device import ReferenceDevice

SEGMENT_SIZE = 48  # not a multiple of the 64-B line: segments straddle lines
N_SEGMENTS = 8
CAPACITY = SEGMENT_SIZE * N_SEGMENTS
ROW_LENGTHS = (1, 5, 17, 48, 52, 64, 70, 128)
SITES = ("device.stuck_at", "device.drift_flip")


def _device(wearout, drift, bit_wear, faults, seed=11) -> NVMDevice:
    return NVMDevice(
        capacity_bytes=CAPACITY,
        segment_size=SEGMENT_SIZE,
        initial_fill="random",
        seed=seed,
        track_bit_wear=bit_wear,
        wearout=wearout,
        drift=drift,
        faults=faults,
    )


def _mask(rng, kind: str, shape) -> np.ndarray | None:
    if kind == "none":
        return None
    if kind == "ones":
        return np.full(shape, 0xFF, dtype=np.uint8)
    if kind == "zero":
        return np.zeros(shape, dtype=np.uint8)
    density = 0.1 if kind == "sparse" else 0.6
    n_bits = shape[-1] * 8
    bits = rng.random(shape[:-1] + (n_bits,)) < density
    return np.packbits(bits, axis=-1)


def _rows(rng, length: int, n_rows: int, aligned: bool) -> np.ndarray:
    """Non-overlapping row addresses, in random (unsorted) order: a run of
    back-to-back slots, so short rows share segments and cache lines."""
    stride = -(-length // 64) * 64 if aligned else length
    n_slots = (CAPACITY - (0 if aligned else length)) // stride
    n_rows = max(1, min(n_rows, n_slots))
    slack = CAPACITY - n_slots * stride
    base = 0 if aligned else int(rng.integers(0, slack + 1))
    slots = rng.choice(n_slots, size=n_rows, replace=False)
    return (base + slots * stride).astype(np.int64)


def _assert_same(device: NVMDevice, ref: ReferenceDevice, faults) -> None:
    assert device.peek(0, CAPACITY).tobytes() == ref.sensed(0, CAPACITY)
    assert device.stuck_mask(0, CAPACITY).tobytes() == ref.mask_of(
        ref.stuck, 0, CAPACITY
    )
    assert device.drift_mask(0, CAPACITY).tobytes() == ref.mask_of(
        ref.drifted, 0, CAPACITY
    )
    assert device.stuck_cell_count() == sum(ref.stuck)
    assert device.drifted_cell_count() == sum(ref.drifted)
    assert device.clock == ref.clock
    if ref.mortal:
        assert device.wear_count().tolist() == ref.wear
    if ref.bit_wear is not None:
        assert device.bit_wear.tolist() == ref.bit_wear
    assert device.segment_write_count.tolist() == ref.segment_writes
    for field in dataclasses.fields(ref.stats):
        got = getattr(device.stats, field.name)
        want = getattr(ref.stats, field.name)
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-9), field.name
        else:
            assert got == want, field.name
    if faults is not None:
        assert {site: faults.hits(site) for site in SITES} == ref.fired


def _assert_results(got, want) -> None:
    assert len(got) == len(want)
    for result, expected in zip(got, want):
        assert (
            result.bits_programmed,
            result.bits_flipped,
            result.dirty_lines,
            result.aux_bits,
        ) == expected[:4]
        assert result.energy_pj == pytest.approx(expected[4], rel=1e-12)
        assert result.latency_ns == pytest.approx(expected[5], rel=1e-12)


def run_twin(steps, wearout, drift, bit_wear, with_faults, tmp_path) -> None:
    faults = FaultInjector() if with_faults else None
    device = _device(wearout, drift, bit_wear, faults)
    ref = ReferenceDevice(device)
    _assert_same(device, ref, faults)
    for kind, seed, a, b, mask_kind in steps:
        rng = np.random.default_rng(seed)
        length = ROW_LENGTHS[a % len(ROW_LENGTHS)]
        if kind == "program":
            addr = int(rng.integers(0, CAPACITY - length + 1))
            new = rng.integers(0, 256, length, dtype=np.uint8)
            mask = _mask(rng, mask_kind, (length,))
            mask_bytes = None if mask is None else mask.tobytes()
            aux = b % 4
            torn_at = b % (length + 1) if mask_kind == "torn" else None
            if torn_at is not None and faults is not None:
                with faults.injected(
                    "device.program", error=CrashError, torn_bytes=torn_at
                ), pytest.raises(CrashError):
                    device.program(addr, new, mask, aux)
                ref.program(addr, new.tobytes(), mask_bytes, torn_at=torn_at)
            else:
                got = device.program(addr, new.tobytes(), mask, aux)
                want = ref.program(addr, new.tobytes(), mask_bytes, aux)
                _assert_results([got], [want])
        elif kind == "program_many":
            aligned = length % 64 == 0 and b % 2 == 0
            addrs = _rows(rng, length, 1 + b % 16, aligned)
            shape = (len(addrs), length)
            new = rng.integers(0, 256, shape, dtype=np.uint8)
            masks = _mask(rng, mask_kind, shape)
            aux = rng.integers(0, 4, len(addrs)) if b % 3 else b % 4
            aux_rows = np.broadcast_to(aux, len(addrs)).tolist()
            crash_row = b % len(addrs) if mask_kind == "torn" else None
            if crash_row is not None and faults is not None:
                # Power fails ahead of row ``crash_row``, mid-row.
                torn_at = seed % (length + 1)
                with faults.injected(
                    "device.program", error=CrashError, torn_bytes=torn_at,
                    after=crash_row,
                ), pytest.raises(CrashError):
                    device.program_many(addrs, new, masks, aux)
                for i in range(crash_row):
                    ref.program(
                        int(addrs[i]), new[i].tobytes(),
                        None if masks is None else masks[i].tobytes(),
                        accounted=False,
                    )
                ref.program(
                    int(addrs[crash_row]), new[crash_row].tobytes(),
                    None if masks is None else masks[crash_row].tobytes(),
                    torn_at=torn_at,
                )
            else:
                got = device.program_many(addrs, new, masks, aux)
                want = [
                    ref.program(
                        int(addr), new[i].tobytes(),
                        None if masks is None else masks[i].tobytes(),
                        aux_rows[i],
                    )
                    for i, addr in enumerate(addrs)
                ]
                _assert_results(got, want)
        elif kind == "read":
            addr = int(rng.integers(0, CAPACITY - length + 1))
            assert device.read(addr, length) == ref.read(addr, length)
        elif kind == "read_arrays":
            addrs = rng.integers(0, CAPACITY - length + 1, size=1 + b % 6)
            got = device.read_arrays(addrs, length)
            for row, addr in zip(got, addrs.tolist()):
                assert row.tobytes() == ref.read(addr, length)
        elif kind == "age":
            if wearout is None:
                continue
            assert device.age(1 + b % 2) == ref.age(1 + b % 2)
        elif kind == "advance_time":
            if drift is None:
                continue
            ticks = 1 + b % 6
            assert device.advance_time(ticks) == ref.advance_time(ticks)
        else:  # save -> load: the media state survives, the session ends
            path = tmp_path / "snapshot.npz"
            device.save(path)
            device = NVMDevice.load(path)
            device.faults = faults
            ref.stats = type(ref.stats)()
        _assert_same(device, ref, faults)


STEP = st.tuples(
    st.sampled_from(
        ["program", "program_many", "program_many", "program_many", "read",
         "read_arrays", "age", "advance_time", "save_load"]
    ),
    st.integers(0, 2**31),
    st.integers(0, 63),
    st.integers(0, 63),
    st.sampled_from(["none", "ones", "zero", "sparse", "dense", "torn"]),
)
WEAROUT = st.none() | st.builds(
    WearOutConfig,
    endurance_mean=st.sampled_from([2.0, 3.0, 5.0]),
    endurance_sigma=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 3),
    immortal_prefix_segments=st.integers(0, 2),
)
DRIFT = st.none() | st.builds(
    DriftConfig,
    retention_mean=st.sampled_from([2.0, 4.0]),
    retention_sigma=st.sampled_from([0.0, 0.6]),
    seed=st.integers(0, 3),
    wear_scale=st.sampled_from([0.0, 0.5]),
    immortal_prefix_segments=st.integers(0, 2),
)


@given(
    steps=st.lists(STEP, min_size=1, max_size=10),
    wearout=WEAROUT,
    drift=DRIFT,
    bit_wear=st.booleans(),
    with_faults=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_device_matches_the_per_bit_reference(
    steps, wearout, drift, bit_wear, with_faults, tmp_path_factory
):
    run_twin(
        steps, wearout, drift, bit_wear, with_faults,
        tmp_path_factory.mktemp("twin"),
    )


@pytest.mark.parametrize("with_faults", [False, True])
def test_every_row_of_a_batch_dies_at_once(with_faults, tmp_path):
    # Identical budgets of 2 cycles and pulse-everything masks: the second
    # batch exhausts every cell of every row in one call (killing pulses
    # land), the third changes nothing and still pays for its pulses.
    batch = ("program_many", 7, ROW_LENGTHS.index(48), 15, "ones")
    run_twin(
        [batch, batch, ("advance_time", 0, 0, 5, "none"), batch,
         ("save_load", 0, 0, 0, "none"), batch],
        WearOutConfig(endurance_mean=2.0, endurance_sigma=0.0),
        DriftConfig(retention_mean=2.0, retention_sigma=0.0),
        True, with_faults, tmp_path,
    )


@pytest.mark.parametrize("with_faults", [False, True])
def test_cells_die_in_the_middle_of_a_batch(with_faults, tmp_path):
    # Lognormal budgets around 3 cycles, dense masks over the same rows
    # again and again: some cells of some rows die in every batch while
    # their neighbours live on, with drift ticking in between.
    batch = ("program_many", 3, ROW_LENGTHS.index(52), 5, "dense")
    tick = ("advance_time", 0, 0, 2, "none")
    run_twin(
        [batch, tick] * 6,
        WearOutConfig(endurance_mean=3.0, endurance_sigma=0.5, seed=1),
        DriftConfig(retention_mean=4.0, retention_sigma=0.6, wear_scale=0.5),
        False, with_faults, tmp_path,
    )
