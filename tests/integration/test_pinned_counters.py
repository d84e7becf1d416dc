"""Pinned simulated counters.

The medium is the instrument: a change meant only to make the simulator
cheaper on the host must leave every simulated statistic identical.  This
test replays one fixed seeded trace of ``put_many``/``put``/``get``/
``delete`` on three stores and compares the device's full ``DeviceStats``,
``segment_write_count.sum()``, total per-cell wear,
``stuck_cell_count()`` and the retired-segment count with constants
recorded at the commit *before* the device's write-side accounting was
rewritten (the durable arm re-recorded by each change that altered what a
durable PUT writes on purpose, below) — integers exactly, the float
totals to 1e-9 relative.

A PR that changes what a write costs on purpose (fewer metadata flips,
say) updates ``PINNED`` in the open, in the same diff; ``python
tests/integration/test_pinned_counters.py`` prints the current values.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import E2NVM, KVStore
from repro.core.config import fast_test_config
from repro.nvm import MemoryController, NVMDevice, WearOutConfig
from repro.testing import FaultInjector, KVCrashHarness

SEGMENT_SIZE = 64
N_KEYS = 14
N_OPS = 90
#: Tiny endurance: cells die, ECP entries fill and segments retire
#: inside the trace, yet the store never runs out of places to write.
WEAROUT = WearOutConfig(
    endurance_mean=14, endurance_sigma=0.5, seed=5, ecp_entries=5
)


def _trace(max_value: int) -> list[tuple]:
    rng = np.random.default_rng(2020)
    keys = [b"key-%02d" % i for i in range(N_KEYS)]

    def value():
        length = int(rng.integers(1, max_value + 1))
        return rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()

    trace = []
    for _ in range(N_OPS):
        roll = rng.random()
        key = keys[int(rng.integers(N_KEYS))]
        if roll < 0.45:
            picks = rng.integers(N_KEYS, size=int(rng.integers(2, 9)))
            trace.append(("put_many", [(keys[k], value()) for k in picks]))
        elif roll < 0.65:
            trace.append(("put", key, value()))
        elif roll < 0.85:
            trace.append(("get", key))
        else:
            trace.append(("delete", key))
    return trace


def _durable_mortal():
    """The store ``KVCrashHarness`` builds: durable pool, mortal media,
    verify-after-write, a fault injector attached (so ``program_many``
    takes its row-by-row path)."""
    harness = KVCrashHarness(
        n_segments=64, segment_size=SEGMENT_SIZE, seed=7, wearout=WEAROUT,
        spares=2,
    )
    device, _, store = harness.fresh(FaultInjector())
    return device, store


def _volatile(**device_kwargs):
    device = NVMDevice(
        capacity_bytes=40 * SEGMENT_SIZE,
        segment_size=SEGMENT_SIZE,
        initial_fill="random",
        seed=7,
        **device_kwargs,
    )
    engine = E2NVM(MemoryController(device), fast_test_config())
    engine.train()
    return device, KVStore(engine)


CASES = {
    "durable_mortal": _durable_mortal,
    # No injector: the vectorised ``program_many`` path.
    "volatile_immortal": lambda: _volatile(track_bit_wear=True),
    "volatile_mortal": lambda: _volatile(wearout=WEAROUT),
}


def measure(case: str) -> dict:
    device, store = CASES[case]()
    model: dict[bytes, bytes] = {}
    # Durable values carry a length + CRC header inside the segment.
    max_value = SEGMENT_SIZE - 16 if case == "durable_mortal" else SEGMENT_SIZE
    for op in _trace(max_value):
        if op[0] == "put_many":
            store.put_many(op[1])
            model.update(op[1])
        elif op[0] == "put":
            store.put(op[1], op[2])
            model[op[1]] = op[2]
        elif op[0] == "get":
            assert store.get(op[1]) == model.get(op[1])
        else:
            assert store.delete(op[1]) == (model.pop(op[1], None) is not None)
    assert dict(store.items()) == model
    wear = device.wear_count() if device.wearout else device.bit_wear
    return {
        **dataclasses.asdict(device.stats),
        "segment_writes": int(device.segment_write_count.sum()),
        "cell_wear": int(wear.sum()),
        "stuck_cells": device.stuck_cell_count(),
        "retired_segments": (
            len(device.health.retired) if device.health else 0
        ),
    }


PINNED: dict[str, dict] = {
    # Re-recorded by the PR that re-keyed the catalog per key (an UPDATE
    # is one 20-B in-place write with a 36-B undo record; an INSERT logs
    # its flag byte): writes 1310 -> 885, reads 3092 -> 2035, bits flipped
    # 55722 -> 49934.  Six pairs now fit a transaction of this harness's
    # 240-B log where three did, so freed segments re-enter the DAP in
    # different groups and later values land elsewhere: the six segments
    # that wore out at the tail of the trace were retired before and are
    # reclaimed as spares now.  The volatile arms did not move by a count.
    #
    # Re-recorded again by the log-header fold (the header raise rides in
    # the first row of the record run; the flag moved behind the
    # sequence): one device write fewer per transaction, writes 885 -> 792
    # and, with their DCW old-content and verify reads, reads 2035 ->
    # 1848.  Each transaction now programs the header's 16 bytes with its
    # first row instead of 9 bytes apart (bytes written 22638 -> 23304);
    # the sequence starts at 0 from format(), so its carries and the
    # records' CRCs differ (bits flipped 49934 -> 49883).  Stuck cells and
    # retirements did not move, nor did the volatile arms.
    #
    # Re-recorded by the log-free commit (two self-checking slots per
    # catalog record replace the undo log): a PUT is its value and one
    # slot row, a DELETE one tombstone slot, so writes 792 -> 528 and,
    # with their DCW old-content and verify reads, reads 1848 -> 1082;
    # bits flipped 49883 -> 42872.  A key repeated in a ``put_many`` now
    # starts a second batch, and without the log's segments the catalog
    # starts at segment 0, so values land elsewhere: stuck cells 116 ->
    # 114 and two segments retire at the tail of the trace.  The volatile
    # arms did not move.
    #
    # Re-recorded when the durable store began placing by content sketch
    # (``repro.core.sketch``) instead of the VAE + K-means engine: the
    # same rows land on nearer segments, and four fewer retries.  Writes
    # 528 -> 524, reads 1082 -> 1073, bits flipped 42872 -> 41864 (the
    # trace's random values leave little to save, and catalog slots are
    # most of the rest), stuck cells 114 -> 99 and no segment retires
    # (2 -> 0).  The volatile arms did not move.
    "durable_mortal": {
        "writes": 524,
        "reads": 1073,
        "bytes_written": 13972,
        "bytes_read": 28534,
        "bits_programmed": 41910,
        "bits_flipped": 41864,
        "aux_bits_programmed": 0,
        "dirty_lines_written": 524,
        "write_energy_pj": 4296300.0,
        "read_energy_pj": 3110510.0,
        "write_latency_ns": 211695.5,
        "read_latency_ns": 192396.90000000046,
        "segment_writes": 524,
        "cell_wear": 41910,
        "stuck_cells": 99,
        "retired_segments": 0,
    },
    "volatile_immortal": {
        "writes": 226,
        "reads": 251,
        "bytes_written": 7738,
        "bytes_read": 8626,
        "bits_programmed": 30647,
        "bits_flipped": 30647,
        "aux_bits_programmed": 0,
        "dirty_lines_written": 226,
        "write_energy_pj": 2481550.0,
        "read_energy_pj": 756890.0,
        "write_latency_ns": 91932.35000000003,
        "read_latency_ns": 45689.099999999984,
        "segment_writes": 226,
        "cell_wear": 30647,
        "stuck_cells": 0,
        "retired_segments": 0,
    },
    "volatile_mortal": {
        "writes": 230,
        "reads": 487,
        "bytes_written": 7906,
        "bytes_read": 16748,
        "bits_programmed": 31449,
        "bits_flipped": 31374,
        "aux_bits_programmed": 0,
        "dirty_lines_written": 230,
        "write_energy_pj": 2538450.0,
        "read_energy_pj": 1468720.0,
        "write_latency_ns": 93572.45000000003,
        "read_latency_ns": 88651.79999999978,
        "segment_writes": 230,
        "cell_wear": 31449,
        "stuck_cells": 113,
        "retired_segments": 2,
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_counters_match_the_recorded_parent(case):
    got = measure(case)
    want = PINNED[case]
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, float):
            assert got[name] == pytest.approx(value, rel=1e-9), name
        else:
            assert got[name] == value, name


if __name__ == "__main__":
    import pprint

    pprint.pprint({case: measure(case) for case in sorted(CASES)})
