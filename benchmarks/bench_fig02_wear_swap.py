"""Figure 2: bit updates vs. the wear-leveling swap period ψ.

The underlying memory controller swaps a segment every ψ writes (§2.1).  At
ψ=1 every placement decision is immediately swapped away, so E2-NVM's
choice is destroyed (and everyone pays swap-flip overhead); at realistic ψ
(tens of writes) the software-level placement survives and wins — exactly
the argument Figure 2 makes on the Amazon Access workload.
"""

from __future__ import annotations

import numpy as np

from common import bench_config, print_table, run_once

from repro.baselines import DCW, FNW, ArbitraryPlacer, Captopril
from repro.core import E2NVM
from repro.nvm import (
    MemoryController,
    NVMDevice,
    SegmentSwapWearLeveling,
    StartGapWearLeveling,
)
from repro.workloads.records import amazon_access_like

SEGMENT = 64
N_SEGMENTS = 128
PSI_VALUES = [1, 5, 10, 25, 50, 100]
N_WRITES = 300


def _seeded_controller(seed_values, psi, scheme=None, seed=1, leveler="swap"):
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=seed,
    )
    if leveler == "swap":
        wear = SegmentSwapWearLeveling(period=psi, seed=seed)
    else:
        wear = StartGapWearLeveling(period=psi)
    controller = MemoryController(device, scheme=scheme, wear_leveling=wear)
    for i, value in enumerate(seed_values[: controller.n_segments]):
        controller.write(i * SEGMENT, value)
    device.reset_stats()
    return controller, device


def run_figure2(seed: int = 0) -> list[list]:
    records = amazon_access_like(N_SEGMENTS + N_WRITES, record_size=SEGMENT, seed=seed)
    seed_values = records[:N_SEGMENTS]
    stream = records[N_SEGMENTS:]
    rng = np.random.default_rng(seed)

    rows = []
    for psi in PSI_VALUES:
        row = [psi]
        # E2-NVM: memory-aware placement above the swapping controller.
        controller, device = _seeded_controller(seed_values, psi)
        engine = E2NVM(controller, bench_config(n_clusters=6, seed=seed))
        engine.train()
        for value in stream:
            addr, _ = engine.write(value)
            engine.release(addr)
        row.append(device.stats.bits_programmed / len(stream))

        # E2-NVM above start-gap wear leveling (rotation, not random swap).
        controller, device = _seeded_controller(
            seed_values, psi, leveler="startgap"
        )
        engine = E2NVM(controller, bench_config(n_clusters=6, seed=seed))
        engine.train()
        for value in stream:
            addr, _ = engine.write(value)
            engine.release(addr)
        row.append(device.stats.bits_programmed / len(stream))

        # Hardware RBW baselines on arbitrary (FIFO-recycled) placement.
        for scheme_factory in (DCW, FNW, Captopril):
            controller, device = _seeded_controller(
                seed_values, psi, scheme=scheme_factory()
            )
            placer = ArbitraryPlacer(
                [i * SEGMENT for i in range(controller.n_segments)]
            )
            for value in stream:
                addr = placer.choose(None)
                controller.write(addr, value)
                placer.release(addr, None)
            row.append(
                (device.stats.bits_programmed + device.stats.aux_bits_programmed)
                / len(stream)
            )
        rows.append(row)
    return rows


def report(rows: list[list]) -> None:
    print_table(
        "Figure 2: avg bit updates per write vs wear-leveling period psi",
        ["psi", "E2-NVM(swap)", "E2-NVM(start-gap)", "DCW", "FNW", "Captopril"],
        rows,
    )


def test_fig02_wear_swap(benchmark):
    rows = run_once(benchmark, run_figure2)
    report(rows)
    # At realistic psi (>= 10), E2-NVM must beat every RBW baseline.
    for row in rows:
        psi, e2_swap, e2_gap, dcw, fnw, cap = row
        if psi >= 25:
            assert e2_swap < dcw and e2_swap < fnw and e2_swap < cap, f"psi={psi}"
            assert e2_gap < dcw and e2_gap < fnw and e2_gap < cap, f"psi={psi}"
    # Swapping overhead: everyone's flips drop as psi grows.
    assert rows[0][2] > rows[-1][2]


if __name__ == "__main__":
    report(run_figure2())
