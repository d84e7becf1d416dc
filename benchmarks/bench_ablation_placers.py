"""Ablation: the full placement-strategy spectrum on one stream.

Orders every placement strategy the paper discusses on the same clustered
write stream: arbitrary FIFO (prior systems' behaviour), PNW K-means [26],
Hamming-Tree [28, 30] (exact nearest-neighbour over free contents), E2-NVM
(VAE + K-means + first fit), the bit-sampled sketch the durable store
places by (sketch-16/64/128: nearest free segment over n sampled bits), and
the exhaustive best-fit oracle — with the per-write placement latency each
pays and the sketch's DRAM bytes per segment.

``--check`` runs seeds 0-2 and fails when sketch-64 spends more bits per
write than E2-NVM, or more than 25 % over best fit.  Both are counters, so
the gate arms on any runner.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from common import bench_config, print_table, run_once, values_from_bits

from repro.baselines import (
    ArbitraryPlacer,
    DataConPlacer,
    HammingTreePlacer,
    PNWPlacer,
)
from repro.baselines.naive import BestFitPlacer
from repro.baselines.sketch import SketchPlacer
from repro.core import E2NVM
from repro.nvm import MemoryController, NVMDevice
from repro.workloads.datasets import make_image_dataset

SEGMENT = 64
N_SEGMENTS = 160
N_WRITES = 200
K = 8
SKETCH_WIDTHS = (16, 64, 128)
#: ``--check``: sketch-64 may spend at most this much over best fit.
MAX_OVER_BEST_FIT = 1.25


def fresh_controller(seed_values, seed=1):
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=seed,
    )
    controller = MemoryController(device)
    for i, value in enumerate(seed_values):
        controller.write(i * SEGMENT, value)
    device.reset_stats()
    return controller, device


def drive_placer(controller, device, placer, stream, needs_bits: bool):
    t0 = time.perf_counter()
    for value in stream:
        bits = (
            np.unpackbits(np.frombuffer(value, dtype=np.uint8))
            if needs_bits
            else None
        )
        addr = placer.choose(bits)
        controller.write(addr, value)
        placer.release(
            addr,
            np.unpackbits(controller.peek(addr, SEGMENT)) if needs_bits else None,
        )
    elapsed = time.perf_counter() - t0
    return (
        device.stats.bits_programmed / len(stream),
        elapsed / len(stream) * 1e6,
    )


def run_ablation(seed: int = 0) -> list[list]:
    bits, _ = make_image_dataset(
        N_SEGMENTS + N_WRITES, SEGMENT * 8, n_classes=K, noise=0.06, seed=seed
    )
    values = values_from_bits(bits)
    seed_values, stream = values[:N_SEGMENTS], values[N_SEGMENTS:]
    rows = []

    controller, device = fresh_controller(seed_values)
    placer = ArbitraryPlacer([i * SEGMENT for i in range(N_SEGMENTS)])
    rows.append(["arbitrary FIFO", *drive_placer(controller, device, placer, stream, False)])

    controller, device = fresh_controller(seed_values)
    contents = {
        i * SEGMENT: np.unpackbits(controller.peek(i * SEGMENT, SEGMENT))
        for i in range(N_SEGMENTS)
    }
    datacon = DataConPlacer().fit(list(contents), contents)
    rows.append(
        ["DATACON (density)", *drive_placer(controller, device, datacon, stream, True)]
    )

    controller, device = fresh_controller(seed_values)
    contents = {
        i * SEGMENT: np.unpackbits(controller.peek(i * SEGMENT, SEGMENT))
        for i in range(N_SEGMENTS)
    }
    pnw = PNWPlacer(K, pca_components=12, seed=seed).fit(list(contents), contents)
    rows.append(["PNW (PCA+K-means)", *drive_placer(controller, device, pnw, stream, True)])

    controller, device = fresh_controller(seed_values)
    contents = {
        i * SEGMENT: np.unpackbits(controller.peek(i * SEGMENT, SEGMENT))
        for i in range(N_SEGMENTS)
    }
    tree = HammingTreePlacer(list(contents), contents)
    rows.append(["Hamming-Tree", *drive_placer(controller, device, tree, stream, True)])

    controller, device = fresh_controller(seed_values)
    engine = E2NVM(controller, bench_config(n_clusters=K, seed=seed))
    engine.train()
    t0 = time.perf_counter()
    for value in stream:
        addr, _ = engine.write(value)
        engine.release(addr)
    elapsed = time.perf_counter() - t0
    rows.append(
        [
            "E2-NVM (VAE+K-means)",
            device.stats.bits_programmed / len(stream),
            elapsed / len(stream) * 1e6,
        ]
    )

    controller, device = fresh_controller(seed_values)
    contents = {
        i * SEGMENT: np.unpackbits(controller.peek(i * SEGMENT, SEGMENT))
        for i in range(N_SEGMENTS)
    }
    best = BestFitPlacer(list(contents), contents)
    rows.append(["best-fit oracle", *drive_placer(controller, device, best, stream, True)])

    for n_bits in SKETCH_WIDTHS:
        controller, device = fresh_controller(seed_values)
        contents = {
            i * SEGMENT: np.unpackbits(controller.peek(i * SEGMENT, SEGMENT))
            for i in range(N_SEGMENTS)
        }
        sketch = SketchPlacer(list(contents), contents, SEGMENT, n_bits, seed)
        rows.append([
            sketch.name,
            *drive_placer(controller, device, sketch, stream, True),
            sketch.bytes_per_segment(),
        ])
    return rows


def report(rows: list[list]) -> None:
    print_table(
        "Ablation: placement strategies on one clustered stream",
        ["placer", "bits/write", "us/write", "DRAM B/segment"],
        [row + [""] * (4 - len(row)) for row in rows],
    )


def test_ablation_placers(benchmark):
    rows = run_once(benchmark, run_ablation)
    report(rows)
    by_name = {r[0]: r for r in rows}
    arbitrary = by_name["arbitrary FIFO"][1]
    oracle = by_name["best-fit oracle"][1]
    # Every memory-aware strategy beats arbitrary placement.
    for name in ("PNW (PCA+K-means)", "Hamming-Tree", "E2-NVM (VAE+K-means)"):
        assert by_name[name][1] < arbitrary, name
    # Coarse density bucketing (DATACON) sits between arbitrary and the
    # clustering strategies.
    assert by_name["DATACON (density)"][1] <= arbitrary
    assert by_name["DATACON (density)"][1] >= by_name["E2-NVM (VAE+K-means)"][1] * 0.9
    # Nothing meaningfully beats the greedy best-fit "oracle" (greedy
    # sequences are not globally optimal, so exact-NN search with different
    # tie-breaking may edge it by a hair).
    for name, bits, _ in rows:
        assert bits >= oracle * 0.95, name
    # Hamming-Tree (exact NN) places at least as well as the clusterers.
    assert by_name["Hamming-Tree"][1] <= by_name["E2-NVM (VAE+K-means)"][1] * 1.1


def check() -> int:
    """The sketch gate at seeds 0-2; returns the number of failures."""
    failures = 0
    for seed in range(3):
        by_name = {row[0]: row[1] for row in run_ablation(seed)}
        sketch, e2nvm = by_name["sketch-64"], by_name["E2-NVM (VAE+K-means)"]
        best = by_name["best-fit oracle"]
        ok = sketch <= e2nvm and sketch <= best * MAX_OVER_BEST_FIT
        failures += not ok
        print(f"[seed {seed}] sketch-64 {sketch:.1f} bits/write, E2-NVM "
              f"{e2nvm:.1f}, best fit {best:.1f}: {'OK' if ok else 'FAIL'}")
    return failures


if __name__ == "__main__":
    if "--check" in sys.argv:
        sys.exit(check())
    report(run_ablation())
