"""Shared helpers for the per-figure benchmark harness.

Every benchmark follows the same pattern: a pure ``run_*`` function computes
the figure's rows/series, a pytest-benchmark wrapper times one run and
prints the table, and ``python benchmarks/bench_*.py`` prints it directly.
Sizes are scaled down from the paper's testbed (the shapes, not the absolute
numbers, are the reproduction target — see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import json
import pathlib

import numpy as np

from repro.core import E2NVM
from repro.core.config import E2NVMConfig
from repro.nvm import MemoryController, NVMDevice

#: Repository root (benchmarks/ lives directly under it) — JSON artifacts
#: land here so CI can diff them against committed baselines.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def bench_arg_parser(description: str | None = None) -> argparse.ArgumentParser:
    """Argument parser with the flags every benchmark shares.

    ``--quick`` asks for a reduced-size run (fewer ops/sweep points, same
    shapes) suitable for CI smoke jobs; benchmarks read ``args.quick`` and
    scale their counts accordingly.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced-size run for CI smoke checks",
    )
    return parser


def emit_json(path: pathlib.Path | str, payload: dict) -> pathlib.Path:
    """Write a benchmark result as stable (sorted, indented) JSON."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[wrote {path}]")
    return path


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render one figure's data as an aligned text table."""
    str_rows = [
        [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def bench_config(**overrides) -> E2NVMConfig:
    """Benchmark-scale model settings (small but non-trivial)."""
    defaults = dict(
        n_clusters=6,
        latent_dim=6,
        hidden=(64,),
        pretrain_epochs=5,
        joint_epochs=2,
        batch_size=64,
        train_sample_limit=1024,
        seed=0,
    )
    defaults.update(overrides)
    return E2NVMConfig(**defaults)


def seeded_engine(
    seed_values: list[bytes],
    segment_size: int,
    n_segments: int | None = None,
    config: E2NVMConfig | None = None,
) -> E2NVM:
    """Build a device pre-filled with ``seed_values`` and a trained engine.

    Stats are reset after seeding so measurements cover the run phase only.
    """
    n_segments = n_segments or len(seed_values)
    if len(seed_values) > n_segments:
        raise ValueError("more seed values than segments")
    device = NVMDevice(
        capacity_bytes=n_segments * segment_size,
        segment_size=segment_size,
        initial_fill="random",
        seed=1,
    )
    controller = MemoryController(device)
    for i, value in enumerate(seed_values):
        controller.write(i * segment_size, value)
    device.reset_stats()
    engine = E2NVM(controller, config or bench_config())
    engine.train()
    return engine


def write_release_stream(engine: E2NVM, values: list[bytes]) -> dict:
    """Write every value through the engine, recycling each claimed segment,
    and return per-write averages."""
    stats_before = engine.stats.snapshot()
    for value in values:
        addr, _ = engine.write(value)
        engine.release(addr)
    delta = engine.stats.snapshot() - stats_before
    return {
        "bits_per_write": delta.bits_programmed / max(1, len(values)),
        "energy_pj_per_write": delta.write_energy_pj / max(1, len(values)),
        "latency_ns_per_write": delta.write_latency_ns / max(1, len(values)),
        "writes": delta.writes,
    }


def values_from_bits(bits: np.ndarray) -> list[bytes]:
    """Pack a 0/1 matrix into one bytes value per row."""
    packed = np.packbits((np.asarray(bits) > 0.5).astype(np.uint8), axis=1)
    return [row.tobytes() for row in packed]


def run_once(benchmark, fn):
    """Time ``fn`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
