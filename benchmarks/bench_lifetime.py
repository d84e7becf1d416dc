"""Device lifetime under endurance exhaustion: E2-NVM vs arbitrary placement.

Byte-identical mortal devices (same lognormal per-cell endurance
budgets, same seed, same ECP capacity, verify-after-write on) serve the
same keyed workload — a Zipfian-skewed update stream over a live working
set that is seeded up front and held for the device's whole life — until
placement fails, the point the store degrades to read-only.  Holding the
same working set in every run is what makes the rows comparable: each
delta down the table isolates exactly one mechanism.

- **naive** — arbitrary FIFO placement (prior systems' behaviour, §1) over
  the DCW controller: content-oblivious, so most writes land on a
  dissimilar segment and pulse many cells;
- **e2nvm** — the trained VAE+K-means engine: similarity placement pulses
  fewer cells per write, so the same endurance budget absorbs strictly
  more writes.  Updates release old addresses at the engine level, which
  *strands* retiring segments in quarantine (the pre-reclamation
  behaviour of PRs 4-5);
- **gc** — the same engine under a KV store with the capacity-reclamation
  subsystem on: compaction drains retiring segments and reclaims them
  into the spares pool instead of stranding them, and static wear
  leveling parks the working set's cold tail on worn free segments so
  the fresh segments they vacate absorb the hot traffic.

The benchmark records writes-to-death, the usable-capacity timeline, the
*capacity floor* (usable fraction at the read-only transition) and
*writes at full capacity* (writes absorbed before the first segment
dies) for each run, plus the headline lifetime gains.  Results land in
``BENCH_lifetime.json`` at the repo root.  ``--quick`` shrinks the
device and budgets for CI smoke runs; ``--check`` additionally exits
non-zero unless reclamation improves both axes (writes-to-death and
time-at-full-capacity, E2-NVM strictly over naive and GC strictly over
E2-NVM on lifetime without regressing first retirement) instead of
overwriting the JSON.
"""

from __future__ import annotations

import sys

import numpy as np

from common import (
    REPO_ROOT,
    bench_arg_parser,
    bench_config,
    emit_json,
    print_table,
    values_from_bits,
)

from repro.baselines.naive import ArbitraryPlacer
from repro.baselines.sketch import SketchPlacer
from repro.core import E2NVM, PoolExhaustedError
from repro.core.kvstore import KVStore, StoreReadOnlyError
from repro.nvm import (
    Compactor,
    MemoryController,
    NVMDevice,
    SegmentRetiredError,
    WearOutConfig,
)
from repro.workloads.datasets import make_image_dataset
from repro.workloads.zipfian import ScrambledZipfianGenerator

SEGMENT = 64
K = 6
JSON_PATH = REPO_ROOT / "BENCH_lifetime.json"
#: Sketch widths of the placement-only sketch arms (reported, not gated).
SKETCH_WIDTHS = (16, 64, 128)
SKETCH_NAMES = tuple(f"sketch-{n}" for n in SKETCH_WIDTHS)
MAX_STREAM = 60_000


def _sizes(quick: bool) -> tuple[int, WearOutConfig, int]:
    """(n_segments, wear-out config, telemetry sample period)."""
    if quick:
        return 48, WearOutConfig(
            endurance_mean=6, endurance_sigma=0.25, seed=5, ecp_entries=8
        ), 25
    return 96, WearOutConfig(
        endurance_mean=12, endurance_sigma=0.25, seed=5, ecp_entries=8
    ), 200


def _make_stream(n_segments: int, seed: int = 0) -> tuple[list, list]:
    bits, _ = make_image_dataset(
        n_segments + MAX_STREAM, SEGMENT * 8, n_classes=K, noise=0.06,
        seed=seed,
    )
    values = values_from_bits(bits)
    return values[:n_segments], values[n_segments:]


def _fresh(n_segments: int, wearout: WearOutConfig, seed_values: list):
    device = NVMDevice(
        capacity_bytes=n_segments * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=1,
        wearout=wearout,
    )
    controller = MemoryController(device)
    for i, value in enumerate(seed_values):
        controller.write(i * SEGMENT, value)
    device.reset_stats()
    return controller, device


def _sample(timeline: list, writes: int, controller) -> None:
    telemetry = controller.health_manager.telemetry()
    timeline.append(
        {
            "writes": writes,
            "usable_capacity_fraction": round(
                telemetry["usable_capacity_fraction"], 4
            ),
            "segments_retired": telemetry["segments_retired"],
            "stuck_cells": telemetry["stuck_cells"],
            "corrections_active": telemetry["corrections_active"],
        }
    )


def _finish(
    writes: int, timeline: list, controller, full_until: int
) -> dict:
    _sample(timeline, writes, controller)
    telemetry = controller.health_manager.telemetry()
    return {
        "writes_to_death": writes,
        # Writes absorbed before the first segment retired — how long the
        # device ran at its full advertised capacity.
        "writes_at_full_capacity": full_until,
        # Usable fraction at the read-only transition: the capacity the
        # store still had when it could no longer place a write.
        "capacity_floor": telemetry["usable_capacity_fraction"],
        "timeline": timeline,
        "final_telemetry": telemetry,
    }


def _working_set_size(n_segments: int) -> int:
    return max(4, int(n_segments * 0.46))


def _keys(n_segments: int):
    """The shared keyed workload: seed the whole working set once (so
    the Zipfian tail exists to go cold), then skewed updates forever.
    Every run draws the identical key sequence."""
    n_keys = _working_set_size(n_segments)
    for i in range(n_keys):
        yield b"obj%04d" % i
    chooser = ScrambledZipfianGenerator(n_keys, seed=3)
    while True:
        yield b"obj%04d" % chooser.next()


def run_placer(
    make_placer, n_segments: int, wearout: WearOutConfig, seed_values,
    stream, every: int,
) -> dict:
    """Placement-only through a baseline placer built over the fresh
    controller: a retired segment is dropped, every other freed segment is
    released back with its current content."""
    controller, device = _fresh(n_segments, wearout, seed_values)
    placer = make_placer(controller)
    by_key: dict[bytes, int] = {}
    timeline: list[dict] = []
    writes = full_until = 0
    for key, value in zip(_keys(n_segments), stream):
        bits = np.unpackbits(np.frombuffer(value, dtype=np.uint8))
        while True:
            if not placer.free_count():
                return _finish(writes, timeline, controller, full_until)
            addr = placer.choose(bits)
            try:
                controller.write(addr, value)
            except SegmentRetiredError:
                continue  # dead segment: drop it, try the next
            break
        old = by_key.get(key)
        by_key[key] = addr
        if old is not None:
            placer.release(old, np.unpackbits(controller.peek(old, SEGMENT)))
        writes += 1
        if not device.health.retired:
            full_until = writes
        if writes % every == 0:
            _sample(timeline, writes, controller)
    raise RuntimeError(
        f"{placer.name} run outlived the stream; raise MAX_STREAM or lower "
        "budgets"
    )


def _naive(controller) -> ArbitraryPlacer:
    """Arbitrary FIFO over every segment, in address order."""
    return ArbitraryPlacer(
        i * SEGMENT for i in range(controller.n_segments)
    )


def _sketch(n_bits: int):
    """The store's bit-sampled sketch at ``n_bits``
    (:class:`~repro.baselines.sketch.SketchPlacer`)."""
    def make(controller) -> SketchPlacer:
        contents = {
            i * SEGMENT: np.unpackbits(controller.peek(i * SEGMENT, SEGMENT))
            for i in range(controller.n_segments)
        }
        return SketchPlacer(list(contents), contents, SEGMENT, n_bits)
    return make


def run_e2nvm(
    n_segments: int, wearout: WearOutConfig, seed_values, stream, every: int
) -> dict:
    """Placement-only: old addresses are released at the engine level,
    so retiring segments are quarantined and *stranded* with endurance
    left — exactly the pre-reclamation behaviour this PR removes."""
    controller, device = _fresh(n_segments, wearout, seed_values)
    engine = E2NVM(controller, bench_config(n_clusters=K, seed=0))
    engine.train()
    by_key: dict[bytes, int] = {}
    timeline: list[dict] = []
    writes = full_until = 0
    for key, value in zip(_keys(n_segments), stream):
        try:
            addr, _ = engine.write(value)
        except PoolExhaustedError:
            return _finish(writes, timeline, controller, full_until)
        old = by_key.get(key)
        by_key[key] = addr
        if old is not None:
            engine.release(old)
        writes += 1
        if not device.health.retired:
            full_until = writes
        if writes % every == 0:
            _sample(timeline, writes, controller)
    raise RuntimeError(
        "e2nvm run outlived the stream; raise MAX_STREAM or lower budgets"
    )


def run_gc(
    n_segments: int, wearout: WearOutConfig, seed_values, stream, every: int
) -> dict:
    """The reclamation run: the same engine under a KV store with
    compaction + static wear leveling interleaved like a background
    worker's rounds.

    Skew is what gives wear leveling something to do: hot keys hammer a
    few segments while the Zipfian tail goes dormant, so the compactor
    parks tail values on the most-worn free segments (which then stop
    being pulsed) and the vacated fresh segments absorb the hot traffic.
    Drained retiring segments re-enter service through the spares pool
    instead of being stranded in quarantine.
    """
    controller, device = _fresh(n_segments, wearout, seed_values)
    engine = E2NVM(controller, bench_config(n_clusters=K, seed=0))
    engine.train()
    store = KVStore(engine)
    n_keys = _working_set_size(n_segments)
    compactor = Compactor(
        store,
        relocations_per_round=8,
        swaps_per_round=1,
        # Segments only absorb a handful of writes on this endurance
        # budget, so swaps must fire while the target still survives the
        # parking write itself — a wide gap would only ever pick targets
        # one write from death.
        min_wear_gap=2,
        # Cold enough that Zipf mid-rank keys (updated every ~n_keys
        # writes) are not parked just to be dirtied again — only the
        # true tail is worth the parking write.
        dormancy_writes=2 * n_keys,
    )
    timeline: list[dict] = []
    writes = full_until = 0
    for key, value in zip(_keys(n_segments), stream):
        try:
            store.put(key, value)
        except StoreReadOnlyError:
            result = _finish(writes, timeline, controller, full_until)
            result["compactor"] = compactor.telemetry()
            result["live_keys_at_death"] = sum(
                1 for _ in store.index.items()
            )
            return result
        writes += 1
        if not device.health.retired:
            full_until = writes
        if writes % 8 == 0:
            compactor.compact_round()
        if writes % every == 0:
            _sample(timeline, writes, controller)
    raise RuntimeError(
        "gc run outlived the stream; raise MAX_STREAM or lower budgets"
    )


def run_lifetime(quick: bool = False) -> dict:
    n_segments, wearout, every = _sizes(quick)
    seed_values, stream = _make_stream(n_segments)
    naive = run_placer(
        _naive, n_segments, wearout, seed_values, stream, every
    )
    e2nvm = run_e2nvm(n_segments, wearout, seed_values, stream, every)
    gc = run_gc(n_segments, wearout, seed_values, stream, every)
    sketches = {
        f"sketch-{n}": run_placer(
            _sketch(n), n_segments, wearout, seed_values, stream, every
        )
        for n in SKETCH_WIDTHS
    }
    return {
        "quick": quick,
        "segment_size": SEGMENT,
        "n_segments": n_segments,
        "wearout": {
            "endurance_mean": wearout.endurance_mean,
            "endurance_sigma": wearout.endurance_sigma,
            "seed": wearout.seed,
            "ecp_entries": wearout.ecp_entries,
        },
        "naive": naive,
        "e2nvm": e2nvm,
        "gc": gc,
        **sketches,
        # Headline: the full stack (placement + reclamation) over naive;
        # the placement-only ratio is kept for comparison against PR 4.
        "lifetime_gain_x": round(
            gc["writes_to_death"] / max(1, naive["writes_to_death"]), 2
        ),
        "no_gc_gain_x": round(
            e2nvm["writes_to_death"] / max(1, naive["writes_to_death"]), 2
        ),
    }


def report(result: dict) -> None:
    rows = [
        [
            name,
            result[name]["writes_to_death"],
            result[name]["writes_at_full_capacity"],
            round(result[name]["capacity_floor"], 4),
            result[name]["final_telemetry"]["segments_retired"],
            result[name]["final_telemetry"]["stuck_cells"],
        ]
        for name in ("naive", "e2nvm", "gc", *SKETCH_NAMES)
    ]
    print_table(
        "Writes absorbed before the pool dies (same endurance budgets)",
        [
            "placement",
            "writes",
            "full-capacity writes",
            "capacity floor",
            "segments retired",
            "stuck cells",
        ],
        rows,
    )
    print(
        f"lifetime gain: {result['lifetime_gain_x']}x with reclamation "
        f"({result['no_gc_gain_x']}x placement-only)"
    )


def check_lifetime(result: dict) -> int:
    """0 when both axes improve down the stack, 1 otherwise.

    Gates: placement strictly outlives naive; reclamation strictly
    outlives placement-only; and reclamation holds full capacity at
    least as long as placement-only (time-at-full-capacity must not
    regress when the compactor is on).
    """
    naive, e2nvm, gc = (
        result["naive"]["writes_to_death"],
        result["e2nvm"]["writes_to_death"],
        result["gc"]["writes_to_death"],
    )
    failures = []
    if e2nvm <= naive:
        failures.append(
            f"e2nvm died after {e2nvm} writes, naive after {naive} — "
            "memory-aware placement must strictly extend lifetime"
        )
    if gc <= e2nvm:
        failures.append(
            f"gc died after {gc} writes, e2nvm after {e2nvm} — "
            "reclamation must strictly extend lifetime further"
        )
    full_gc = result["gc"]["writes_at_full_capacity"]
    full_e2 = result["e2nvm"]["writes_at_full_capacity"]
    if full_gc < full_e2:
        failures.append(
            f"gc held full capacity for {full_gc} writes, e2nvm for "
            f"{full_e2} — reclamation must not hasten the first retirement"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"[lifetime check OK: gc {gc} > e2nvm {e2nvm} > naive {naive} "
        f"writes; full capacity {full_gc} >= {full_e2}]"
    )
    return 0


def main() -> None:
    parser = bench_arg_parser(__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless lifetime and time-at-full-capacity improve "
        "down the stack (naive < e2nvm < gc; does not overwrite the "
        "committed JSON)",
    )
    args = parser.parse_args()
    result = run_lifetime(quick=args.quick)
    report(result)
    if args.check:
        sys.exit(check_lifetime(result))
    emit_json(JSON_PATH, result)


if __name__ == "__main__":
    main()
