"""Scrub overhead vs. retention loss: the read-side acceptance pair.

Two byte-identical durable KV stores sit on drifting media (same lognormal
per-cell retention budgets, same seed) and age through the same rounds of
retention time.  One runs the background scrubber's refresh loop (executed
synchronously here for determinism); the other has no scrubber at all:

- **scrubbed** — every round the scrubber margin-reads live segments in
  wear/age-priority order and refresh-writes drifted ones through the
  normal DCW path; a GET that still catches a freshly drifted value heals
  it in place.  Every read of every round must return the exact stored
  bytes, with zero ``CorruptValueError``.
- **unscrubbed** — drift accumulates unrepaired.  The catalog CRC turns
  the decay into *detected* failures: GETs raise ``CorruptValueError``
  (the acceptance criterion demands at least one) and never silently
  return wrong bytes (zero tolerated).

The cost of that durability is quantified from the device counters: the
scrubbed store's extra writes, programmed bits and write energy relative
to the unscrubbed baseline, plus the scrubber's own telemetry (bits
healed, refresh writes).  Results land in ``BENCH_scrub.json``;
``--quick`` shrinks the store for CI smoke runs and ``--check`` exits
non-zero unless the acceptance pair holds instead of overwriting the
JSON.
"""

from __future__ import annotations

import sys
import time

from common import REPO_ROOT, bench_arg_parser, emit_json, print_table

from repro.core.config import fast_test_config
from repro.core.kvstore import CorruptValueError, KVStore
from repro.nvm import DriftConfig, MemoryController, NVMDevice, Scrubber
from repro.pmem.catalog import PersistentCatalog
from repro.pmem.pool import PersistentPool

SEGMENT = 64
KEY_CAPACITY = 16
SEED = 7
JSON_PATH = REPO_ROOT / "BENCH_scrub.json"


def _sizes(quick: bool) -> tuple[int, int, int, int]:
    """(n_segments, n_keys, rounds, ticks_per_round)."""
    if quick:
        return 48, 12, 6, 12
    return 96, 32, 10, 12


def _drift_config(meta_segments: int) -> DriftConfig:
    # Budgets centred well inside rounds * ticks so an unscrubbed store
    # demonstrably decays; the log/catalog prefix models over-provisioned
    # metadata media and never drifts.
    return DriftConfig(
        retention_mean=40,
        retention_sigma=0.4,
        seed=3,
        immortal_prefix_segments=meta_segments,
    )


def _fresh_store(n_segments: int) -> KVStore:
    meta_segments = PersistentCatalog.meta_segments_for(
        n_segments, SEGMENT, KEY_CAPACITY
    )
    device = NVMDevice(
        capacity_bytes=n_segments * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=SEED,
        drift=_drift_config(meta_segments),
    )
    pool = PersistentPool(
        MemoryController(device),
        meta_segments=meta_segments,
    )
    return KVStore.create(
        pool,
        config=fast_test_config(),
        key_capacity=KEY_CAPACITY,
    )


def _load(store: KVStore, n_keys: int) -> dict[bytes, bytes]:
    import numpy as np

    rng = np.random.default_rng(11)
    oracle = {}
    for i in range(n_keys):
        key = b"key-%03d" % i
        value = rng.integers(0, 256, size=48, dtype=np.uint8).tobytes()
        store.put(key, value)
        oracle[key] = value
    return oracle


def _sweep(store: KVStore, oracle: dict) -> dict:
    """GET every key once; classify each read."""
    correct = corrupt = silent_wrong = 0
    start = time.perf_counter()
    for key, value in oracle.items():
        try:
            got = store.get(key)
        except CorruptValueError:
            corrupt += 1
            continue
        if got == value:
            correct += 1
        else:
            silent_wrong += 1
    elapsed = time.perf_counter() - start
    return {
        "correct": correct,
        "corrupt_errors": corrupt,
        "silent_wrong": silent_wrong,
        "gets_per_s": round(len(oracle) / elapsed) if elapsed > 0 else 0,
    }


def run_scrub_overhead(quick: bool = False) -> dict:
    n_segments, n_keys, rounds, ticks = _sizes(quick)

    scrubbed = _fresh_store(n_segments)
    unscrubbed = _fresh_store(n_segments)
    scrubber = Scrubber(scrubbed, segments_per_round=n_segments)

    oracle = _load(scrubbed, n_keys)
    assert _load(unscrubbed, n_keys) == oracle

    scrubbed_device = scrubbed.engine.controller.device
    unscrubbed_device = unscrubbed.engine.controller.device
    base_scrubbed = scrubbed_device.stats.snapshot()
    base_unscrubbed = unscrubbed_device.stats.snapshot()

    timeline = []
    totals = {"scrubbed": None, "unscrubbed": None}
    for r in range(1, rounds + 1):
        scrubbed_device.advance_time(ticks)
        unscrubbed_device.advance_time(ticks)
        scrubber.scrub_round()
        round_row = {
            "round": r,
            "drifted_cells_unscrubbed": (
                unscrubbed_device.drifted_cell_count()
            ),
            "bits_healed_total": scrubber.stats.bits_healed,
            "scrubbed": _sweep(scrubbed, oracle),
            "unscrubbed": _sweep(unscrubbed, oracle),
        }
        timeline.append(round_row)
    for name, store, base in (
        ("scrubbed", scrubbed, base_scrubbed),
        ("unscrubbed", unscrubbed, base_unscrubbed),
    ):
        delta = store.engine.controller.device.stats.snapshot() - base
        totals[name] = {
            "reads": sum(t[name]["correct"] for t in timeline)
            + sum(t[name]["corrupt_errors"] for t in timeline)
            + sum(t[name]["silent_wrong"] for t in timeline),
            "correct": sum(t[name]["correct"] for t in timeline),
            "corrupt_errors": sum(
                t[name]["corrupt_errors"] for t in timeline
            ),
            "silent_wrong": sum(t[name]["silent_wrong"] for t in timeline),
            "writes": delta.writes,
            "bits_programmed": delta.bits_programmed,
            "write_energy_pj": round(delta.write_energy_pj, 1),
        }

    s, u = totals["scrubbed"], totals["unscrubbed"]
    return {
        "quick": quick,
        "segment_size": SEGMENT,
        "n_segments": n_segments,
        "n_keys": n_keys,
        "rounds": rounds,
        "ticks_per_round": ticks,
        "retention_mean": 40,
        "timeline": timeline,
        "totals": totals,
        "scrubber": scrubber.telemetry(),
        "overhead": {
            "extra_writes": s["writes"] - u["writes"],
            "extra_bits_programmed": (
                s["bits_programmed"] - u["bits_programmed"]
            ),
            "extra_write_energy_pj": round(
                s["write_energy_pj"] - u["write_energy_pj"], 1
            ),
            "bits_programmed_x": round(
                s["bits_programmed"] / max(1, u["bits_programmed"]), 2
            ),
        },
    }


def report(result: dict) -> None:
    rows = [
        [
            name,
            result["totals"][name]["reads"],
            result["totals"][name]["correct"],
            result["totals"][name]["corrupt_errors"],
            result["totals"][name]["silent_wrong"],
            result["totals"][name]["writes"],
            result["totals"][name]["bits_programmed"],
        ]
        for name in ("scrubbed", "unscrubbed")
    ]
    print_table(
        "Aged reads over identical drifting media (catalog CRC on)",
        ["store", "reads", "correct", "corrupt errors", "silent wrong",
         "writes", "bits programmed"],
        rows,
    )
    telemetry = result["scrubber"]
    print(
        f"scrub overhead: +{result['overhead']['extra_writes']} writes, "
        f"+{result['overhead']['extra_bits_programmed']} bits programmed "
        f"({result['overhead']['bits_programmed_x']}x), "
        f"{telemetry['bits_healed']} drifted bits healed in "
        f"{telemetry['refresh_writes']} refresh writes"
    )


def check_scrub(result: dict) -> int:
    """0 when the acceptance pair holds, 1 otherwise: the scrubbed store
    serves 100% correct reads with zero errors, the unscrubbed one raises
    ``CorruptValueError`` (>0) and never silently returns wrong bytes."""
    s, u = result["totals"]["scrubbed"], result["totals"]["unscrubbed"]
    failures = []
    if s["corrupt_errors"] or s["correct"] != s["reads"]:
        failures.append(
            f"scrubbed store: {s['correct']}/{s['reads']} correct, "
            f"{s['corrupt_errors']} CorruptValueError — must be 100%/0"
        )
    if u["corrupt_errors"] == 0:
        failures.append(
            "unscrubbed store never raised CorruptValueError — drift "
            "pressure too low to demonstrate the contrast"
        )
    if s["silent_wrong"] or u["silent_wrong"]:
        failures.append(
            f"silent wrong bytes served (scrubbed {s['silent_wrong']}, "
            f"unscrubbed {u['silent_wrong']}) — CRC must catch every one"
        )
    if result["scrubber"]["bits_healed"] <= 0:
        failures.append("scrubber healed zero bits — nothing was exercised")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"[scrub check OK: scrubbed {s['correct']}/{s['reads']} correct, "
            f"unscrubbed detected {u['corrupt_errors']} corrupt reads, "
            f"0 silent]"
        )
    return 1 if failures else 0


def main() -> None:
    parser = bench_arg_parser(__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the acceptance pair holds (does not overwrite "
        "the committed JSON)",
    )
    args = parser.parse_args()
    result = run_scrub_overhead(quick=args.quick)
    report(result)
    if args.check:
        sys.exit(check_scrub(result))
    emit_json(JSON_PATH, result)


if __name__ == "__main__":
    main()
