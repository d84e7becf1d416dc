"""Rebalance benchmark: drain cost and foreground impact.

Runs a weighted-ring rebalance (:mod:`repro.sharding.rebalance`) on a
durable sharded store and reports what an operator planning a live
migration needs:

- **drain throughput**: keys/s and bytes/s moved by budgeted
  copy/verify/delete batches;
- **foreground impact**: GET latency (p50/p99) sampled *during* the drain
  vs a quiesced baseline on the same store — the price of dual routing
  plus batch interleaving;
- **movement efficiency**: bytes copied vs the theoretical minimum (the
  summed sizes of exactly the keys whose owner changed, from
  ``HashRing.diff``).  The foreground load is GET-only, so any ratio
  above 1.0 is protocol overhead, not overwrite churn.

Results land in ``BENCH_rebalance.json``.  ``--quick`` shrinks the store
for CI; ``--check`` exits non-zero unless the drain completed, nothing
was lost, and every byte moved was necessary (ratio == 1.0).
"""

from __future__ import annotations

import random
import sys
import tempfile
import time
from pathlib import Path

from common import REPO_ROOT, bench_arg_parser, emit_json, print_table

from repro.core.config import fast_test_config
from repro.sharding import ShardedKVStore

SEED = 7
JSON_PATH = REPO_ROOT / "BENCH_rebalance.json"
WEIGHTS = (2.0, 1.0, 0.5)


def _sizes(quick: bool) -> tuple[int, int, int]:
    """(n_keys, value_len, foreground_gets_per_batch)."""
    if quick:
        return 96, 48, 8
    return 240, 64, 16


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[idx]


def run_rebalance(quick: bool = False) -> dict:
    n_keys, value_len, gets_per_batch = _sizes(quick)
    rng = random.Random(SEED)
    root = Path(tempfile.mkdtemp()) / "store"
    store = ShardedKVStore.create(
        root,
        3,
        segment_size=128,
        n_segments_per_shard=max(96, n_keys * 2),
        config=fast_test_config(),
        key_capacity=32,
        ring_seed=SEED,
        vnodes=32,
        base_seed=SEED + 7,
    )
    oracle = {}
    for i in range(n_keys):
        key = f"key-{i:05d}".encode()
        value = bytes(rng.randrange(256) for _ in range(value_len))
        store.put(key, value)
        oracle[key] = value
    keys = sorted(oracle)

    def sample_gets(n: int) -> list[float]:
        out = []
        for key in rng.sample(keys, min(n, len(keys))):
            t0 = time.perf_counter()
            value = store.get(key)
            out.append((time.perf_counter() - t0) * 1e6)
            assert value == oracle[key]
        return out

    quiesced = sample_gets(max(64, gets_per_batch * 8))

    rebalancer = store.begin_rebalance(weights=list(WEIGHTS), batch_size=16)
    min_bytes = sum(
        len(value)
        for key, value in oracle.items()
        if rebalancer.diff.covers(key)
    )
    during: list[float] = []
    t_drain = time.perf_counter()
    while True:
        report = rebalancer.drain()
        if report.done:
            break
        during.extend(sample_gets(gets_per_batch))
    drain_s = time.perf_counter() - t_drain
    rebalancer.finalize()

    lost = sum(1 for key in keys if store.get(key) != oracle[key])
    status = rebalancer.status()
    store.close()
    import shutil

    shutil.rmtree(root.parent, ignore_errors=True)

    moved = status["keys_copied"]
    return {
        "quick": quick,
        "n_keys": n_keys,
        "value_len": value_len,
        "weights": list(WEIGHTS),
        "moved_keys": moved,
        "moved_fraction_space": status["moved_fraction"],
        "drain_s": drain_s,
        "drain_keys_per_s": moved / drain_s if drain_s else 0.0,
        "drain_bytes_per_s": (
            status["bytes_copied"] / drain_s if drain_s else 0.0
        ),
        "bytes_copied": status["bytes_copied"],
        "bytes_min": min_bytes,
        "bytes_ratio": (
            status["bytes_copied"] / min_bytes if min_bytes else 1.0
        ),
        "get_p50_quiesced_us": _percentile(quiesced, 0.50),
        "get_p99_quiesced_us": _percentile(quiesced, 0.99),
        "get_p50_during_us": _percentile(during, 0.50),
        "get_p99_during_us": _percentile(during, 0.99),
        "lost_keys": lost,
        "drained": True,
    }


def print_rebalance(result: dict) -> None:
    print_table(
        "rebalance: drain throughput",
        ["metric", "value"],
        [
            ["keys moved", result["moved_keys"]],
            ["moved fraction (hash space)", result["moved_fraction_space"]],
            ["drain (s)", result["drain_s"]],
            ["keys/s", result["drain_keys_per_s"]],
            ["bytes/s", result["drain_bytes_per_s"]],
        ],
    )
    print_table(
        "rebalance: foreground GET latency (us)",
        ["percentile", "quiesced", "during drain"],
        [
            [
                "p50",
                result["get_p50_quiesced_us"],
                result["get_p50_during_us"],
            ],
            [
                "p99",
                result["get_p99_quiesced_us"],
                result["get_p99_during_us"],
            ],
        ],
    )
    print_table(
        "rebalance: movement efficiency",
        ["metric", "value"],
        [
            ["bytes copied", result["bytes_copied"]],
            ["theoretical minimum", result["bytes_min"]],
            ["ratio", result["bytes_ratio"]],
            ["lost keys", result["lost_keys"]],
        ],
    )


def check_rebalance(result: dict) -> int:
    """Acceptance gate: complete, lossless, no wasted movement."""
    failures = []
    if not result["drained"]:
        failures.append("drain did not complete")
    if result["lost_keys"]:
        failures.append(f"{result['lost_keys']} key(s) unreadable after")
    if result["moved_keys"] < 1:
        failures.append("no key moved — benchmark inert")
    if result["bytes_ratio"] > 1.0:
        failures.append(
            f"bytes ratio {result['bytes_ratio']:.3f} > 1.0 — keys were "
            "copied more than once under a GET-only foreground"
        )
    if failures:
        for failure in failures:
            print(f"[rebalance check FAILED: {failure}]")
        return 1
    print(
        f"[rebalance check OK: {result['moved_keys']} keys in "
        f"{result['drain_s']:.2f}s, bytes ratio "
        f"{result['bytes_ratio']:.2f}, 0 lost]"
    )
    return 0


def main() -> None:
    parser = bench_arg_parser(
        "Rebalance: drain throughput, foreground impact, move efficiency"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the drain contract holds "
        "(instead of writing JSON)",
    )
    args = parser.parse_args()
    result = run_rebalance(quick=args.quick)
    print_rebalance(result)
    if args.check:
        sys.exit(check_rebalance(result))
    emit_json(JSON_PATH, result)


if __name__ == "__main__":
    main()
