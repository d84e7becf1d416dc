"""Chaos drill benchmark: recovery time and availability under faults.

Runs the seeded chaos drill from :mod:`repro.testing.chaos` — random
kill / SIGSTOP / in-transaction-crash faults against live shard worker
processes mid-``put_many``, with wearout and drift clocks advancing, the
in-worker scrubber and compactor running and ``auto_retrain`` on — and
reports what a storage operator would ask of a self-healing array:

- **recovery time**: seconds from fault detection to the shard serving
  again (mean and max across all supervised recoveries);
- **availability**: fraction of attempted batch items acknowledged while
  the fleet was being attacked (the ``partial`` degraded policy keeps
  survivors serving);
- **safety**: lost acknowledged writes and post-drill fsck must both be
  zero/clean — a fast recovery that drops data counts for nothing.

Results land in ``BENCH_chaos.json``.  ``--quick`` runs fewer, smaller
rounds for CI; ``--check`` re-runs the drill and exits non-zero unless
the safety contract holds (all shards healthy, zero lost acknowledged
writes, zero torn values, fsck clean on every shard).
"""

from __future__ import annotations

import sys
import time

from common import REPO_ROOT, bench_arg_parser, emit_json, print_table

from repro.testing.chaos import run_chaos_drill

SEED = 7
JSON_PATH = REPO_ROOT / "BENCH_chaos.json"


def _sizes(quick: bool) -> tuple[int, int]:
    """(rounds, batch_size)."""
    if quick:
        return 4, 16
    return 10, 24


def run_chaos(quick: bool = False) -> dict:
    rounds, batch_size = _sizes(quick)
    t0 = time.perf_counter()
    report = run_chaos_drill(
        rounds=rounds,
        batch_size=batch_size,
        seed=SEED,
        heal_timeout_s=120.0,
    )
    wall_s = time.perf_counter() - t0
    result = report.summary()
    result["wall_s"] = wall_s
    result["quick"] = quick
    return result


def print_chaos(result: dict) -> None:
    print_table(
        "chaos drill: faults injected",
        ["fault", "count"],
        [[kind, count] for kind, count in sorted(result["faults"].items())],
    )
    print_table(
        "chaos drill: recovery & availability",
        ["metric", "value"],
        [
            ["rounds", result["rounds"]],
            ["restarts", result["restarts"]],
            ["watchdog kills", result["watchdog_kills"]],
            ["recoveries", result["recovery_count"]],
            ["recovery time mean (s)", result["recovery_time_mean_s"]],
            ["recovery time max (s)", result["recovery_time_max_s"]],
            ["availability", result["availability"]],
            ["acked items", result["acked_items"]],
            ["attempted items", result["total_items"]],
            ["converge (s)", result["converge_s"]],
            ["wall (s)", result["wall_s"]],
        ],
    )
    print_table(
        "chaos drill: safety contract",
        ["check", "value"],
        [
            ["all shards healthy", result["all_healthy"]],
            ["lost acked writes", result["lost_writes"]],
            ["corrupt keys", result["corrupt_keys"]],
            ["fsck clean", result["fsck_ok"]],
            ["ok", result["ok"]],
        ],
    )


def check_chaos(result: dict) -> int:
    """The drill's acceptance gate: convergence and zero data loss."""
    failures = []
    if not result["all_healthy"]:
        failures.append("fleet did not converge to all-shards-healthy")
    if result["lost_writes"]:
        failures.append(
            f"{result['lost_writes']} acknowledged write(s) lost"
        )
    if result["corrupt_keys"]:
        failures.append(f"{result['corrupt_keys']} torn/corrupt value(s)")
    if not result["fsck_ok"]:
        failures.append("post-drill fsck found errors")
    if not result["ok"] and not failures:
        # The drill's own verdict also covers what the summary does not
        # itemise (orphaned or duplicated keys in the final read-back).
        failures.append("the drill's safety contract does not hold")
    if result["availability"] < 0.6:
        # BENCH_chaos.json reports 0.7625; a supervision regression can
        # tank availability without losing a single byte (breakers stuck
        # open, slow reopens) — losing data is not the only way to fail.
        failures.append(
            f"availability {result['availability']:.4f} below the 0.6 floor"
        )
    if result["restarts"] < 1:
        failures.append("no supervised restart happened — drill inert")
    if failures:
        for failure in failures:
            print(f"[chaos check FAILED: {failure}]")
        return 1
    print(
        f"[chaos check OK: {result['restarts']} restarts, "
        f"{result['watchdog_kills']} watchdog kills, "
        f"availability {result['availability']:.2f}, "
        f"recovery mean {result['recovery_time_mean_s']:.2f}s, "
        "0 lost acked writes, fsck clean]"
    )
    return 0


def main() -> None:
    parser = bench_arg_parser("Chaos drill: supervised recovery under faults")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the safety contract holds "
        "(instead of writing JSON)",
    )
    args = parser.parse_args()
    result = run_chaos(quick=args.quick)
    print_chaos(result)
    if args.check:
        sys.exit(check_chaos(result))
    emit_json(JSON_PATH, result)


if __name__ == "__main__":
    main()
