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

The drill runs in two arms: ``immortal`` media (default endurance, no
cell dies) and ``mortal`` media whose endurance is near the round count,
so cells die within the drill and every restarted worker must carry on
from the worn medium it left — stuck cells, ECP, health and drift state.

Results land in ``BENCH_chaos.json``, one entry per arm.  ``--quick``
runs fewer, smaller rounds for CI; ``--check`` re-runs both arms and
exits non-zero unless the safety contract holds (all shards healthy,
zero lost acknowledged writes, zero torn values, fsck clean on every
shard; the mortal arm must also have killed cells).
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
    """Both arms: ``{arm: summary}``."""
    rounds, batch_size = _sizes(quick)
    results = {}
    # Each round ages every cell once; a median endurance of 1.5 rounds
    # kills the weakest cells (the lognormal tail) within the drill.
    for arm, endurance_mean in (("immortal", 1e8), ("mortal", 1.5 * rounds)):
        t0 = time.perf_counter()
        report = run_chaos_drill(
            rounds=rounds,
            batch_size=batch_size,
            seed=SEED,
            heal_timeout_s=120.0,
            endurance_mean=endurance_mean,
        )
        result = report.summary()
        result["wall_s"] = time.perf_counter() - t0
        result["quick"] = quick
        results[arm] = result
    return results


def print_chaos(arm: str, result: dict) -> None:
    print(f"== {arm} media ==")
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
            ["stuck cells at the end", result["stuck_cells"]],
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


def check_chaos(arm: str, result: dict) -> int:
    """One arm's acceptance gate: convergence and zero data loss."""
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
    if arm == "mortal" and not result["stuck_cells"]:
        failures.append("no cell died — the mortal arm is inert")
    if failures:
        for failure in failures:
            print(f"[chaos check FAILED ({arm}): {failure}]")
        return 1
    print(
        f"[chaos check OK ({arm}): {result['restarts']} restarts, "
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
    results = run_chaos(quick=args.quick)
    for arm, result in results.items():
        print_chaos(arm, result)
    if args.check:
        sys.exit(max(check_chaos(arm, r) for arm, r in results.items()))
    emit_json(JSON_PATH, results)


if __name__ == "__main__":
    main()
