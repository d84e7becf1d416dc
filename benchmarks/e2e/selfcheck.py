"""Does the benchmark agree with itself?

    python3 benchmarks/e2e/selfcheck.py [--seed N] [--second-seed M]

Runs every workload of ``BENCHMARK.json`` three times through ``run.py``
(untraced, at the declared ``run_seconds``): twice on ``--seed`` and once
on ``--second-seed``.  Passes when

- every run passes the correctness oracle,
- the counter-derived metrics (``EXACT``) are *identical* across the two
  same-seed sets, and
- every end-to-end metric of the second set is within its declared bound
  of the first.

Prints a per-metric table of both sets and exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: Metrics computed from device counters alone: one client, no timers, no
#: background work, so they must repeat bit for bit for a given seed.
EXACT = (
    "bit_flips_per_user_bit",
    "energy_pj_per_user_byte",
    "device_writes_per_put",
    "device_reads_per_op",
    "sim_write_us_per_put",
)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=REPO,
    )
    if proc.returncode != 0:
        print(proc.stdout[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its oracle")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--second-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        first = run_once(workload, args.seed, seconds)
        second = run_once(workload, args.seed, seconds)
        other = run_once(workload, args.second_seed, seconds)
        print(f"\n=== {workload} ===")
        print(f"  {'metric':26s} {'set 1':>12s} {'set 2':>12s} "
              f"{'rel diff':>9s} {'bound':>6s}   seed {args.second_seed}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[name], second[name]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = ""
            if name in EXACT and a != b:
                verdict = "  NOT EXACT"
            elif worse > bound:
                verdict = "  OUT OF BOUND"
            if verdict:
                problems.append(f"{workload}.{name}{verdict}")
            print(f"  {name:26s} {a:12.6g} {b:12.6g} {worse:+9.4f} "
                  f"{bound:6.2f}   {other[name]:.6g}{verdict}")
    if problems:
        print("\nFAILED: " + "; ".join(problems))
        return 1
    print("\nselfcheck passed: exact metrics identical, bounded metrics "
          "within bounds, oracle clean on both seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
