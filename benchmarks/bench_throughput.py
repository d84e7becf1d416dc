"""Hot write-path throughput: per-op vs batched vs sharded vs cached.

Measures the placement write path after the lock-narrowing, batched
inference, memo-cache fast placement, and sharded multi-channel overhauls:

- **single-thread ops/s** — per-op ``engine.write`` + ``engine.release``
  (the steady-state PUT/recycle stream every figure benchmark drives);
- **batched ops/s** — ``engine.write_many`` + ``release_many`` for several
  batch sizes: one stacked forward pass, one DAP claim, one vectorised
  device write per batch;
- **sharded ops/s** — batched overwrite PUTs against a
  ``ShardedKVStore`` at 1/2/4 shards on the *process* backend (one worker
  process per shard, shared-memory media), each a durable store created in
  a temporary directory that is removed afterwards.  Shards place, encode and
  write on real cores concurrently — this is the section that escapes the
  GIL.  Aggregate ops/s plus per-shard put-latency p50/p99; the scaling
  gate only arms on runners with enough cores (a 1-core box measures IPC
  overhead, not scaling, and is annotated as such);
- **p50/p99 place latency** — per-call ``engine.place`` wall time;
- **device** — what one simulated write costs the *host*: ``program_many``
  of 16 rows of 256 B (cache-line aligned), 52 B (unaligned, a catalog
  record) and 1 B (a flag byte) on mortal media against ``read_arrays`` of
  the same rows, interleaved in one process, minimum over repetitions.
  The gate is the write/read *ratio* per shape — both sides scale with
  the machine, so it arms on a noisy one-core runner where a host-time
  floor cannot;
- **cached** — the same loops on a Zipfian-skewed trace (YCSB-style: a
  small working set re-written constantly) against an engine with the
  value-keyed memo cache in front of the VAE + K-means teacher, plus the
  fast layer's telemetry.

Results land in ``BENCH_throughput.json`` at the repo root.  ``--quick``
shrinks op counts (same shapes) for CI smoke runs; ``--check`` compares
against the committed JSON instead of overwriting it and exits non-zero
when: single-thread ops/s regresses >30%; sharded aggregate ops/s
regresses >30% (only compared like-for-like — both runs on the same
``cpu_count`` and backend); 4-shard scaling falls below its floor on a
multi-core runner; the cached-path p50 place latency exceeds its ceiling;
the memo cache reports zero hits on the skewed trace; or a device shape's
write/read ratio exceeds its ceiling.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import numpy as np

from common import (
    REPO_ROOT,
    bench_arg_parser,
    bench_config,
    emit_json,
    print_table,
    seeded_engine,
)
from repro.nvm import NVMDevice, WearOutConfig
from repro.sharding import ShardedKVStore
from repro.workloads.zipfian import ZipfianGenerator

SEGMENT_SIZE = 1024
N_SEGMENTS = 256
BATCH_SIZES = (8, 32, 128)
#: Zipfian skew of the cached-path trace (YCSB's default theta) over a
#: working set small enough to live entirely in the memo cache.
ZIPF_THETA = 0.99
WORKING_SET = 64
JSON_PATH = REPO_ROOT / "BENCH_throughput.json"
#: ``--check`` fails when single-thread (or like-for-like sharded) ops/s
#: drops below this fraction of the committed baseline.
REGRESSION_FLOOR = 0.70
#: ``--check`` fails when the cached-path p50 place latency exceeds this —
#: 1/5 of the 308 µs teacher-path p50 the fast layer was built to beat.
CACHED_P50_CEILING_US = 61.6

#: Sharded-section sweep: aggregate throughput at each shard count.
SHARD_COUNTS = (1, 2, 4)
#: Smaller per-shard geometry than the single-engine sections — the sweep
#: builds (and trains) 1+2+4 = 7 full vertical slices per run.
SHARD_SEGMENT_SIZE = 256
SHARD_N_SEGMENTS = 128
#: Cores needed before the 4-shard scaling gate arms; below this the
#: process backend runs its workers on shared cores and the ratio
#: measures scheduling, not scaling.
SHARD_SCALING_MIN_CPUS = 4
#: Required 4-shard vs 1-shard aggregate speedup on a multi-core runner.
SHARD_SCALING_FLOOR = 2.5


#: Device-section shapes: row length and offset of each row within its
#: 256-B segment (0 = cache-line aligned).
DEVICE_SHAPES = {"16x256": (256, 0), "16x52": (52, 7), "16x1": (1, 7)}
DEVICE_ROWS = 16
#: Fraction of cells each row pulses — ``ship_update_b32``'s DCW masks.
DEVICE_MASK_DENSITY = 0.12
DEVICE_REPS = 15
DEVICE_CALLS_PER_REP = 20
#: ``--check`` fails when ``program_many`` costs more than this many
#: ``read_arrays`` of the same rows: 1.25x the largest of 27 runs of the
#: kernels this section arrived with (PR 20: 26-30 / 16-18 / 15-17 on a
#: quiet box, 118-131 us over 4.1-4.3 us at 16x256; 40 / 19.5 / 17.5 at
#: worst with a neighbour loading the memory bus, which slows the 16-MB
#: wear arrays of the write and not the L1-resident read).  The
#: denominator is this module's own ``read_arrays``: a read-path
#: regression *loosens* this gate, so judge the two columns, not only
#: the ratio, when it moves.  PR 20's parent read 25.5 / 27.0 / 25.7 —
#: 381 us over 14.9 us — because both sides got cheaper together; its
#: write kernels over today's reads would read about 90 / 48 / 37.
#: Since ``program_many`` returns its results as columns (no per-row
#: ``tolist``), five alternating runs per tree on a 2-vCPU box read at
#: most 25.6 / 15.1 / 13.1 against the old pass's 25.7 / 16.1 / 14.3;
#: the ceilings keep about the 2.0x / 1.5x / 1.6x headroom over the new
#: maxima, and 16x256 stays at 50 rather than loosen.
DEVICE_RATIO_CEILING = {"16x256": 50.0, "16x52": 23.0, "16x1": 21.0}


def _make_values(n: int, seed: int = 11) -> list[bytes]:
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(n, SEGMENT_SIZE), dtype=np.uint8)
    return [row.tobytes() for row in data]


def _make_skewed_values(n: int, seed: int = 23) -> list[bytes]:
    """A Zipfian re-write trace over a small working set of values."""
    pool = _make_values(WORKING_SET, seed=seed)
    gen = ZipfianGenerator(WORKING_SET, theta=ZIPF_THETA, seed=seed)
    return [pool[gen.next()] for _ in range(n)]


def _build_engine(cached: bool = False):
    # Full-segment values: the per-op cost is prediction + claim +
    # differential write.  The ``cached`` engine puts the memo cache in
    # front of the teacher; the plain engine measures the teacher-only
    # path.
    config = bench_config(
        hidden=(64,),
        train_sample_limit=N_SEGMENTS,
        fastpath_cache_size=4096 if cached else 0,
    )
    return seeded_engine(
        _make_values(N_SEGMENTS, seed=3), SEGMENT_SIZE, config=config
    )


def _run_single(engine, values: list[bytes]) -> float:
    start = time.perf_counter()
    for value in values:
        addr, _ = engine.write(value)
        engine.release(addr)
    return len(values) / (time.perf_counter() - start)


def _run_batched(engine, values: list[bytes], batch_size: int) -> float:
    start = time.perf_counter()
    done = 0
    while done < len(values):
        batch = values[done : done + batch_size]
        placed = engine.write_many(batch)
        engine.release_many([addr for addr, _ in placed])
        done += len(batch)
    return len(values) / (time.perf_counter() - start)


def _place_latencies(engine, values: list[bytes]) -> np.ndarray:
    out = np.empty(len(values))
    for i, value in enumerate(values):
        start = time.perf_counter()
        addr = engine.place(value)
        out[i] = time.perf_counter() - start
        engine.release(addr)  # restore the pool, untimed
    return out * 1e6  # µs


def _sharded_config():
    return bench_config(
        hidden=(32,),
        train_sample_limit=SHARD_N_SEGMENTS,
        fastpath_cache_size=1024,
    )


def _run_one_shard_count(n_shards: int, n_ops: int, n_latency: int) -> dict:
    """Aggregate batched-PUT throughput and per-shard put latency for one
    shard count on the process backend."""
    with tempfile.TemporaryDirectory() as root, ShardedKVStore.create(
        root,
        n_shards,
        segment_size=SHARD_SEGMENT_SIZE,
        n_segments_per_shard=SHARD_N_SEGMENTS,
        config=_sharded_config(),
        backend="process",
    ) as store:
        rng = np.random.default_rng(29 + n_shards)
        # Steady-state overwrite stream: a fixed key population (well under
        # per-shard capacity) rewritten with fresh full-segment values, so
        # every PUT exercises place + claim + differential write and the
        # old address recycles.
        keys = [b"bench-%05d" % i for i in range(32 * n_shards)]
        def fresh_items(count):
            data = rng.integers(
                0, 256, size=(count, SHARD_SEGMENT_SIZE), dtype=np.uint8
            )
            return [
                (keys[i % len(keys)], data[i].tobytes())
                for i in range(count)
            ]

        store.put_many(fresh_items(len(keys)))  # warm: populate every key

        items = fresh_items(n_ops)
        start = time.perf_counter()
        for done in range(0, n_ops, 32):
            store.put_many(items[done : done + 32])
        aggregate = n_ops / (time.perf_counter() - start)

        by_shard: dict[int, list[float]] = {}
        for key, value in fresh_items(n_latency):
            t0 = time.perf_counter()
            store.put(key, value)
            by_shard.setdefault(store.shard_of(key), []).append(
                (time.perf_counter() - t0) * 1e6
            )
        latency = {
            str(shard): {
                "p50": round(float(np.percentile(lats, 50)), 1),
                "p99": round(float(np.percentile(lats, 99)), 1),
                "n": len(lats),
            }
            for shard, lats in sorted(by_shard.items())
        }
        return {
            "aggregate_ops_per_s": round(aggregate, 1),
            "put_latency_us": latency,
        }


def _run_sharded_section(quick: bool) -> dict:
    """The 1/2/4-shard process-backend sweep."""
    cpu_count = os.cpu_count() or 1
    n_ops = 240 if quick else 1200
    n_latency = 64 if quick else 240
    out: dict = {
        "backend": "process",
        "segment_size": SHARD_SEGMENT_SIZE,
        "n_segments_per_shard": SHARD_N_SEGMENTS,
        "cpu_count": cpu_count,
        "scaling_measurable": cpu_count >= SHARD_SCALING_MIN_CPUS,
        "shards": {},
    }
    for n_shards in SHARD_COUNTS:
        out["shards"][str(n_shards)] = _run_one_shard_count(
            n_shards, n_ops, n_latency
        )
    first = out["shards"][str(SHARD_COUNTS[0])]["aggregate_ops_per_s"]
    last = out["shards"][str(SHARD_COUNTS[-1])]["aggregate_ops_per_s"]
    out["scaling_x_4"] = round(last / first, 2)
    if not out["scaling_measurable"]:
        out["scaling_note"] = (
            f"cpu_count {cpu_count} < {SHARD_SCALING_MIN_CPUS}: shard "
            "workers share cores, ratio is not a scaling measurement"
        )
    return out


def _run_device_section() -> dict:
    """Host cost of the simulated medium, per shape: best-of-N
    ``program_many`` and ``read_arrays`` on mortal media, the two
    interleaved so both see the same machine."""
    segment, n_segments = 256, 512
    device = NVMDevice(
        n_segments * segment, segment, initial_fill="random", seed=1,
        wearout=WearOutConfig(seed=3),
    )
    rng = np.random.default_rng(0)
    cases = {}
    for name, (length, offset) in DEVICE_SHAPES.items():
        segs = rng.choice(n_segments, DEVICE_ROWS, replace=False)
        addrs = segs.astype(np.int64) * segment + offset
        new = rng.integers(0, 256, (DEVICE_ROWS, length), dtype=np.uint8)
        masks = np.packbits(
            rng.random((DEVICE_ROWS, length * 8)) < DEVICE_MASK_DENSITY,
            axis=1,
        )
        cases[name] = (addrs, new, masks)

    def per_call_us(call) -> float:
        start = time.perf_counter()
        for _ in range(DEVICE_CALLS_PER_REP):
            call()
        return (time.perf_counter() - start) / DEVICE_CALLS_PER_REP * 1e6

    write = dict.fromkeys(cases, float("inf"))
    read = dict.fromkeys(cases, float("inf"))
    for _ in range(DEVICE_REPS):
        for name, (addrs, new, masks) in cases.items():
            write[name] = min(write[name], per_call_us(
                lambda: device.program_many(addrs, new, masks)))
            read[name] = min(read[name], per_call_us(
                lambda: device.read_arrays(addrs, new.shape[1])))
    return {
        name: {
            "program_many_us": round(write[name], 1),
            "read_arrays_us": round(read[name], 1),
            "write_read_ratio": round(write[name] / read[name], 1),
        }
        for name in cases
    }


def _run_cached_section(quick: bool) -> dict:
    """The skewed-trace run against the cache → teacher engine."""
    n_ops = 400 if quick else 2000
    n_latency = 100 if quick else 500
    engine = _build_engine(cached=True)
    values = _make_skewed_values(n_ops)

    single = _run_single(engine, values)
    batched = {b: _run_batched(engine, values, b) for b in BATCH_SIZES}
    latencies = _place_latencies(engine, values[:n_latency])
    return {
        "working_set": WORKING_SET,
        "zipf_theta": ZIPF_THETA,
        "single_thread_ops_per_s": round(single, 1),
        "batched_ops_per_s": {
            str(b): round(ops, 1) for b, ops in batched.items()
        },
        "place_latency_us": {
            "p50": round(float(np.percentile(latencies, 50)), 1),
            "p99": round(float(np.percentile(latencies, 99)), 1),
        },
        "telemetry": engine.placement_telemetry(),
    }


def run_throughput(quick: bool = False) -> dict:
    n_ops = 400 if quick else 2000
    n_latency = 100 if quick else 500
    engine = _build_engine()
    values = _make_values(n_ops, seed=17)

    single = _run_single(engine, values)
    batched = {b: _run_batched(engine, values, b) for b in BATCH_SIZES}
    latencies = _place_latencies(engine, values[:n_latency])

    return {
        "segment_size": SEGMENT_SIZE,
        "n_segments": N_SEGMENTS,
        "n_ops": n_ops,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "single_thread_ops_per_s": round(single, 1),
        "sharded": _run_sharded_section(quick),
        "batched_ops_per_s": {
            str(b): round(ops, 1) for b, ops in batched.items()
        },
        "batched_speedup_32x": round(batched[32] / single, 2),
        "place_latency_us": {
            "p50": round(float(np.percentile(latencies, 50)), 1),
            "p99": round(float(np.percentile(latencies, 99)), 1),
        },
        "mean_prediction_latency_us": round(
            engine.pipeline.mean_prediction_latency_us, 1
        ),
        "cached": _run_cached_section(quick),
        "device": _run_device_section(),
    }


def report(result: dict) -> None:
    rows = [
        ["single-thread write+release", result["single_thread_ops_per_s"]],
    ]
    sharded = result["sharded"]
    for n_shards, entry in sharded["shards"].items():
        rows.append(
            [
                f"sharded put_many ({n_shards} shard(s), "
                f"{sharded['backend']})",
                entry["aggregate_ops_per_s"],
            ]
        )
    for batch, ops in result["batched_ops_per_s"].items():
        rows.append([f"batched write_many (B={batch})", ops])
    cached = result["cached"]
    rows.append(
        [
            f"cached single (zipf {cached['zipf_theta']})",
            cached["single_thread_ops_per_s"],
        ]
    )
    for batch, ops in cached["batched_ops_per_s"].items():
        rows.append([f"cached batched (B={batch})", ops])
    print_table("Write-path throughput", ["path", "ops/s"], rows)
    note = sharded.get("scaling_note")
    print(
        f"sharded scaling 4-vs-1: {sharded['scaling_x_4']}x"
        + (f" [{note}]" if note else "")
    )
    print_table(
        "Host cost of the simulated medium (16 rows, mortal media)",
        ["shape", "program_many us", "read_arrays us", "write/read"],
        [
            [name, e["program_many_us"], e["read_arrays_us"],
             e["write_read_ratio"]]
            for name, e in result["device"].items()
        ],
    )
    lat = result["place_latency_us"]
    clat = cached["place_latency_us"]
    tel = cached["telemetry"]
    print(
        f"place latency: p50 {lat['p50']} us, p99 {lat['p99']} us; "
        f"mean prediction {result['mean_prediction_latency_us']} us"
    )
    print(
        f"cached place latency: p50 {clat['p50']} us, p99 {clat['p99']} us; "
        f"cache hits {tel['cache_hits']}, misses {tel['cache_misses']}, "
        f"teacher served {tel['teacher_served']}"
    )


def _check_sharded(baseline: dict, result: dict) -> int:
    """Gate the sharded section.

    Two checks, each only where it is meaningful:

    - **scaling**: on a runner with at least ``SHARD_SCALING_MIN_CPUS``
      cores, 4-shard aggregate ops/s must reach ``SHARD_SCALING_FLOOR``x
      the 1-shard number *within this run* — no baseline needed.  On
      smaller runners it is skipped with the reason printed.
    - **regression**: like-for-like vs the committed baseline (same
      ``cpu_count``, same backend, baseline has a sharded section): each
      shard count's aggregate ops/s must stay above ``REGRESSION_FLOOR``.
    """
    cur = result.get("sharded")
    if not cur:
        print("REGRESSION: no sharded section in this run")
        return 1
    failures = 0
    if cur["scaling_measurable"]:
        if cur["scaling_x_4"] < SHARD_SCALING_FLOOR:
            print(
                f"REGRESSION: 4-shard aggregate scaling {cur['scaling_x_4']}x "
                f"is below the {SHARD_SCALING_FLOOR}x floor on a "
                f"{cur['cpu_count']}-core runner"
            )
            failures += 1
        else:
            print(
                f"[sharded scaling OK: {cur['scaling_x_4']}x at 4 shards]"
            )
    else:
        print(
            f"[sharded scaling gate skipped: cpu_count {cur['cpu_count']} "
            f"< {SHARD_SCALING_MIN_CPUS}]"
        )
    base = baseline.get("sharded")
    if (
        not base
        or base.get("cpu_count") != cur.get("cpu_count")
        or base.get("backend") != cur.get("backend")
    ):
        print("[sharded regression check skipped: no like-for-like baseline]")
        return failures
    for n_shards, cur_entry in cur["shards"].items():
        base_entry = base["shards"].get(n_shards)
        if not base_entry:
            continue
        floor = base_entry["aggregate_ops_per_s"] * REGRESSION_FLOOR
        if cur_entry["aggregate_ops_per_s"] < floor:
            print(
                f"REGRESSION: {n_shards}-shard aggregate "
                f"{cur_entry['aggregate_ops_per_s']:.0f} ops/s is below "
                f"{REGRESSION_FLOOR:.0%} of the committed "
                f"{base_entry['aggregate_ops_per_s']:.0f} ops/s"
            )
            failures += 1
        else:
            print(
                f"[sharded {n_shards}-shard OK: "
                f"{cur_entry['aggregate_ops_per_s']:.0f} ops/s vs committed "
                f"{base_entry['aggregate_ops_per_s']:.0f}]"
            )
    return failures


def _check_cached(result: dict) -> int:
    """Gate the fast path: p50 latency ceiling and non-zero cache hits."""
    cached = result.get("cached")
    if not cached:
        print("REGRESSION: no cached section in this run")
        return 1
    failures = 0
    p50 = cached["place_latency_us"]["p50"]
    if p50 > CACHED_P50_CEILING_US:
        print(
            f"REGRESSION: cached-path p50 place latency {p50:.1f} us "
            f"exceeds the {CACHED_P50_CEILING_US} us ceiling"
        )
        failures += 1
    hits = cached["telemetry"]["cache_hits"]
    if hits == 0:
        print(
            "REGRESSION: memo cache reported zero hits on the skewed "
            "trace — the cache tier is not being consulted"
        )
        failures += 1
    if not failures:
        print(
            f"[cached check OK: p50 {p50:.1f} us "
            f"(ceiling {CACHED_P50_CEILING_US}), {hits} cache hits]"
        )
    return failures


def _check_device(result: dict) -> int:
    """Gate the device section: per shape, one ``program_many`` may cost
    at most ``DEVICE_RATIO_CEILING`` ``read_arrays`` of the same rows."""
    failures = 0
    for name, ceiling in DEVICE_RATIO_CEILING.items():
        ratio = result["device"][name]["write_read_ratio"]
        if ratio > ceiling:
            print(
                f"REGRESSION: device {name} program_many costs {ratio}x "
                f"read_arrays, over the {ceiling}x ceiling"
            )
            failures += 1
        else:
            print(f"[device {name} OK: write/read {ratio}x <= {ceiling}x]")
    return failures


def check_regression(result: dict) -> int:
    """Compare against the committed baseline; 0 = OK, 1 = regressed."""
    if not JSON_PATH.exists():
        print(f"[no committed baseline at {JSON_PATH}; skipping check]")
        return 0
    import json

    baseline = json.loads(JSON_PATH.read_text())
    failures = 0
    floor = baseline["single_thread_ops_per_s"] * REGRESSION_FLOOR
    current = result["single_thread_ops_per_s"]
    if current < floor:
        print(
            f"REGRESSION: single-thread {current:.0f} ops/s is below "
            f"{REGRESSION_FLOOR:.0%} of the committed "
            f"{baseline['single_thread_ops_per_s']:.0f} ops/s"
        )
        failures += 1
    else:
        print(
            f"[perf check OK: {current:.0f} ops/s vs committed "
            f"{baseline['single_thread_ops_per_s']:.0f} ops/s, "
            f"floor {floor:.0f}]"
        )
    failures += _check_sharded(baseline, result)
    failures += _check_cached(result)
    failures += _check_device(result)
    return 1 if failures else 0


def main() -> None:
    parser = bench_arg_parser(__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed BENCH_throughput.json instead "
        "of overwriting it; exit 1 on a >30%% throughput regression "
        "(single-thread or like-for-like sharded), 4-shard scaling below "
        f"{SHARD_SCALING_FLOOR}x on a multi-core runner, a cached-path "
        "p50 over its ceiling, zero cache hits on the skewed trace, or a "
        "device write/read ratio over its ceiling",
    )
    args = parser.parse_args()
    result = run_throughput(quick=args.quick)
    report(result)
    if args.check:
        sys.exit(check_regression(result))
    emit_json(JSON_PATH, result)


if __name__ == "__main__":
    main()
