"""End-to-end benchmark of the shipped E2-NVM configuration.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke]

One closed loop, one client, one process.  For each workload the runner
sets the store up (several times, to report a steady ``setup_s``), runs
fixed-size blocks of pre-generated calls for ``--seconds`` seconds, checks
every result against a dict model, reopens durable stores and fscks them,
and prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a separate, shorter traced run.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from multiprocessing import resource_tracker
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

# Two shard workers already fill this box's two cores; a BLAS thread pool
# inside each forked worker oversubscribes them (set-up swings 0.8-2.3 s
# against a steady 0.4 s).  Must precede the first NumPy import; an
# explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.sharding import ShardedKVStore  # noqa: E402
from repro.tools.fsck import fsck_sharded  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BATCH,
    KEYS,
    N_KEYS,
    VALUE_SIZE,
    WORKLOADS,
    Call,
    Inputs,
    Workload,
    create_local,
    create_ship,
    open_ship,
)

#: Blocks every run measures whatever ``--seconds`` says; the cost metrics
#: are counter deltas over the load phase plus exactly these blocks, so
#: they repeat bit for bit for a given seed however fast the box is.
MIN_BLOCKS = 48
SETUP_REPEATS = 9
TRACE_BLOCKS = 8
#: The RPC probe times this many chunks of 1000 scalar GETs (the block
#: size of the scalar workload, so the two read alike).
RPC_PROBE_CHUNKS = 10
#: Smoke runs: blocks this many times smaller, two of them, one set-up.
SMOKE_DIVISOR = 4
CALIB_NOISY = 0.10

DEVICE_KEYS = (
    "writes",
    "reads",
    "bits_flipped",
    "write_energy_pj",
    "read_energy_pj",
    "write_latency_ns",
)

clock = time.perf_counter_ns


# ------------------------------------------------------------------ stores


def device_counters(store) -> dict:
    """Cumulative device counters of the whole store (summed over shards;
    one telemetry RPC per shard on the process backend)."""
    if isinstance(store, ShardedKVStore):
        device = store.telemetry()["device"]
        return {key: device[key] for key in DEVICE_KEYS}
    stats = store.engine.controller.stats
    return {key: getattr(stats, key) for key in DEVICE_KEYS}


def engines_of(store) -> list:
    """The placement engines behind an in-process or local store."""
    if isinstance(store, ShardedKVStore):
        backend = store.backend
        return [backend.shard(s).engine for s in range(backend.n_shards)]
    return [store.engine]


def layer_counters(store) -> dict:
    """Counters the layers own that device telemetry does not carry."""
    out = {"cache_hits": 0, "cache_misses": 0, "student_served": 0,
           "teacher_served": 0, "verify_reads": 0}
    for engine in engines_of(store):
        placement = engine.placement_telemetry()
        for key in ("cache_hits", "cache_misses", "student_served",
                    "teacher_served"):
            out[key] += placement[key]
        out["verify_reads"] += engine.controller.verify_reads
    return out


def block_size(workload: Workload, smoke: bool) -> int:
    return max(2, workload.block_calls // (SMOKE_DIVISOR if smoke else 1))


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def discard(store) -> None:
    """Tear a throwaway store down without the device snapshots a real
    ``close()`` writes (0.3-0.7 s each on the shipped configuration)."""
    if isinstance(store, ShardedKVStore):
        store.backend.close()


def set_up(workload: Workload, inputs: Inputs, root: Path, backend,
           smoke: bool):
    """Create + train + load.  Returns ``(store, seconds, counters)``
    where ``counters`` were read between training and the load phase
    (outside the timed set-up)."""
    t0 = clock()
    if backend is None:
        store = create_local(smoke)
    else:
        if root.exists():
            shutil.rmtree(root)
        store = create_ship(root, backend, smoke)
    t1 = clock()
    base = device_counters(store)
    load = workload.load(inputs)
    t2 = clock()
    for call in load:
        store.put_many(*call.args)
    t3 = clock()
    return store, ((t1 - t0) + (t3 - t2)) / 1e9, base


# ------------------------------------------------------------- timed blocks


class Block:
    """Outcome of one timed block of calls."""

    def __init__(self, calls: list[Call]) -> None:
        self.n_ops = sum(call.n_ops for call in calls)
        self.is_put = np.array([call.is_put for call in calls])
        self.put_ops = sum(call.n_ops for call in calls if call.is_put)
        self.get_ops = self.n_ops - self.put_ops
        self.latency_ns = np.zeros(len(calls), dtype=np.int64)
        self.wall_ns = 0
        self.failed = 0
        self.results: list | None = None

    @property
    def ops_per_s(self) -> float:
        return self.n_ops / (self.wall_ns / 1e9)


def run_block(store, calls: list[Call], keep_results: bool = False) -> Block:
    """Issue ``calls`` back to back, timing each and the whole block, and
    compare every GET with what the dict model says it must return."""
    block = Block(calls)
    bound = [(getattr(store, c.method), c.args, c.expected) for c in calls]
    latency = block.latency_ns
    results = [] if keep_results else None
    failed = 0
    begin = clock()
    for i, (method, args, expected) in enumerate(bound):
        t0 = clock()
        try:
            got = method(*args)
        except Exception as exc:  # noqa: BLE001 - counted, reported, fatal
            latency[i] = clock() - t0
            failed += calls[i].n_ops
            print(f"  call {i} ({calls[i].method}) raised {exc!r}")
            got = None
        else:
            latency[i] = clock() - t0
            if expected is not None and got != expected:
                failed += wrong_values(got, expected)
        if keep_results:
            results.append(got)
    block.wall_ns = clock() - begin
    block.failed = failed
    block.results = results
    return block


def wrong_values(got, expected) -> int:
    if isinstance(expected, list):
        return sum(g != e for g, e in zip(got, expected))
    return 1


def steady(values, favourable: float) -> float:
    """The favourable twentieth of per-block values.

    The reference box is a 2-vCPU VM whose CPU speed sags for fractions of
    a second to minutes at a time (a pure-CPU kernel swings 57-95 ms
    there, in CPU time as much as in wall time).  The disturbance only
    ever slows a block, so the closer a quantile sits to the undisturbed
    speed the better it repeats from run to run; the 95th/5th percentile
    keeps that while shrugging off a handful of fluke blocks.  README.md
    has the measurements.
    """
    return float(np.percentile(np.asarray(values, dtype=float), favourable))


def quantiles(values) -> str:
    qs = np.percentile(np.asarray(values, dtype=float), [0, 5, 50, 95, 100])
    return "min/p5/p50/p95/max " + " / ".join(f"{q:.5g}" for q in qs)


# ------------------------------------------------------------- environment


def calibrate() -> float:
    """Seconds a fixed NumPy + pure-Python kernel takes (best of 5) — a
    yardstick for how loaded the box is, independent of the store."""
    data = np.arange(1 << 18, dtype=np.uint8)
    best = float("inf")
    for _ in range(5):
        t0 = clock()
        for _ in range(20):
            int(np.bitwise_xor(data, 0x5A).sum())
        acc = 0
        for i in range(100_000):
            acc += i & 7
        best = min(best, (clock() - t0) / 1e9)
    return best


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


@contextmanager
def work_dir(name: str):
    """A scratch directory inside the checkout, removed on exit."""
    base = REPO / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is using it


@contextmanager
def one_cpu():
    """Confine this process, and the shard workers it forks meanwhile, to
    one CPU.

    On the 2-vCPU reference VM a wake-up that crosses vCPUs, and a batch
    that needs both vCPUs at once, take as long as the host's other
    tenants allow: run-level throughput of the process-backend workloads
    spread 2-4 times wider free than confined (README.md, "Timing
    metrics").  With one client in a closed loop the scalar path never
    has two runnable processes anyway; the batched path gives up the
    overlap of its two workers.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@contextmanager
def stderr_to(path: Path):
    """Point file descriptor 2 at ``path`` — forked shard workers inherit
    it, so what they print while dying is countable."""
    sys.stderr.flush()
    saved = os.dup(2)
    with open(path, "wb") as sink:
        os.dup2(sink.fileno(), 2)
    try:
        yield
    finally:
        sys.stderr.flush()
        os.dup2(saved, 2)
        os.close(saved)


# --------------------------------------------------------- end-to-end run


def measure(workload: Workload, seed: int, seconds: float, smoke: bool):
    """The untraced run: end-to-end metrics and the correctness oracle."""
    index = WORKLOADS.index(workload)
    n_calls = block_size(workload, smoke)
    min_blocks = 2 if smoke else MIN_BLOCKS
    pinned = one_cpu() if workload.backend == "process" else nullcontext()
    with work_dir(workload.name) as work, pinned:
        root = work / "store"
        calib_before = calibrate()
        store = None
        setups = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            if store is not None:
                discard(store)
                # A store is cyclic garbage; left to the collector's own
                # schedule, several dead ones would set peak_rss_mb.
                store = None
                gc.collect()
            inputs = Inputs(seed, index)
            store, setup_s, base = set_up(
                workload, inputs, root, workload.backend, smoke
            )
            setups.append(setup_s)

        blocks: list[Block] = []
        cost = None
        while len(blocks) < min_blocks or (
            sum(b.wall_ns for b in blocks) < seconds * 1e9
        ):
            calls = workload.block(inputs, n_calls)
            blocks.append(run_block(store, calls))
            if len(blocks) == min_blocks:
                cost = delta(device_counters(store), base)
        failed = sum(b.failed for b in blocks)
        attempted = sum(b.n_ops for b in blocks)

        # Correctness oracle, part two: what the store holds at the end.
        expected = inputs.current
        if workload.backend is None:
            final = [store.get(key) for key in KEYS]
        else:
            store.close()
            reopened = open_ship(root, workload.backend, smoke)
            final = list(reopened.get_many(KEYS))
            discard(reopened)
            fsck = fsck_sharded(root)
            fsck_errors = len(fsck.errors) + sum(
                len(shard.errors) for shard in fsck.shards
            )
            for line in fsck.errors[:5]:
                print(f"  fsck: {line}")
            attempted += 1
            failed += fsck_errors
        mismatches = sum(g != e for g, e in zip(final, expected))
        attempted += N_KEYS
        failed += mismatches
        calib_after = calibrate()

    window = blocks[:min_blocks]
    cost_puts = N_KEYS + sum(b.put_ops for b in window)
    cost_gets = sum(b.get_ops for b in window)
    energy = cost["write_energy_pj"] + cost["read_energy_pj"]
    block_ops = [b.ops_per_s for b in blocks]
    block_p50 = [np.median(b.latency_ns) / 1e3 for b in blocks]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (steady(block_ops, 95), "op/s"),
        "call_us_p50": (steady(block_p50, 5), "us"),
        "bit_flips_per_user_bit": (
            cost["bits_flipped"] / (8 * VALUE_SIZE * cost_puts), "ratio"),
        "energy_pj_per_user_byte": (
            energy / (VALUE_SIZE * (cost_puts + cost_gets)), "pJ/B"),
        "device_writes_per_put": (cost["writes"] / cost_puts, "count"),
        "device_reads_per_op": (
            cost["reads"] / (cost_puts + cost_gets), "count"),
        "sim_write_us_per_put": (
            cost["write_latency_ns"] / cost_puts / 1e3, "us"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }

    calib_ratio = calib_after / calib_before
    noisy = abs(calib_ratio - 1) > CALIB_NOISY
    report = []
    report.append(("blocks", f"{len(blocks)} x {n_calls} calls"
                   f" ({blocks[0].n_ops} ops), "
                   f"{sum(b.wall_ns for b in blocks) / 1e9:.2f} s timed"))
    report.append(("cost window", f"load ({N_KEYS} PUTs) + first "
                   f"{min_blocks} blocks: {cost_puts} PUTs, "
                   f"{cost_gets} GETs"))
    report.append(("setup_s samples", " ".join(f"{s:.3f}" for s in setups)))
    report.append(("ops_per_s over blocks", quantiles(block_ops)))
    report.append(("call_us_p50 over blocks", quantiles(block_p50)))
    # Informational only: tails sit at the rate the box's own hiccups
    # arrive and do not repeat within any bound (README.md).
    for label, keep in (("put", True), ("get", False)):
        pooled = np.concatenate(
            [b.latency_ns[b.is_put == keep] for b in blocks])
        if pooled.size:
            report.append((
                f"{label}_call_us (informational)",
                f"p50 {np.percentile(pooled, 50) / 1e3:.1f}, "
                f"p99 {np.percentile(pooled, 99) / 1e3:.1f} "
                f"pooled over {pooled.size} calls"))
    report.append(("oracle", f"{attempted} checked, {failed} failed "
                   f"({mismatches} read-back mismatches)"))
    report.append(("calib_ratio", f"{calib_ratio:.3f}"
                   + ("  ** noisy: box load changed during the run **"
                      if noisy else "")))
    return attempted, failed, metrics, report


# --------------------------------------------------------------- traced run


def rpc_bytes(ring, calls: list[Call], results: list) -> tuple[int, int]:
    """Pickled bytes the process backend's pipes would carry for ``calls``
    (request ``(op, args, kwargs)`` and reply ``("ok", result)`` per shard
    message; the 4-byte length prefix of each message is not counted)."""
    dumps = ForkingPickler.dumps
    request = reply = 0
    for call, result in zip(calls, results):
        if call.method in ("put", "get"):
            request += len(dumps((call.method, call.args, None)))
            reply += len(dumps(("ok", result)))
            continue
        payload = call.args[0]
        keys = [item[0] for item in payload] if call.is_put else payload
        for indices in ring.partition(keys).values():
            sub = [payload[i] for i in indices]
            request += len(dumps((call.method, (sub,), None)))
            reply += len(dumps(("ok", [result[i] for i in indices])))
    return request, reply


def rpc_probe(store, n_chunks: int) -> float:
    """Microseconds of a scalar facade GET over the loaded keys: median
    per chunk of 1000 calls, median over chunks.  (Not the favourable
    twentieth: pipe ping-pong has a second, twice-as-fast regime when the
    scheduler co-locates client and worker, and the typical cost is what
    reconciles with the scalar workload.)"""
    get = store.get
    samples = np.zeros((n_chunks, 1000), dtype=np.int64)
    for chunk in samples:
        for i in range(1000):
            key = KEYS[i % N_KEYS]
            t0 = clock()
            get(key)
            chunk[i] = clock() - t0
    return float(np.median(np.median(samples, axis=1))) / 1e3


def trace(workload: Workload, seed: int, smoke: bool):
    """The traced run: the same inputs through an untraced and a traced
    in-process store (per-layer time by outside wrapping, overhead by
    difference), then an RPC probe against the process backend."""
    index = WORKLOADS.index(workload)
    n_calls = block_size(workload, smoke)
    n_blocks = 2 if smoke else TRACE_BLOCKS
    probe_chunks = 1 if smoke else RPC_PROBE_CHUNKS
    backend = None if workload.backend is None else "inprocess"
    sharded = backend is not None

    def fresh():
        return Inputs(seed, index)

    with work_dir(workload.name) as work:
        # Phase 1, untraced: wall clock, device counters, layer counters
        # and the results the RPC byte count needs.
        inputs = fresh()
        store, _, _ = set_up(
            workload, inputs, work / "plain", backend, smoke)
        block_calls = [
            workload.block(inputs, n_calls) for _ in range(n_blocks)
        ]
        device0, layers0 = device_counters(store), layer_counters(store)
        plain = [run_block(store, calls, keep_results=True)
                 for calls in block_calls]
        device = delta(device_counters(store), device0)
        layer = delta(layer_counters(store), layers0)
        request_bytes = reply_bytes = 0
        inproc_get_us = 0.0
        if sharded:
            for calls, block in zip(block_calls, plain):
                req, rep = rpc_bytes(store.ring, calls, block.results)
                request_bytes += req
                reply_bytes += rep
            inproc_get_us = rpc_probe(store, probe_chunks)
        discard(store)

        # Phase 2, traced: identical store, identical inputs.
        store, _, _ = set_up(
            workload, fresh(), work / "traced", backend, smoke)
        with Tracer() as tracer:
            traced = [run_block(store, calls) for calls in block_calls]
        discard(store)

        # Phase 3: what one RPC costs, and what teardown leaks.
        rpc_us = 0.0
        teardown_lines = 0
        if sharded:
            log = work / "stderr.log"
            with stderr_to(log), one_cpu():
                store, _, _ = set_up(
                    workload, fresh(), work / "process", "process", smoke
                )
                rpc_us = rpc_probe(store, probe_chunks) - inproc_get_us
                mark = log.stat().st_size
                store.close()
            leaked = log.read_bytes()
            sys.stderr.write(leaked[:mark].decode(errors="replace"))
            teardown_lines = sum(
                1 for line in leaked[mark:].splitlines() if line.strip()
            )

    n_ops = sum(b.n_ops for b in plain)
    puts = sum(b.put_ops for b in plain)
    gets = n_ops - puts
    failed = sum(b.failed for b in plain) + sum(b.failed for b in traced)
    traced_ns = sum(b.wall_ns for b in traced)
    metrics = layer_metrics(
        tracer, traced_ns, n_ops, puts, gets, device, layer)
    metrics.update({
        "sharding.backends.rpc_us_per_call": (rpc_us, "us"),
        "sharding.backends.request_bytes_per_op": (
            request_bytes / n_ops, "B"),
        "sharding.backends.reply_bytes_per_op": (reply_bytes / n_ops, "B"),
        "sharding.backends.teardown_stderr_lines": (teardown_lines, "count"),
        "trace.overhead_x": (
            steady([b.wall_ns for b in traced], 5)
            / steady([b.wall_ns for b in plain], 5), "x"),
    })
    report = [
        ("blocks", f"{n_blocks} x {n_calls} calls ({n_ops} ops), "
         f"{len(tracer)} spans"),
        ("walls", f"untraced {sum(b.wall_ns for b in plain) / 1e9:.3f} s, "
         f"traced {traced_ns / 1e9:.3f} s"),
    ]
    return 2 * n_ops, failed, metrics, report, tracer


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, traced_ns, n_ops, puts, gets, device, layer
) -> dict:
    """Per-layer metrics from the span forest and the counter deltas."""
    cols = tracer.columns()
    names, rows, self_ns = cols["name"], cols["rows"], cols["self_ns"]
    layer_of_name = tracer.layer_of_name()
    n_names = len(tracer.names)
    span_layer = layer_of_name[names]
    calls_by_layer = np.bincount(span_layer, minlength=len(LAYERS))
    self_by_layer = np.bincount(
        span_layer, weights=self_ns, minlength=len(LAYERS))
    rows_by_name = np.bincount(names, weights=rows, minlength=n_names)
    calls_by_name = np.bincount(names, minlength=n_names)
    self_by_name = np.bincount(names, weights=self_ns, minlength=n_names)

    def ids(*suffixes: str) -> list[int]:
        return [i for i, name in enumerate(tracer.names)
                if name.split(":", 1)[1] in suffixes]

    def total(per_name, *suffixes: str) -> float:
        return float(sum(per_name[i] for i in ids(*suffixes)))

    metrics = {}
    for i, name in enumerate(LAYERS):
        metrics[f"{name}.calls_per_op"] = (
            calls_by_layer[i] / n_ops, "count")
        metrics[f"{name}.self_us_per_op"] = (
            self_by_layer[i] / n_ops / 1e3, "us")

    # Device reads split by whether the facade call at the root is a PUT.
    is_read = np.isin(names, ids("NVMDevice.read_array",
                                 "NVMDevice.read_arrays"))
    put_roots = np.isin(names[cols["root"]], [
        i for i, name in enumerate(tracer.names)
        if name.rsplit(".", 1)[1] in ("put", "put_many")])
    reads_under_put = float(rows[is_read & put_roots].sum())
    reads_under_get = float(rows[is_read & ~put_roots].sum())

    # Undo-log writes: controller writes issued from inside a transaction
    # span, minus the one in-place data write per Transaction.write.
    parent = cols["parent"]
    tx_layer = list(LAYERS).index("pmem.transaction")
    under_tx = np.zeros(len(names), dtype=bool)
    has_parent = parent >= 0
    under_tx[has_parent] = span_layer[parent[has_parent]] == tx_layer
    tx_writes = float(
        (np.isin(names, ids("MemoryController.write")) & under_tx).sum())
    log_writes = tx_writes - total(calls_by_name, "Transaction.write")

    scalar_rows = total(rows_by_name, "NVMDevice.program")
    batched_rows = total(rows_by_name, "NVMDevice.program_many")
    program_self = total(
        self_by_name, "NVMDevice.program", "NVMDevice.program_many")
    forward = ("EncoderPipeline.predict_cluster",
               "EncoderPipeline.predict_batch")
    lookups = layer["cache_hits"] + layer["cache_misses"]
    flips = device["bits_flipped"]
    metrics.update({
        "core.fastpath.cache_hit_rate": (
            ratio(layer["cache_hits"], lookups), "ratio"),
        "core.fastpath.student_served_frac": (
            ratio(layer["student_served"], lookups), "ratio"),
        "core.fastpath.teacher_served_frac": (
            ratio(layer["teacher_served"], lookups), "ratio"),
        "core.pipeline.rows_per_call": (
            ratio(total(rows_by_name, *forward),
                  total(calls_by_name, *forward)), "count"),
        "pmem.transaction.tx_per_put": (
            ratio(total(calls_by_name, "PersistentPool.transaction"), puts),
            "count"),
        "pmem.transaction.log_writes_per_put": (
            ratio(log_writes, puts), "count"),
        "nvm.controller.verify_reads_per_write": (
            ratio(layer["verify_reads"], device["writes"]), "count"),
        "nvm.controller.scalar_fallback_frac": (
            ratio(scalar_rows, scalar_rows + batched_rows), "ratio"),
        "nvm.device.writes_per_put": (ratio(device["writes"], puts), "count"),
        "nvm.device.reads_per_put": (ratio(reads_under_put, puts), "count"),
        "nvm.device.reads_per_get": (ratio(reads_under_get, gets), "count"),
        "nvm.device.bits_flipped_per_write": (
            ratio(flips, device["writes"]), "count"),
        "nvm.device.host_ns_per_flipped_bit": (
            ratio(program_self, flips), "ns"),
        "nvm.device.sim_write_ns_per_flipped_bit": (
            ratio(device["write_latency_ns"], flips), "ns"),
        "trace.closure": (float(self_ns.sum()) / traced_ns, "ratio"),
    })
    return metrics


# --------------------------------------------------------------------- CLI


def print_run(workload: Workload, seed: int, traced: bool, attempted: int,
              failed: int, metrics: dict, report: list) -> None:
    kind = "per-layer (traced run)" if traced else "end-to-end"
    print(f"\n=== {workload.name}  seed={seed}  {kind} ===")
    print(f"  why: {workload.why}")
    for label, text in report:
        print(f"  {label}: {text}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name.ljust(width)}  {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed seconds of the untraced run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                        choices=(0, 1), help="1: the per-layer traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny counts, one set-up; with no --trace, both"
                        " runs of every selected workload")
    args = parser.parse_args(argv)

    print(f"box: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__}  (2 shards on this box: no multi-shard "
          "scaling number is reported)")
    print("fixed counts: " + ", ".join(
        f"{w.name}={w.block_calls}" for w in WORKLOADS)
        + f" calls per block; batch={BATCH}, keys={N_KEYS}, "
        f"value={VALUE_SIZE} B, min_blocks={MIN_BLOCKS}, "
        f"trace_blocks={TRACE_BLOCKS}, setup_repeats={SETUP_REPEATS}")
    if args.smoke:
        args.seconds = 0.0
    modes = [args.trace or 0] if (args.trace is not None or not args.smoke) \
        else [0, 1]
    all_failed = 0
    for workload in WORKLOADS:
        if args.workload not in (None, workload.name):
            continue
        for mode in modes:
            if mode:
                attempted, failed, metrics, report, _ = trace(
                    workload, args.seed, args.smoke)
            else:
                attempted, failed, metrics, report = measure(
                    workload, args.seed, args.seconds, args.smoke)
            print_run(workload, args.seed, bool(mode), attempted, failed,
                      metrics, report)
            all_failed += failed
    return 1 if all_failed else 0


def reap_processes() -> None:
    """Stop and wait for every process this run started, on any path out.

    Shard workers are joined by ``close()``; this catches the ones an
    exception stranded.  ``SharedMemory`` also starts multiprocessing's
    resource-tracker process, which otherwise outlives the interpreter by
    a moment (it exits on end-of-file of a pipe the interpreter closes
    only by dying) — long enough to be found running after the run.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    # Dropping the last SharedMemory objects first lets their finalizers
    # talk to a tracker that is still there (they would restart it).
    gc.collect()
    tracker._stop()  # closes the pipe, then waitpid()s the tracker


if __name__ == "__main__":
    try:
        status = main()
    finally:
        reap_processes()
    sys.exit(status)
