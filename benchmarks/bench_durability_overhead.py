"""Durability overhead: volatile vs durable KV write path, per PUT.

The paper's Figure 1 experiment "use[s] PMDK's transactions to persist
writes" and pays the undo-log traffic on every write; this benchmark
quantifies what durability costs the full KV store.  The same seeded PUT
stream runs over byte-identical devices in four ways:

- **volatile** — the historical simulator mode (DRAM index and flags,
  values written straight through the engine);
- **durable** — values written to free segments, then published in the
  non-newest of two self-checking slots of each key's persistent catalog
  record (no log);

each as **scalar** ``put`` calls and as ``put_many`` batches of
``BATCH`` pairs.  A durable PUT costs the value write plus one catalog
row — a 22-B slot for an update, the key and a slot in one 40-B row for
an insert — so it is exactly 2 device writes, scalar or batched: there is
no log left for a batch to amortise.  With the undo log a scalar PUT was
5 device writes and a batched one 2.81; while the catalog was indexed by
segment 6.96 / 4.55; before group commit (``BEFORE``, measured with this
same PUT stream) every pair paid a transaction of its own, undo copy of
the value included: 17 device writes per PUT, batched or not.

Results land in ``BENCH_durability.json``.
"""

from __future__ import annotations

from common import REPO_ROOT, emit_json, print_table, run_once

from repro.core import E2NVM, KVStore
from repro.core.config import fast_test_config
from repro.nvm import MemoryController, NVMDevice
from repro.pmem import PersistentCatalog, PersistentPool
from repro.testing.crash_sweep import make_ycsb_trace

SEGMENT_SIZE = 64
N_SEGMENTS = 96
KEY_CAPACITY = 16
N_PUTS = 233
BATCH = 8
JSON_PATH = REPO_ROOT / "BENCH_durability.json"
META_SEGMENTS = PersistentCatalog.meta_segments_for(
    N_SEGMENTS, SEGMENT_SIZE, KEY_CAPACITY
)
METRICS = (
    ("device writes", "writes"),
    ("device reads", "reads"),
    ("bit flips", "bits_flipped"),
)

#: Durable per-PUT costs of this PUT stream at the parent commit (one
#: transaction per pair, value undo-logged); ``put_many`` committed pair
#: by pair, so batching bought nothing.
BEFORE = {
    "scalar": {"device writes": 16.996, "device reads": 19.953,
               "bit flips": 486.87},
    "batched": {"device writes": 16.996, "device reads": 19.953,
                "bit flips": 488.99},
}


def _device(seed: int = 7) -> NVMDevice:
    return NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT_SIZE,
        segment_size=SEGMENT_SIZE,
        initial_fill="random",
        seed=seed,
    )


def _store(durable: bool) -> tuple[NVMDevice, KVStore]:
    device = _device()
    config = fast_test_config()
    if durable:
        pool = PersistentPool(
            MemoryController(device), meta_segments=META_SEGMENTS
        )
        return device, KVStore.create(
            pool, config=config, key_capacity=KEY_CAPACITY
        )
    engine = E2NVM(
        MemoryController(device), config,
        reserved_segments=META_SEGMENTS,
    )
    engine.train()
    return device, KVStore(engine)


def run_durability_overhead(seed: int = 0) -> dict:
    """Per-PUT device cost of every (mode, call shape) combination."""
    puts = [
        (op[1], op[2])
        for op in make_ycsb_trace(
            2 * N_PUTS, n_keys=10, value_size=SEGMENT_SIZE, seed=seed
        )
        if op[0] == "put"
    ][:N_PUTS]
    per_put: dict[str, dict[str, dict[str, float]]] = {}
    for mode in ("volatile", "durable"):
        per_put[mode] = {}
        for shape in ("scalar", "batched"):
            device, store = _store(durable=mode == "durable")
            device.reset_stats()
            if shape == "scalar":
                for key, value in puts:
                    store.put(key, value)
            else:
                for i in range(0, len(puts), BATCH):
                    store.put_many(puts[i : i + BATCH])
            per_put[mode][shape] = {
                name: getattr(device.stats, field) / len(puts)
                for name, field in METRICS
            }
    return {
        "n_puts": len(puts),
        "batch": BATCH,
        "segment_size": SEGMENT_SIZE,
        "per_put": per_put,
        "durable_before": BEFORE,
    }


def rows_of(result: dict) -> list[list]:
    rows = []
    for shape in ("scalar", "batched"):
        for name, _ in METRICS:
            volatile = result["per_put"]["volatile"][shape][name]
            durable = result["per_put"]["durable"][shape][name]
            rows.append([
                f"{name} / PUT ({shape})", volatile,
                result["durable_before"][shape][name], durable,
                durable / max(volatile, 1e-12),
            ])
    return rows


HEADERS = ["metric", "volatile", "durable before", "durable", "multiplier"]
TITLE = (
    f"Durability overhead per PUT: scalar put vs put_many B={BATCH} "
    f"({N_PUTS} PUTs, 10 keys)"
)


def test_bench_durability_overhead(benchmark):
    result = run_once(benchmark, run_durability_overhead)
    print_table(TITLE, HEADERS, rows_of(result))
    durable, before = result["per_put"]["durable"], result["durable_before"]
    volatile = result["per_put"]["volatile"]
    for shape in ("scalar", "batched"):
        # A durable PUT is its value and one catalog row, nothing else...
        assert durable[shape]["device writes"] == 2.0
        assert volatile[shape]["device writes"] == 1.0
        # ...well under the per-pair undo-logged commit.
        for name, _ in METRICS:
            assert durable[shape][name] < 0.6 * before[shape][name], name


if __name__ == "__main__":
    outcome = run_durability_overhead()
    print_table(TITLE, HEADERS, rows_of(outcome))
    emit_json(JSON_PATH, outcome)
