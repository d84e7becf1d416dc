"""The four workloads of the end-to-end benchmark: store builders and
seeded input generators.

Everything a run feeds the store comes from one ``numpy`` generator seeded
with ``(--seed, workload index)`` and consumed in a fixed order (key
scramble, load values, then block after block), so equal seeds give equal
inputs.
Generating a block also advances the dict model and records what every GET
must return, which is what the timed loop checks results against.

The model configuration is spelled out here rather than borrowed from
``benchmarks/common.bench_config`` so that tuning the per-figure scripts
never moves this benchmark's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import E2NVM, KVStore
from repro.core.config import E2NVMConfig
from repro.nvm import MemoryController, NVMDevice
from repro.nvm.device import WearOutConfig
from repro.sharding import ShardedKVStore
from repro.workloads.ycsb import YCSBWorkload

N_KEYS = 256
VALUE_SIZE = 256
BATCH = 32
N_SHARDS = 2
WORKING_SET = 64
N_PROTOTYPES = 8
BIT_NOISE = 0.05
#: Seeds the content classes (prototypes) and the local workload's working
#: set — constants of the workloads, like the key count.
CONTENT_SEED = 2023
UPDATE_FRACTION = 0.05
ZIPF_THETA = 0.99
KEYS = [YCSBWorkload.key(i) for i in range(N_KEYS)]

#: ``benchmarks/common.bench_config(hidden=(32,), train_sample_limit=256,
#: ones_fraction_refresh_writes=0)`` as of the PR that added this
#: benchmark, frozen.  Maintenance, auto-retrain and drift stay off so
#: every device counter repeats exactly for a given seed.
_MODEL = dict(
    n_clusters=6,
    latent_dim=6,
    hidden=(32,),
    pretrain_epochs=5,
    joint_epochs=2,
    batch_size=64,
    train_sample_limit=256,
    lstm_epochs=3,
    lstm_hidden=16,
    ones_fraction_refresh_writes=0,
    seed=0,
)
SHIP_CONFIG = E2NVMConfig(**_MODEL)
LOCAL_CONFIG = E2NVMConfig(
    **_MODEL,
    fastpath_cache_size=1024,
    student_enabled=True,
    student_confidence=0.6,
)
SHIP_WEAROUT = WearOutConfig(seed=3)
SHIP_GEOMETRY = dict(
    segment_size=VALUE_SIZE,
    n_segments_per_shard=256,
    log_segments=8,
    key_capacity=32,
)
LOCAL_SEGMENTS = 512


def model(config: E2NVMConfig, smoke: bool) -> E2NVMConfig:
    """``config``, or for smoke runs the same model trained for one short
    epoch — training is most of a tiny run's time."""
    if not smoke:
        return config
    return replace(
        config, pretrain_epochs=1, joint_epochs=1, train_sample_limit=64
    )


def create_ship(root: Path, backend: str, smoke: bool) -> ShardedKVStore:
    """The shipped configuration: durable pool, wear-out media with
    verify-after-write, two shards."""
    return ShardedKVStore.create(
        root,
        N_SHARDS,
        config=model(SHIP_CONFIG, smoke),
        wearout=SHIP_WEAROUT,
        backend=backend,
        **SHIP_GEOMETRY,
    )


def open_ship(root: Path, backend: str, smoke: bool) -> ShardedKVStore:
    return ShardedKVStore.open(
        root,
        config=model(SHIP_CONFIG, smoke),
        wearout=SHIP_WEAROUT,
        backend=backend,
    )


def create_local(smoke: bool) -> KVStore:
    """Plain volatile store over immortal media: placement fast path, DAP
    and DCW only."""
    device = NVMDevice(
        capacity_bytes=LOCAL_SEGMENTS * VALUE_SIZE,
        segment_size=VALUE_SIZE,
        initial_fill="random",
        seed=1,
    )
    engine = E2NVM(MemoryController(device), model(LOCAL_CONFIG, smoke))
    engine.train()
    return KVStore(engine)


class Values:
    """Structured record values — a class prototype XOR sparse bit noise,
    the recipe of ``repro.workloads.ycsb.PrototypeValueGenerator`` — with
    the prototypes fixed by :data:`CONTENT_SEED` and only the choice of
    prototype and the noise drawn from ``rng``.  The paper's cost metrics
    depend on what the content classes look like; holding the classes
    still is what lets those metrics repeat within 1-2% across ``--seed``
    values instead of 4-14%."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.prototypes = np.random.default_rng(CONTENT_SEED).integers(
            0, 256, size=(N_PROTOTYPES, VALUE_SIZE), dtype=np.uint8
        )

    def fresh(self, n: int) -> list[bytes]:
        which = self.rng.integers(0, N_PROTOTYPES, size=n)
        noise = np.packbits(
            self.rng.random((n, VALUE_SIZE * 8)) < BIT_NOISE, axis=1
        )
        return [row.tobytes() for row in self.prototypes[which] ^ noise]


@dataclass(frozen=True)
class Call:
    """One facade call of a block.  ``expected`` is what it must return
    (``None`` for PUTs, whose result is an address)."""

    method: str
    args: tuple
    expected: object
    n_ops: int

    @property
    def is_put(self) -> bool:
        return self.expected is None


class Inputs:
    """Seeded input stream of one run plus the dict model it implies."""

    def __init__(self, seed: int, workload_index: int) -> None:
        self.rng = np.random.default_rng([seed, workload_index])
        self.values = Values(self.rng)
        #: Fresh-per-run scramble of Zipf ranks over the key space.
        self.key_of_rank = self.rng.permutation(N_KEYS)
        self.working_set = Values(
            np.random.default_rng(CONTENT_SEED + 1)
        ).fresh(WORKING_SET)
        #: ``current[i]`` is the value key ``i`` must hold.
        self.current: list[bytes | None] = [None] * N_KEYS

    def zipf(self, n: int, size: int) -> np.ndarray:
        """Exact Zipf(theta) ranks in ``[0, n)``, rank 0 most popular."""
        weights = 1.0 / np.arange(1, n + 1) ** ZIPF_THETA
        return self.rng.choice(n, size=size, p=weights / weights.sum())

    def put_batch(self, key_ids, values) -> Call:
        items = []
        for k, value in zip(key_ids, values):
            self.current[k] = value
            items.append((KEYS[k], value))
        return Call("put_many", (items,), None, len(items))

    def load_fresh(self) -> list[Call]:
        """Load phase: every key once, fresh prototype values."""
        return [
            self.put_batch(range(i, i + BATCH), self.values.fresh(BATCH))
            for i in range(0, N_KEYS, BATCH)
        ]

    def load_working_set(self) -> list[Call]:
        return [
            self.put_batch(
                range(i, i + BATCH),
                [self.working_set[k % WORKING_SET] for k in range(i, i + BATCH)],
            )
            for i in range(0, N_KEYS, BATCH)
        ]

    # ------------------------------------------------------- block generators

    def update_b32(self, n_calls: int) -> list[Call]:
        key_ids = self.rng.integers(0, N_KEYS, size=(n_calls, BATCH))
        values = self.values.fresh(n_calls * BATCH)
        return [
            self.put_batch(row, values[i * BATCH:(i + 1) * BATCH])
            for i, row in enumerate(key_ids.tolist())
        ]

    def point_ycsb_b(self, n_calls: int) -> list[Call]:
        key_ids = self.key_of_rank[self.zipf(N_KEYS, n_calls)].tolist()
        # Exactly 5% updates per block, at random positions: blocks must
        # be equally hard for a quantile over blocks to mean anything.
        updates = set(self.rng.choice(
            n_calls, size=round(UPDATE_FRACTION * n_calls), replace=False
        ).tolist())
        values = iter(self.values.fresh(len(updates)))
        calls = []
        for i, k in enumerate(key_ids):
            if i in updates:
                value = next(values)
                self.current[k] = value
                calls.append(Call("put", (KEYS[k], value), None, 1))
            else:
                calls.append(Call("get", (KEYS[k],), self.current[k], 1))
        return calls

    def read_b32(self, n_calls: int) -> list[Call]:
        key_ids = self.key_of_rank[
            self.zipf(N_KEYS, n_calls * BATCH)
        ].reshape(n_calls, BATCH)
        current = self.current
        return [
            Call(
                "get_many",
                ([KEYS[k] for k in row],),
                [current[k] for k in row],
                BATCH,
            )
            for row in key_ids.tolist()
        ]

    def rewrite_b32(self, n_calls: int) -> list[Call]:
        shape = (n_calls, BATCH)
        key_ids = self.key_of_rank[
            self.zipf(N_KEYS, n_calls * BATCH)
        ].reshape(shape)
        value_ids = self.zipf(WORKING_SET, n_calls * BATCH).reshape(shape)
        ws = self.working_set
        return [
            self.put_batch(krow, [ws[v] for v in vrow])
            for krow, vrow in zip(key_ids.tolist(), value_ids.tolist())
        ]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``block_calls`` facade calls make one timed block (0.1-0.25 s on
    the 2-core reference box).  ``backend`` is ``None`` for the plain
    local store.
    """

    name: str
    why: str
    backend: str | None
    block_calls: int
    load: Callable[[Inputs], list[Call]]
    block: Callable[[Inputs, int], list[Call]]


WORKLOADS = [
    Workload(
        "ship_update_b32",
        "shipped config on worker processes, 100% fresh-value put_many B=32:"
        " undo log, catalog, verify-after-write and device do nearly all"
        " the work",
        "process",
        8,
        Inputs.load_fresh,
        Inputs.update_b32,
    ),
    Workload(
        "ship_point_ycsb_b",
        "shipped config on worker processes, YCSB-B scalar get/put: one RPC"
        " per op dominates GET, the 5% PUTs are the batch-of-1 durable path",
        "process",
        1000,
        Inputs.load_fresh,
        Inputs.point_ycsb_b,
    ),
    Workload(
        "inproc_read_b32",
        "shipped config in-process, YCSB-C get_many B=32: read path only"
        " (ring, scatter, index, CRC, ECP read); a write-path change must"
        " leave it flat",
        "inprocess",
        750,
        Inputs.load_fresh,
        Inputs.read_b32,
    ),
    Workload(
        "local_rewrite_b32",
        "plain volatile KVStore, Zipf rewrite of a 64-value working set that"
        " fits the cache: placement fast path + DAP + DCW only, no ring, RPC,"
        " log or verify",
        None,
        280,
        Inputs.load_working_set,
        Inputs.rewrite_b32,
    ),
]
