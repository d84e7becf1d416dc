"""Outside-in span tracer for the end-to-end benchmark.

The tracer wraps the public callables at each layer boundary *from the
benchmark's side* (class attributes are swapped for timing wrappers and
restored afterwards); nothing in ``src/`` knows it exists.  Spans are kept
in memory as parallel ``array`` columns — start, end, parent, callable and
row count — so a million spans cost tens of megabytes, not hundreds.

A layer's **self time** is its spans' duration minus the part their direct
children cover.  Spans form a forest whose roots are the facade calls the
benchmark loop issues, so the self times of one run sum exactly to the
roots' durations; ``closure`` compares that sum with the loop's own wall
clock, i.e. it measures what the loop spends *outside* any span.

Single-threaded by design: the benchmark runs one client, the in-process
backend executes on the caller's thread, and maintenance loops are off.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from repro.core.address_pool import DynamicAddressPool
from repro.core.e2nvm import E2NVM
from repro.core.fastpath import FastPlacementLayer
from repro.core.kvstore import KVStore
from repro.core.pipeline import EncoderPipeline
from repro.index.rbtree import RedBlackTree
from repro.nvm.controller import MemoryController
from repro.nvm.device import NVMDevice
from repro.pmem.catalog import PersistentCatalog
from repro.pmem.pool import PersistentPool
from repro.pmem.transaction import Transaction
from repro.sharding.backends import InProcessBackend
from repro.sharding.ring import HashRing
from repro.sharding.shard import Shard
from repro.sharding.store import ShardedKVStore


def _batch_rows(args: tuple) -> int:
    """Row counter for batched callables: ``len`` of the first argument
    after ``self``."""
    return len(args[1])


#: layer -> [(owner class, attribute, row counter or None)].  Order is the
#: stack, facade first.  ``Transaction.__enter__``/``__exit__`` are the
#: begin and commit halves of ``pool.transaction()``.
LAYERS: dict[str, list[tuple]] = {
    "sharding.store": [
        (ShardedKVStore, "put", None),
        (ShardedKVStore, "get", None),
        (ShardedKVStore, "put_many", _batch_rows),
        (ShardedKVStore, "get_many", _batch_rows),
    ],
    "sharding.ring": [
        (HashRing, "shard_of", None),
        (HashRing, "partition", _batch_rows),
    ],
    "sharding.backends": [
        (InProcessBackend, "call", None),
        (InProcessBackend, "call_many", _batch_rows),
    ],
    "sharding.shard": [(Shard, "execute", None)],
    "core.kvstore": [
        (KVStore, "put", None),
        (KVStore, "get", None),
        (KVStore, "put_many", _batch_rows),
    ],
    "index.rbtree": [
        (RedBlackTree, "get", None),
        (RedBlackTree, "put", None),
    ],
    "core.e2nvm": [
        (E2NVM, "place", None),
        (E2NVM, "place_many", _batch_rows),
        (E2NVM, "write", None),
        (E2NVM, "write_many", _batch_rows),
        (E2NVM, "write_at", None),
        (E2NVM, "release", None),
        (E2NVM, "release_many", _batch_rows),
    ],
    "core.fastpath": [(FastPlacementLayer, "predict", _batch_rows)],
    "core.pipeline": [
        (EncoderPipeline, "predict_cluster", None),
        (EncoderPipeline, "predict_batch", _batch_rows),
    ],
    "core.address_pool": [
        (DynamicAddressPool, "get", None),
        (DynamicAddressPool, "get_many", _batch_rows),
        (DynamicAddressPool, "add", None),
    ],
    "pmem.transaction": [
        (PersistentPool, "transaction", None),
        (Transaction, "__enter__", None),
        (Transaction, "write", None),
        (Transaction, "__exit__", None),
    ],
    "pmem.catalog": [
        (PersistentCatalog, "tx_set", None),
        (PersistentCatalog, "tx_clear", None),
        (PersistentCatalog, "tx_move", None),
    ],
    "nvm.controller": [
        (MemoryController, "write", None),
        (MemoryController, "write_many", _batch_rows),
        (MemoryController, "read", None),
    ],
    "nvm.device": [
        (NVMDevice, "program", None),
        (NVMDevice, "program_many", _batch_rows),
        (NVMDevice, "read_array", None),
        (NVMDevice, "read_arrays", _batch_rows),
    ],
}


class Tracer:
    """Records one span per wrapped call while installed.

    Use as a context manager around the traced region; the span columns
    stay readable after exit.
    """

    def __init__(self) -> None:
        #: ``"layer:Class.attr"`` per wrapped callable; ``self.name``
        #: holds indices into it.
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("h")
        self.rows = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for layer, targets in LAYERS.items():
            for owner, attr, rows_of in targets:
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                self.names.append(f"{layer}:{owner.__name__}.{attr}")
                setattr(
                    owner,
                    attr,
                    self._wrap(original, len(self.names) - 1, rows_of),
                )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, original, name_index: int, rows_of):
        start, end, parent = self.start, self.end, self.parent
        name, rows, stack = self.name, self.rows, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_index)
            rows.append(1 if rows_of is None else rows_of(args))
            end.append(0)
            stack.append(span)
            # Clock reads sit innermost so the wrapper's own bookkeeping
            # lands in the parent's self time, not in this span.
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------- analysis

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> dict[str, np.ndarray]:
        """Span columns as NumPy arrays plus derived ``self_ns`` (duration
        minus direct children) and ``root`` (index of each span's root)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        child_ns = np.bincount(
            parent[has_parent],
            weights=duration[has_parent],
            minlength=len(start),
        )
        # Pointer jumping: parents precede children, depth is ~10.
        root = np.where(has_parent, parent, np.arange(len(start)))
        while True:
            up = parent[root]
            climb = up >= 0
            if not climb.any():
                break
            root = np.where(climb, up, root)
        return {
            "start": start,
            "end": end,
            "parent": parent,
            "name": np.frombuffer(self.name, dtype=np.int16),
            "rows": np.frombuffer(self.rows, dtype=np.int64),
            "duration_ns": duration,
            "self_ns": duration - child_ns.astype(np.int64),
            "root": root,
        }

    def layer_of_name(self) -> np.ndarray:
        """Layer index (position in :data:`LAYERS`) per entry of
        ``self.names``."""
        order = {layer: i for i, layer in enumerate(LAYERS)}
        return np.array(
            [order[n.split(":", 1)[0]] for n in self.names], dtype=np.int64
        )
