"""Sharded multi-channel engine: N independent vertical slices behind one
facade.

Real NVM/SSD controllers get their bandwidth from channel x way x plane
parallelism — many independent media units served by per-unit handlers (the
Samsung Arno ``AddressMappingLayer`` builds one ``ParallelUnit`` submodule
per handler; see SNIPPETS.md snippet 2 and the DESIGN.md note).  This
package models the same structure at the storage layer:

- :class:`~repro.sharding.ring.HashRing` — a seeded consistent-hash ring
  mapping keys to shards;
- :class:`~repro.sharding.shard.Shard` — one full vertical slice:
  ``NVMDevice`` + controller + sketch placement engine (no model) +
  durable ``KVStore`` (catalog, recovery) + optional in-process
  maintenance (scrubber and compactor);
- :class:`~repro.sharding.backends.ShardBackend` — the one execution
  backend, over one transport per shard: direct (the shard on the
  caller's thread; correctness baseline, works everywhere) or a pipe to a
  worker process holding the device array in ``SharedMemory``, so batched
  puts fan out across real cores and aggregate ops/s multiplies instead
  of serialising on the GIL;
- :class:`~repro.sharding.store.ShardedKVStore` — the facade: batch ops
  routed by shard (one engine call per shard), cross-shard telemetry
  rollup, per-shard clock events, manifest-based create/open/close with
  shard-by-shard crash recovery, and degraded-mode routing
  (``fail_fast`` / ``partial``) when shards are down;
- :class:`~repro.sharding.supervisor.ShardSupervisor` — the self-healing
  loop: heartbeat watchdog (hung workers killed), automatic reopen with
  exponential backoff under a restart budget, and per-shard circuit
  breakers when the budget runs dry;
- :mod:`~repro.sharding.rebalance` — crash-safe online rebalancing:
  journaled key migration (``rebalance.json`` intent log) draining moved
  keys to their new owners in budgeted copy/verify/delete batches while
  the facade dual-routes foreground traffic.
"""

from repro.sharding.backends import (
    ShardBackend,
    ShardCrashedError,
    ShardHungError,
    ShardUnavailableError,
)
from repro.sharding.rebalance import (
    RebalanceError,
    RebalanceInProgressError,
    RebalanceJournal,
    Rebalancer,
)
from repro.sharding.ring import HashRing, MovedArc, RingDiff
from repro.sharding.shard import Shard, ShardSpec
from repro.sharding.store import BatchReport, ShardedKVStore
from repro.sharding.supervisor import ShardCircuitOpenError, ShardSupervisor

__all__ = [
    "BatchReport",
    "HashRing",
    "MovedArc",
    "RebalanceError",
    "RebalanceInProgressError",
    "RebalanceJournal",
    "Rebalancer",
    "RingDiff",
    "Shard",
    "ShardBackend",
    "ShardCircuitOpenError",
    "ShardCrashedError",
    "ShardHungError",
    "ShardSupervisor",
    "ShardSpec",
    "ShardUnavailableError",
    "ShardedKVStore",
]
