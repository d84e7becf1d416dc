"""One shard: a full vertical slice of the storage stack.

A shard owns its *entire* channel — ``NVMDevice`` + ``MemoryController`` +
a durable ``KVStore`` over a ``PersistentPool`` and its
``PersistentCatalog``, placing by content sketch
(:class:`~repro.core.sketch.SketchEngine`; no model is trained), plus,
with maintenance on, a scrubber and a compactor.  Nothing is shared
between shards: each carries its own sketch words, free set, wear state
and lock domain.

The same :class:`Shard` object serves both shard transports.  The direct
transport holds one in this process; the pipe transport builds one
*inside each worker* from a picklable :class:`ShardSpec`, with the whole
medium — content, wear, stuck cells, ECP, health and drift state — living
in a ``SharedMemory`` block owned by the parent.  The medium survives a
worker crash exactly like real NVM survives power loss, and
:meth:`Shard.build` in ``"open"`` mode adopts it as it stands to run
normal recovery.

With ``spec.maintenance`` set, the shard's scrubber and compactor run
*inside the shard's own process* on the shared
:class:`~repro.nvm.worker.MaintenanceWorker` loop: each worker process
scrubs its own drift and compacts its own retirements on its own cadence,
with no facade broadcast required.  :meth:`Shard.execute` gates the loops
around every foreground op, and per-worker loop state rides along in its
telemetry.

Every operation the facade fans out arrives through :meth:`Shard.execute`,
a single string-keyed dispatch — the request/response pipe protocol of the
pipe transport and the direct calls of the direct transport stay
identical by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.core.config import E2NVMConfig
from repro.core.kvstore import KVStore
from repro.nvm.compactor import Compactor
from repro.nvm.controller import MemoryController
from repro.nvm.device import DriftConfig, NVMDevice, WearOutConfig
from repro.nvm.device import medium_layout
from repro.nvm.scrubber import Scrubber
from repro.nvm.worker import MaintenanceWorker
from repro.pmem.catalog import PersistentCatalog
from repro.pmem.pool import PersistentPool
from repro.testing.faults import CrashError, FaultInjector


#: Sleep between in-shard scrub rounds.
SCRUB_INTERVAL_S = 0.05
#: Sleep between in-shard compaction rounds.
COMPACT_INTERVAL_S = 0.1


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to (re)build one shard in any process.

    Specs are pickled into worker processes and serialised (minus the
    config/wearout/drift objects) into the store manifest, so every field
    is plain data.

    Attributes:
        shard_id: position of this shard in the facade's shard list.
        segment_size: bytes per segment of the shard's device.
        n_segments: segments on the shard's device.
        key_capacity: catalog key capacity (longest key, in bytes).
        seed: device initial-content seed (shards get distinct seeds so
            their initial free contents differ, as independent channels
            would).
        config: engine settings; the sketch positions are drawn from its
            ``seed``.
        path: device snapshot file (``.npz``); ``open`` mode loads it.
        maintenance: attach a scrubber and a compactor to the store and
            run both on their own background cadence inside the shard's
            process; off, the shard has neither.
        wearout: optional endurance model for the shard's device.  Like
            ``config``, travels in code rather than the manifest — the
            medium carries its wear state itself.
        drift: optional retention-drift model, same manifest rules.
    """

    shard_id: int
    segment_size: int
    n_segments: int
    key_capacity: int = 16
    seed: int = 0
    config: E2NVMConfig = field(default_factory=E2NVMConfig)
    path: str | None = None
    maintenance: bool = False
    wearout: WearOutConfig | None = None
    drift: DriftConfig | None = None

    @property
    def capacity_bytes(self) -> int:
        return self.n_segments * self.segment_size

    def block_bytes(self, mode: str) -> int:
        """Size of the one buffer that holds this shard's whole medium, as
        :meth:`Shard.build` in ``mode`` lays it out: on ``"open"`` the
        snapshot's, whose fault models win (as in ``NVMDevice.load``)."""
        if mode == "open":
            return NVMDevice.snapshot_block_bytes(self.path)
        return medium_layout(
            self.capacity_bytes, self.segment_size, False, self.wearout,
            self.drift,
        )[1]

    def manifest_entry(self) -> dict:
        """The JSON-serialisable slice of this spec (the config and the
        wearout/drift models travel in code, not in the manifest — they
        are constructor arguments on open, exactly like
        ``KVStore.open``'s config; device snapshots carry the wear/drift
        *state* themselves)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("config", "wearout", "drift")
        }


class Shard:
    """One built vertical slice, dispatching facade operations."""

    def __init__(
        self,
        spec: ShardSpec,
        store: KVStore,
        device: NVMDevice,
        pool: PersistentPool,
    ) -> None:
        self.spec = spec
        self.store = store
        self.device = device
        self.pool = pool
        self.engine = store.engine
        self.faults: FaultInjector | None = None
        #: Background maintenance loops owned by this shard (scrubber,
        #: compactor) in start order.
        self.maintenance_workers: list[MaintenanceWorker] = []

    # -------------------------------------------------------------- building

    @classmethod
    def build(
        cls, spec: ShardSpec, mode: str, content_buffer=None
    ) -> "Shard":
        """Build the slice described by ``spec``.

        Args:
            spec: the shard description.
            mode: ``"create"`` formats a fresh medium; ``"open"`` adopts
                the medium in ``content_buffer`` as it stands when the
                buffer holds one (a restart: the shard's process died, its
                medium did not), else loads the device snapshot at
                ``spec.path`` into the buffer, and runs full recovery
                either way.
            content_buffer: optional buffer holding the whole medium, at
                least ``spec.block_bytes(mode)`` long (see
                :class:`NVMDevice`).
        """
        if mode not in ("create", "open"):
            raise ValueError(f"unknown shard build mode {mode!r}")
        geometry = (spec.n_segments, spec.segment_size, spec.key_capacity)
        if mode == "open":
            if spec.path is None:
                raise ValueError("open mode needs spec.path")
            device = NVMDevice.load(spec.path, content_buffer=content_buffer)
            if (
                device.capacity_bytes != spec.capacity_bytes
                or device.segment_size != spec.segment_size
            ):
                raise ValueError(
                    f"shard {spec.shard_id}'s medium has geometry "
                    f"{device.capacity_bytes}/{device.segment_size}, spec "
                    f"says {spec.capacity_bytes}/{spec.segment_size}"
                )
        else:
            device = NVMDevice(
                capacity_bytes=spec.capacity_bytes,
                segment_size=spec.segment_size,
                initial_fill="random",
                seed=spec.seed,
                content_buffer=content_buffer,
                wearout=PersistentCatalog.immortal_metadata(
                    spec.wearout, *geometry
                ),
                drift=PersistentCatalog.immortal_metadata(
                    spec.drift, *geometry
                ),
            )
        pool = PersistentPool(
            MemoryController(device),
            meta_segments=PersistentCatalog.meta_segments_for(*geometry),
        )
        build_store = KVStore.create if mode == "create" else KVStore.open
        store = build_store(
            pool, config=spec.config, key_capacity=spec.key_capacity
        )
        shard = cls(spec, store, device, pool)
        if spec.maintenance:
            shard.maintenance_workers += [
                Scrubber(
                    store,
                    segments_per_round=spec.n_segments,
                    interval_s=SCRUB_INTERVAL_S,
                ),
                Compactor(store, interval_s=COMPACT_INTERVAL_S),
            ]
            shard.start_maintenance()
        return shard

    # -------------------------------------------------------- maintenance

    def start_maintenance(self) -> None:
        """Start every attached maintenance loop (idempotent per worker)."""
        for worker in self.maintenance_workers:
            worker.start()

    def stop_maintenance(self) -> None:
        """Stop and join every maintenance loop (bounded joins)."""
        for worker in self.maintenance_workers:
            worker.stop()

    def pause_maintenance(self) -> None:
        """Gate the loops around a foreground op: no *new* round starts
        until :meth:`resume_maintenance` (an in-flight bounded round may
        complete — rounds are budgeted precisely so this is cheap)."""
        for worker in self.maintenance_workers:
            worker.pause()

    def resume_maintenance(self) -> None:
        for worker in self.maintenance_workers:
            worker.resume()

    # ------------------------------------------------------------ dispatch

    def execute(self, op: str, args: tuple = ()):
        """Run one facade operation; the single entry point both transports
        use, so in-process and worker-process shards behave identically —
        the maintenance loops are gated around the op here, not by the
        caller."""
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ValueError(f"unknown shard op {op!r}")
        self.pause_maintenance()
        try:
            return handler(*args)
        finally:
            self.resume_maintenance()

    # Operations.  Results must be picklable (they cross the process
    # backend's response pipe).

    def _op_put(self, key: bytes, value: bytes) -> int:
        return self.store.put(key, value)

    def _op_put_many(self, items: list[tuple[bytes, bytes]]) -> list[int]:
        return self.store.put_many(items)

    def _op_get(self, key: bytes) -> bytes | None:
        return self.store.get(key)

    def _op_get_many(self, keys: list[bytes]) -> list[bytes | None]:
        return self.store.get_many(keys)

    def _op_delete(self, key: bytes) -> bool:
        return self.store.delete(key)

    def _op_copy_absent(
        self, items: list[tuple[bytes, bytes]]
    ) -> list[bool]:
        """Rebalance copy target: insert each pair only if the key is
        absent here.  A foreground write that already landed on this
        shard (the key's *new* owner) must win over the stale source
        copy, so presence — whatever the value — suppresses the insert.
        Returns per-item whether the insert happened."""
        inserted = []
        for key, value in items:
            if key not in self.store:
                self.store.put(key, value)
                inserted.append(True)
            else:
                inserted.append(False)
        return inserted

    def _op_delete_many(self, keys: list[bytes]) -> list[bool]:
        """Rebalance delete-from-source: drop each key (idempotent —
        replaying after a crash deletes nothing twice)."""
        return [self.store.delete(key) for key in keys]

    def _op_len(self) -> int:
        return len(self.store)

    def _op_keys(self) -> list[bytes]:
        return list(self.store.keys())

    def _op_drain_relocations(self, budget: int | None = None) -> int:
        return self.store.drain_relocations(budget)

    def _op_save(self) -> str:
        """Persist the device snapshot to ``spec.path`` (the close path)."""
        self.device.save(self.spec.path)
        return self.spec.path

    def _op_recovery_report(self):
        return self.store.recovery

    def _op_age(self, cycles: int) -> int:
        """Accelerated media aging on this shard's device (chaos/lifetime
        drills); returns newly dead cells."""
        return self.device.age(cycles)

    def _op_advance_time(self, ticks: int) -> int:
        """Advance this shard's retention clock (drift model); returns
        newly drifted cells."""
        return self.device.advance_time(ticks)

    def _op_arm_crash(
        self, site: str, after: int = 0, torn_fraction: float | None = None
    ) -> None:
        """Arm a :class:`CrashError` at ``site`` — the crash-sweep hook of
        the sharded harness.  In a worker process the resulting crash kills
        the *process* (``os._exit``), modelling one channel's controller
        dying mid-operation while the media (shared memory) survives."""
        if self.faults is None:
            self.faults = FaultInjector()
            self.engine.faults = self.faults
            self.store.engine.faults = self.faults
            self.device.faults = self.faults
            self.pool.faults = self.faults
        self.faults.arm(
            site, error=CrashError, after=after, torn_fraction=torn_fraction
        )

    def _op_telemetry(self) -> dict:
        """Everything the facade aggregates, in one picklable dict.

        Top-level scalars and lists are this shard's own state; every
        top-level dict is a section of counters that
        :func:`~repro.sharding.store.aggregate_telemetry` sums across
        shards; ``placement`` carries the sketch's placement saving
        (:meth:`~repro.core.sketch.SketchEngine.placement_telemetry`)."""
        # Object segments only: the catalog region in front of them is
        # exempt from wear-out (``PersistentCatalog.immortal_metadata``).
        wear = self.device.segment_write_count[self.pool.meta_segments :]
        out = {
            "shard_id": self.spec.shard_id,
            "n_keys": len(self.store),
            "read_only": self.store.read_only,
            "maintenance": [w.telemetry() for w in self.maintenance_workers],
            "placement": self.engine.placement_telemetry(),
            "device": asdict(self.device.stats),
            "wear": {
                "max_segment_writes": int(wear.max()),
                "total_segment_writes": int(wear.sum()),
            },
        }
        if self.store.scrubber is not None:
            out["scrub"] = self.store.scrubber.telemetry()
        if self.store.compactor is not None:
            out["compaction"] = self.store.compactor.telemetry()
        return out
