"""One shard: a full vertical slice of the storage stack.

A shard owns its *entire* channel — ``NVMDevice`` + ``MemoryController`` +
``E2NVM`` engine (DAP, fast placement, retrain worker) + ``KVStore`` (and,
in durable mode, ``PersistentPool`` + ``PersistentCatalog``), plus optional
scrubber/compactor workers.  Nothing is shared between shards: each carries
its own clusters, model epoch, wear state and lock domain, so shards
compose with the E2-NVM placement scheme instead of fighting it
(Predict-and-Write's per-group clustering, PAPERS.md).

The same :class:`Shard` object serves both shard transports.  The direct
transport holds one in this process; the pipe transport builds one
*inside each worker* from a picklable :class:`ShardSpec`, with the device
content array living in a ``SharedMemory`` block owned by the parent — the
media survives a worker crash exactly like real NVM survives power loss,
and :meth:`Shard.build` re-attaches to it in ``"attach"`` mode to run
normal recovery.

With ``spec.maintenance`` set, the shard's scrubber/compactor — and a
:class:`RetrainTicker` driving the engine's retrain policy — run
*supervised inside the shard's own process* on the shared
:class:`~repro.nvm.worker.MaintenanceWorker` loop: each worker process
scrubs its own drift, compacts its own retirements and retrains its own
model on its own cadence, with no facade broadcast required.
:meth:`Shard.execute` gates the loops around every foreground op, and
per-worker loop state rides along in its telemetry.

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
from repro.nvm.scrubber import Scrubber
from repro.nvm.worker import MaintenanceWorker
from repro.pmem.catalog import PersistentCatalog
from repro.pmem.pool import PersistentPool
from repro.testing.faults import CrashError, FaultInjector


#: Sleep between in-shard compaction rounds.
COMPACT_INTERVAL_S = 0.1


class RetrainTicker(MaintenanceWorker):
    """Background retrain cadence: one ``engine.maybe_retrain()`` per
    round.  The policy decides FIRE/DEFER/SKIP; the ticker merely makes
    sure the policy is consulted without any facade involvement (the
    retrain itself runs on the engine's own single-flight worker and
    never blocks the write path)."""

    def __init__(self, engine, *, interval_s: float) -> None:
        super().__init__(interval_s=interval_s, name="retrain-ticker")
        self.engine = engine

    def run_once(self) -> bool:
        fired = self.engine.maybe_retrain()
        self.stats.rounds += 1
        return fired


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
        durable: build a ``KVStore.create``/``open`` store over a
            :class:`PersistentPool` and its catalog; ``False`` builds the
            volatile store used by benchmarks.
        key_capacity: catalog key capacity of a durable shard.
        seed: device initial-content seed (shards get distinct seeds so
            their initial free-content clusterings differ, as independent
            channels would).
        config: engine hyperparameters (each shard trains its own model).
        path: device snapshot file (``.npz``) of a durable shard;
            ``None`` for volatile shards, which cannot be reopened.
        scrubber: attach a scrubber to the store.
        compactor: attach a compactor to the store.
        maintenance: start the attached scrubber/compactor (and, when
            ``retrain_interval_s > 0``, a :class:`RetrainTicker`) on
            their own background cadence inside the shard's process,
            instead of leaving them manually driven.
        scrub_interval_s: sleep between in-shard scrub rounds.
        retrain_interval_s: sleep between retrain-policy consultations
            (``0`` disables the ticker).
        wearout: optional endurance model for the shard's device.  Like
            ``config``, travels in code rather than the manifest —
            ``NVMDevice.load`` restores wear state from the snapshot on
            reopen.
        drift: optional retention-drift model, same manifest rules.
    """

    shard_id: int
    segment_size: int
    n_segments: int
    durable: bool = True
    key_capacity: int = 16
    seed: int = 0
    config: E2NVMConfig = field(default_factory=E2NVMConfig)
    path: str | None = None
    scrubber: bool = False
    compactor: bool = False
    maintenance: bool = False
    scrub_interval_s: float = 0.05
    retrain_interval_s: float = 0.0
    wearout: WearOutConfig | None = None
    drift: DriftConfig | None = None

    @property
    def capacity_bytes(self) -> int:
        return self.n_segments * self.segment_size

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
        pool: PersistentPool | None = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.device = device
        self.pool = pool
        self.engine = store.engine
        self.faults: FaultInjector | None = None
        #: Background maintenance loops owned by this shard (scrubber,
        #: compactor, retrain ticker) in start order.
        self.maintenance_workers: list[MaintenanceWorker] = []

    # -------------------------------------------------------------- building

    @classmethod
    def build(
        cls, spec: ShardSpec, mode: str, content_buffer=None
    ) -> "Shard":
        """Build the slice described by ``spec``.

        Args:
            spec: the shard description.
            mode: ``"create"`` formats fresh media and trains the engine;
                ``"open"`` loads the device snapshot at ``spec.path`` and
                runs full recovery; ``"attach"`` re-adopts already-live
                media in ``content_buffer`` (the post-crash path of the
                process backend: the worker died, the shared-memory media
                did not) and runs the same recovery.  Only the content
                is re-adopted: wear, stuck cells, ECP, health and the
                drift clock start over on a fresh device.
            content_buffer: optional external buffer backing the device
                content array (see :class:`NVMDevice`).
        """
        if mode not in ("create", "open", "attach"):
            raise ValueError(f"unknown shard build mode {mode!r}")
        if mode == "attach" and content_buffer is None:
            raise ValueError("attach mode needs the live content buffer")
        if mode != "create" and not spec.durable:
            raise ValueError(
                "volatile shards cannot be reopened (no catalog to "
                "recover from); only durable shards survive restarts"
            )
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
                    f"snapshot at {spec.path} has geometry "
                    f"{device.capacity_bytes}/{device.segment_size}, spec "
                    f"says {spec.capacity_bytes}/{spec.segment_size}"
                )
        else:
            wearout, drift = spec.wearout, spec.drift
            if spec.durable:
                wearout = PersistentCatalog.immortal_metadata(
                    wearout, *geometry
                )
                drift = PersistentCatalog.immortal_metadata(drift, *geometry)
            device = NVMDevice(
                capacity_bytes=spec.capacity_bytes,
                segment_size=spec.segment_size,
                initial_fill="keep" if mode == "attach" else "random",
                seed=spec.seed,
                content_buffer=content_buffer,
                wearout=wearout,
                drift=drift,
            )
        if not spec.durable:
            from repro.core.e2nvm import E2NVM

            engine = E2NVM(MemoryController(device), spec.config)
            engine.train()
            shard = cls(spec, KVStore(engine), device, pool=None)
        else:
            pool = PersistentPool(
                MemoryController(device),
                meta_segments=PersistentCatalog.meta_segments_for(*geometry),
            )
            build_store = KVStore.create if mode == "create" else KVStore.open
            store = build_store(
                pool, config=spec.config, key_capacity=spec.key_capacity
            )
            shard = cls(spec, store, device, pool=pool)
            if spec.scrubber:
                shard.maintenance_workers.append(
                    Scrubber(
                        store,
                        segments_per_round=spec.n_segments,
                        interval_s=spec.scrub_interval_s,
                    )
                )
            if spec.compactor:
                shard.maintenance_workers.append(
                    Compactor(store, interval_s=COMPACT_INTERVAL_S)
                )
        if spec.maintenance and spec.retrain_interval_s > 0:
            shard.maintenance_workers.append(
                RetrainTicker(
                    shard.engine, interval_s=spec.retrain_interval_s
                )
            )
        if spec.maintenance:
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

    def _op_retrain(self) -> bool:
        """Epoch-bumping broadcast target: start this shard's background
        retrain (single-flight; never blocks the write path)."""
        try:
            self.engine.train_async()
        except RuntimeError:
            return False
        return True

    def _op_wait_retrain(self, timeout: float | None = None) -> bool:
        return self.engine.wait_for_retrain(timeout)

    def _op_drain_relocations(self, budget: int | None = None) -> int:
        return self.store.drain_relocations(budget)

    def _op_save(self, path: str | None = None) -> str:
        """Persist the device snapshot (close path of durable shards)."""
        target = path or self.spec.path
        if target is None:
            raise ValueError("volatile shard has no snapshot path")
        self.device.save(target)
        return target

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
            if self.pool is not None:
                self.pool.faults = self.faults
        self.faults.arm(
            site, error=CrashError, after=after, torn_fraction=torn_fraction
        )

    def _op_telemetry(self) -> dict:
        """Everything the facade aggregates, in one picklable dict.

        Top-level scalars and lists are this shard's own state; every
        top-level dict is a section of counters that
        :func:`~repro.sharding.store.aggregate_telemetry` sums across
        shards.  The prediction latency ships as its ``(seconds, count)``
        pair so the facade weights by count instead of averaging
        per-shard means."""
        engine = self.engine
        pipeline = engine.pipeline
        # Object segments only: the catalog region in front of them is
        # exempt from wear-out (``PersistentCatalog.immortal_metadata``).
        first = self.pool.meta_segments if self.pool is not None else 0
        wear = self.device.segment_write_count[first:]
        out = {
            "shard_id": self.spec.shard_id,
            "n_keys": len(self.store),
            "read_only": self.store.read_only,
            "model_epoch": engine._model_epoch,
            "maintenance": [w.telemetry() for w in self.maintenance_workers],
            "placement": engine.placement_telemetry(),
            "prediction": {
                "count": pipeline.prediction_count,
                "seconds": pipeline.prediction_seconds,
            },
            "retrain": asdict(engine.retrain_stats),
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
