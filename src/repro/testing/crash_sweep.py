"""Exhaustive crash-point sweeping for the durable KV store.

The harness answers one question mechanically: *is there any single point
in the write path where a crash — including a torn media write — loses
acknowledged data or corrupts the store?*  It replays a seeded YCSB-style
trace once per crash point, where a crash point is the *k*-th firing of one
instrumented fault site (``device.write`` ahead of a value write,
``catalog.write`` once per row of a catalog commit — optionally with a
torn-write variant that persists the rows before it and a prefix of its
own).  Each replay:

1. builds a byte-identical fresh device/pool/store (same seeds) and arms
   exactly one crash point;
2. applies the trace, bracketing every mutation in a
   :class:`~repro.testing.model.DurabilityModel` — acknowledged only once
   the call *returns*;
3. on :class:`~repro.testing.faults.CrashError`, discards every DRAM
   object — the process "died" — and re-opens the store from the media
   with :meth:`KVStore.open` over a brand-new pool;
4. checks the full durability contract (:func:`check_durable_invariants`):
   contents as the model allows, and a segment ledger that agrees with
   the media — live is what a catalog slot names, free is what the DAP
   holds, and the device's health state withholds the rest.

The enumeration itself is :func:`repro.testing.model.sweep_crash_points`;
this module supplies the KV-store and wear-leveling workloads it drives.

A clean pass over every fired site is the repository's machine-checked
durability proof; ``tests/integration/test_crash_sweep.py`` runs a small
sweep in tier 1 and the exhaustive ≥200-op sweep under the ``crash``
marker (CI's ``crash-sweep`` job).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.config import fast_test_config
from repro.core.kvstore import KVStore, StoreReadOnlyError
from repro.nvm.compactor import Compactor
from repro.nvm.controller import MemoryController
from repro.nvm.device import DriftConfig, NVMDevice, WearOutConfig
from repro.nvm.scrubber import Scrubber
from repro.nvm.wear_leveling import (
    SegmentSwapWearLeveling,
    StartGapWearLeveling,
)
from repro.pmem.catalog import PersistentCatalog
from repro.pmem.pool import PersistentPool
from repro.testing.faults import FaultInjector
from repro.testing.model import (
    EXACT,
    PREFIX,
    UNSPECIFIED,
    CrashSweepReport,
    DurabilityModel,
    sweep_crash_points,
)
from repro.tools.fsck import fsck
from repro.util.rng import rng_from_seed
from repro.workloads.ycsb import PrototypeValueGenerator
from repro.workloads.zipfian import ScrambledZipfianGenerator

#: Subsets of :data:`DEFAULT_CRASH_SITES` only some harnesses can fire —
#: elsewhere they count zero baseline hits and contribute no crash points.
#: Wear-out sites need a :class:`~repro.nvm.device.WearOutConfig`.
WEAROUT_CRASH_SITES = ("device.stuck_at", "health.retire", "health.relocate")
#: The drift event itself and the scrubber's refresh write need a
#: :class:`~repro.nvm.device.DriftConfig`.
DRIFT_CRASH_SITES = ("device.drift_flip", "scrub.refresh")
#: Capacity reclamation — every migration write point, the reclaim
#: metadata transition, the compactor's static wear-leveling swap — needs
#: a wear-out harness built with ``gc=True`` (a synchronous
#: :class:`Compactor` attached).
GC_CRASH_SITES = ("compact.migrate", "compact.reclaim", "wl.swap")
#: Sites every sweep crashes at (each *k*-th firing of each).
DEFAULT_CRASH_SITES = (
    "device.write", "catalog.write",
    *WEAROUT_CRASH_SITES, *DRIFT_CRASH_SITES, *GC_CRASH_SITES,
)
#: Write-capable sites additionally swept with torn-write variants.
DEFAULT_TORN_SITES = ("catalog.write",)


def make_ycsb_trace(
    n_ops: int,
    n_keys: int = 12,
    value_size: int = 64,
    seed: int = 0,
    mix: tuple[float, float, float] = (0.55, 0.25, 0.20),
) -> list[tuple]:
    """A seeded YCSB-style PUT/DELETE/GET trace.

    Keys follow YCSB's ``user...`` naming and a scrambled-Zipfian request
    distribution; values come from the prototype generator the YCSB module
    uses, truncated to a random length so short and full-segment values
    both appear.  ``mix`` is the (put, delete, get) fraction — deletes and
    re-inserts are what exercise Algorithm 2's flag reset.
    """
    p_put, p_delete, p_get = mix
    if abs(p_put + p_delete + p_get - 1.0) > 1e-9:
        raise ValueError("mix must sum to 1")
    rng = rng_from_seed(seed)
    chooser = ScrambledZipfianGenerator(n_keys, seed=rng)
    values = PrototypeValueGenerator(value_size, seed=rng)
    trace: list[tuple] = []
    for _ in range(n_ops):
        key = b"user%03d" % chooser.next()
        roll = rng.random()
        if roll < p_put:
            length = int(rng.integers(1, value_size + 1))
            trace.append(("put", key, values.value()[:length]))
        elif roll < p_put + p_delete:
            trace.append(("delete", key))
        else:
            trace.append(("get", key))
    return trace


def _weave(trace, extras) -> list[tuple]:
    """``trace`` with each ``(every, op)`` of ``extras`` appended after
    every ``every``-th op (``0`` = never)."""
    out: list[tuple] = []
    for i, op in enumerate(trace, 1):
        out.append(op)
        out.extend(
            extra for every, extra in extras if every and i % every == 0
        )
    return out


def weave_aging(
    trace,
    *,
    age_every: int = 5,
    age_ticks: int = 1,
    scrub_every: int = 10,
) -> list[tuple]:
    """Interleave retention aging and scrub rounds into a KV trace.

    Every ``age_every`` ops an ``("age", age_ticks)`` op advances the
    device's retention clock (possible ``device.drift_flip`` crash
    points); every ``scrub_every`` ops a ``("scrub",)`` op runs one
    synchronous scrub round (``scrub.refresh`` crash points).  Use on a
    harness built with a :class:`~repro.nvm.device.DriftConfig`.
    """
    return _weave(
        trace, [(age_every, ("age", age_ticks)), (scrub_every, ("scrub",))]
    )


def weave_compaction(trace, *, compact_every: int = 6) -> list[tuple]:
    """Interleave synchronous compaction rounds into a KV trace.

    Every ``compact_every`` ops a ``("compact",)`` op runs one budgeted
    :meth:`Compactor.compact_round` — relocation draining (with its
    ``compact.migrate``/``compact.reclaim`` crash points) plus static
    wear leveling (``wl.swap`` points).  Use on a harness built with a
    :class:`~repro.nvm.device.WearOutConfig` and ``gc=True``.
    """
    return _weave(trace, [(compact_every, ("compact",))])


#: Trace ops that change contents, with the strength they are in flight
#: under: a ``put``/``delete`` is one slot write; a ``put_many`` is one
#: batch, which recovery trims to a batch-order prefix.
_MUTATIONS = {"put": EXACT, "delete": EXACT, "put_many": PREFIX}


def apply_trace(store: KVStore, trace, model: DurabilityModel) -> None:
    """Apply ``trace``, acknowledging each mutation into ``model`` only
    after the call returns; a crash propagates with the interrupted
    mutation still in flight in the model.

    ``age``, ``scrub`` and ``compact`` ops are content-neutral — drifted
    values are repaired or refused on read, scrubbing and compaction only
    refresh and move live values — so the model never hears of them.

    A wear-out degradation to read-only ends the trace early (the refused
    op was never acknowledged); deterministic replays degrade at the same
    op, keeping crash-point counting sound.
    """
    for op in trace:
        kind = op[0]
        if kind in _MUTATIONS:
            if kind == "put_many":
                items = op[1]
            else:
                items = [(op[1], op[2] if kind == "put" else None)]
            model.begin(items, _MUTATIONS[kind])
            try:
                getattr(store, kind)(*op[1:])
            except StoreReadOnlyError:
                model.abort()
                return
            model.ack()
        elif kind == "get":
            got = store.get(op[1])
            if got != model.acked.get(op[1]):
                raise AssertionError(
                    f"GET {op[1]!r} returned {got!r}, the model says "
                    f"{model.acked.get(op[1])!r}"
                )
        elif kind == "age":
            # May fire the ``device.drift_flip`` crash site.
            store.engine.controller.device.advance_time(op[1])
        elif kind in ("scrub", "compact"):
            # One synchronous round (``scrub.refresh``; ``compact.migrate``,
            # ``compact.reclaim`` and ``wl.swap`` crash points).
            worker = store.scrubber if kind == "scrub" else store.compactor
            if worker is not None:
                worker.run_once()
        else:
            raise ValueError(f"unknown trace op {kind!r}")


def check_durable_invariants(store: KVStore, model) -> None:
    """Assert the full durability contract of a (re-opened) store.

    - recovered contents are what ``model`` — a
      :class:`~repro.testing.model.DurabilityModel`, or a plain mapping of
      acknowledged pairs — allows: no lost acknowledged PUT, no phantom
      un-acknowledged PUT, no resurrected DELETE, nothing nobody wrote;
    - live segments: the segments the resolved catalog slots name (each
      by exactly one record) are exactly the engine's allocated ones and
      exactly the index's addresses, and each record's key and length
      agree with the index;
    - free segments: the engine's free set is exactly the object
      segments that no slot names and that the device's health state does
      not withhold (retired, retiring or a reserved spare), and every
      object segment's sketch word is the sketch of its content;
    - the free record ids are exactly the ids no live record holds.
    """
    pool, catalog, engine = store.pool, store.catalog, store.engine
    if not isinstance(model, DurabilityModel):
        model = DurabilityModel(model)
    findings = model.check(store.items())
    assert not findings, "store/model divergence: " + "; ".join(
        map(str, findings)
    )

    indexed = {addr: (key, n) for key, (addr, n) in store.index.items()}
    named = {}
    for entry in catalog.scan():
        addr = pool.object_address(entry.segment)
        assert addr not in named, f"two live records name segment {addr}"
        named[addr] = entry.record
        assert (entry.key, entry.value_len) == indexed.get(addr), (
            f"record {entry.record} naming {addr} disagrees with the index"
        )
        assert store._live[addr][3] == entry.record
    all_objects = {
        pool.object_address(i) for i in range(pool.capacity_objects)
    }
    allocated = {a for a in all_objects if engine.is_allocated(a)}
    assert set(named) == allocated, "segments named != engine allocated"
    assert set(indexed) == allocated, "index addresses != engine allocated"

    health = pool.controller.device.health
    withheld = set()
    if health is not None:
        withheld = {
            s * pool.segment_size for s in health.retired | health.retiring
        } | set(health.spares)
    placeable = all_objects - set(named) - withheld
    assert set(engine.free_addresses()) == placeable, (
        "engine free addresses disagree with the media"
    )
    assert (engine.sketch.words == engine.content_words()).all(), (
        "sketch words disagree with the media"
    )
    assert store._free_records == sorted(
        set(range(catalog.n_records)) - set(named.values())
    ), "free record ids are not exactly the ids no live record holds"


class KVCrashHarness:
    """Builds byte-identical durable stores for repeated crash replays.

    Each :meth:`fresh` starts from an identical device, and placement fits
    no model, so every replay is deterministic.
    """

    key_capacity = 16

    def __init__(
        self,
        *,
        n_segments: int = 96,
        segment_size: int = 64,
        seed: int = 7,
        wearout: WearOutConfig | None = None,
        drift: DriftConfig | None = None,
        spares: int = 0,
        gc: bool = False,
    ) -> None:
        self.n_segments = n_segments
        self.segment_size = segment_size
        self.seed = seed
        self.config = fast_test_config()
        self.spares = spares
        self.gc = gc
        geometry = (n_segments, segment_size, self.key_capacity)
        self.meta_segments = PersistentCatalog.meta_segments_for(*geometry)
        self.wearout = PersistentCatalog.immortal_metadata(wearout, *geometry)
        self.drift = PersistentCatalog.immortal_metadata(drift, *geometry)

    def _pool(self, device, faults) -> PersistentPool:
        return PersistentPool(
            MemoryController(device),
            meta_segments=self.meta_segments,
            faults=faults,
        )

    def _attach_workers(self, store: KVStore, faults) -> KVStore:
        """Synchronous maintenance (never ``start()``ed in sweeps): trace
        ``("scrub",)``/``("compact",)`` ops and CRC-failed reads drive it
        directly."""
        if self.drift is not None:
            # One round can reach every live segment.
            Scrubber(store, segments_per_round=self.n_segments,
                     faults=faults)
        if self.gc:
            # Aggressive thresholds so short sweep traces still exercise
            # wear-leveling swaps, not just relocation draining.
            Compactor(store, relocations_per_round=4, swaps_per_round=1,
                      min_wear_gap=1, dormancy_writes=4, faults=faults)
        return store

    def fresh(self, faults: FaultInjector):
        """A brand-new formatted store over a byte-identical device."""
        device = NVMDevice(
            capacity_bytes=self.n_segments * self.segment_size,
            segment_size=self.segment_size,
            initial_fill="random",
            seed=self.seed,
            faults=faults,
            wearout=self.wearout,
            drift=self.drift,
        )
        pool = self._pool(device, faults)
        store = KVStore.create(
            pool,
            config=self.config,
            faults=faults,
            key_capacity=self.key_capacity,
        )
        if self.spares:
            store.engine.reserve_spares(self.spares)
        return device, pool, self._attach_workers(store, faults)

    def reopen(self, device: NVMDevice) -> KVStore:
        """Simulated restart: every DRAM structure is rebuilt from the
        media through a fresh controller and pool; no fault injector is
        carried over (recovery replays never re-crash).  The recovered
        store gets the same maintenance workers: values that drifted
        before (or during) the crash are healed on first read instead of
        failing the invariant check, and it keeps reclaiming."""
        device.faults = None
        store = KVStore.open(
            self._pool(device, None),
            config=self.config,
            key_capacity=self.key_capacity,
        )
        return self._attach_workers(store, None)

    def fsck(self, device: NVMDevice) -> list[str]:
        """Snapshot ``device`` and run the offline checker on it; returns
        its *errors* (warnings — slots an interrupted batch will drop,
        values awaiting relocation — are the expected face of a crash)."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "device.npz"
            device.save(path)
            report = fsck(path, key_capacity=self.key_capacity)
        return [f"fsck: {message}" for message in report.errors]


def run_crash_sweep(
    harness: KVCrashHarness,
    trace,
    *,
    sites=DEFAULT_CRASH_SITES,
    torn_sites=DEFAULT_TORN_SITES,
    torn_byte_sites=(),
    check_fsck: bool = False,
) -> CrashSweepReport:
    """Replay ``trace`` crashing at every fired crash point, re-open, and
    check invariants after each crash.  Returns a report whose
    ``failures`` list is empty iff the durability contract held at every
    single point.

    Every firing of a site in ``torn_byte_sites`` is additionally torn at
    *every* byte of its payload (0 bytes persisted up to all of them).

    With ``check_fsck`` the crashed device is additionally snapshotted
    and run through the offline checker (:meth:`KVCrashHarness.fsck`)
    *before* recovery: any fsck *error* at any crash point is a failure.

    A recovery that wrote to the media (it zeroed dropped slots) is
    followed by a second one, with no write between them, which must
    serve the same state: nothing the first one wrote may change what
    the next reopen resolves.
    """
    trace = list(trace)

    def build(faults):
        device, _, store = harness.fresh(faults)
        return device, store, DurabilityModel()

    def drive(state):
        _, store, model = state
        apply_trace(store, trace, model)

    def recover_and_check(state):
        # Process death: of ``state`` only the device (and the model the
        # client kept) survives.
        device, _, model = state
        if check_fsck:
            yield from harness.fsck(device)
        store = harness.reopen(device)
        check_durable_invariants(store, model)
        if store.recovery.dropped_slots:
            served = dict(store.items())
            again = dict(harness.reopen(device).items())
            if again != served:
                yield f"a second recovery served {again}, not {served}"

    return sweep_crash_points(
        build, drive, recover_and_check, sites, torn_sites, torn_byte_sites
    )


# --------------------------------------------------------------------------
# Wear-leveling crash sweep
# --------------------------------------------------------------------------

#: Sites the wear-leveling sweep crashes at: the start of every swap, every
#: gap-style move, and every raw media program (the latter also with a torn
#: variant, which is what an in-place exchange would not survive).
WL_CRASH_SITES = ("wl.swap", "wl.gap_move", "device.program")
WL_TORN_SITES = ("device.program",)

#: Wear-leveling modes the sweep can build.
WL_MODES = ("swap-scratch", "start-gap")

_WL_SEGMENT_SIZE = 32
_WL_SEED = 11

#: The wear-leveling sweep reports like every other sweep.
WearLevelingSweepReport = CrashSweepReport


def _make_leveler(mode: str, period: int):
    if mode == "swap-scratch":
        return SegmentSwapWearLeveling(period, seed=_WL_SEED)
    if mode == "start-gap":
        return StartGapWearLeveling(period)
    raise ValueError(f"unknown wear-leveling mode {mode!r}; pick from {WL_MODES}")


def run_wear_leveling_crash_sweep(
    mode: str = "swap-scratch",
    *,
    n_segments: int = 12,
    n_writes: int = 60,
    period: int = 3,
) -> CrashSweepReport:
    """Crash a wear-leveling workload at every copy/program point and check
    that every *committed* logical segment survives recovery.

    The remap table is modelled as hardware-persistent: a harness callback
    snapshots ``mapping_state()`` at every ``on_mapping_commit``, and
    recovery rebuilds a fresh leveler from the last committed snapshot over
    the surviving device.  The contract checked is the device-level one —
    each write is in flight as ``unspecified``: a crash may corrupt *the
    segment being written* (transactional durability above is the KV
    store's job) but must never corrupt any other logical segment.  Both
    modes pass it: every copy lands in a free segment before the mapping
    commits.
    """
    _make_leveler(mode, period)  # reject an unknown mode before sweeping
    size = _WL_SEGMENT_SIZE

    def build(faults):
        device = NVMDevice(
            capacity_bytes=n_segments * size,
            segment_size=size,
            initial_fill="random",
            seed=_WL_SEED,
            faults=faults,
        )
        leveler = _make_leveler(mode, period)
        controller = MemoryController(device, wear_leveling=leveler)
        commits = [leveler.mapping_state()]
        leveler.on_mapping_commit = lambda: commits.append(
            leveler.mapping_state()
        )
        return device, controller, commits, DurabilityModel()

    def drive(state):
        _, controller, _, model = state
        rng = rng_from_seed(_WL_SEED + 1)
        for _ in range(n_writes):
            seg = int(rng.integers(0, controller.n_segments))
            value = bytes(rng.integers(0, 256, size, dtype=np.uint8))
            model.begin([(seg, value)], UNSPECIFIED)
            controller.write(seg * size, value)
            model.ack()

    def recover_and_check(state):
        """Recover from the committed mapping and read every logical
        segment ever written back through it."""
        device, _, commits, model = state
        device.faults = None
        leveler = _make_leveler(mode, period)
        controller = MemoryController(device, wear_leveling=leveler)
        leveler.restore_mapping(commits[-1])
        return model.check(
            {seg: controller.read(seg * size, size) for seg in model.keys()}
        )

    return sweep_crash_points(
        build, drive, recover_and_check, WL_CRASH_SITES, WL_TORN_SITES
    )
