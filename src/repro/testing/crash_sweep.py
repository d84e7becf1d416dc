"""Exhaustive crash-point sweeping for the durable KV store.

The harness answers one question mechanically: *is there any single point
in the write path where a crash — including a torn media write — loses
acknowledged data or corrupts the store?*  It replays a seeded YCSB-style
trace once per crash point, where a crash point is the *k*-th firing of one
instrumented fault site (``device.write``, ``tx.begin``, ``tx.log``,
``tx.write``, ``tx.commit`` — optionally with a torn-write variant that
persists only a payload prefix).  Each replay:

1. builds a byte-identical fresh device/pool/store (same seeds, same
   pre-trained pipeline) and arms exactly one crash point;
2. applies the trace, recording an operation in the oracle only once the
   call *returns* (the acknowledgement);
3. on :class:`~repro.testing.faults.CrashError`, discards every DRAM
   object — the process "died" — and re-opens the store from the media
   with :meth:`KVStore.open` over a brand-new pool;
4. checks the full durability contract (:func:`check_durable_invariants`):
   acknowledged contents exact, no phantom or resurrected entries, pool
   accounting exact (free ∪ allocated = capacity, disjoint), and a DAP
   whose addresses are precisely the free, validity-flag-clear segments.

A clean pass over every fired site is the repository's machine-checked
durability proof; ``tests/integration/test_crash_sweep.py`` runs a small
sweep in tier 1 and the exhaustive ≥200-op sweep under the ``crash``
marker (CI's ``crash-sweep`` job).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import E2NVMConfig, fast_test_config
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
from repro.testing.faults import CrashError, FaultInjector
from repro.util.rng import rng_from_seed
from repro.workloads.ycsb import PrototypeValueGenerator
from repro.workloads.zipfian import ScrambledZipfianGenerator

#: Sites every sweep crashes at (each *k*-th firing of each).  The
#: wear-out sites (``device.stuck_at``, ``health.retire``,
#: ``health.relocate``) fire only on a harness built with a
#: :class:`~repro.nvm.device.WearOutConfig`; on an immortal device they
#: count zero baseline hits and contribute no crash points.
DEFAULT_CRASH_SITES = (
    "device.write",
    "tx.begin",
    "tx.log",
    "tx.write",
    "tx.commit",
    "device.stuck_at",
    "health.retire",
    "health.relocate",
    "device.drift_flip",
    "scrub.refresh",
    "compact.migrate",
    "compact.reclaim",
    "wl.swap",
)
#: Write-capable sites additionally swept with torn-write variants.
DEFAULT_TORN_SITES = ("tx.log", "tx.write")
#: Subset of :data:`DEFAULT_CRASH_SITES` only a wear-out device can fire;
#: on an immortal harness they count zero hits and contribute no points.
WEAROUT_CRASH_SITES = ("device.stuck_at", "health.retire", "health.relocate")
#: Subset of :data:`DEFAULT_CRASH_SITES` only a drift-enabled harness (one
#: built with a :class:`~repro.nvm.device.DriftConfig`) can fire: the
#: drift event itself and the scrubber's refresh write.  Elsewhere they
#: count zero hits and contribute no points.
DRIFT_CRASH_SITES = ("device.drift_flip", "scrub.refresh")
#: Subset of :data:`DEFAULT_CRASH_SITES` fired by capacity reclamation:
#: every migration write point (``compact.migrate``), the reclaim metadata
#: transition (``compact.reclaim``), and the compactor's static
#: wear-leveling swap (``wl.swap``).  They need a wear-out harness built
#: with ``gc=True`` (attaching a synchronous :class:`Compactor`) to fire;
#: elsewhere they count zero hits and contribute no points.
GC_CRASH_SITES = ("compact.migrate", "compact.reclaim", "wl.swap")


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
    out: list[tuple] = []
    for i, op in enumerate(trace, 1):
        out.append(op)
        if age_every and i % age_every == 0:
            out.append(("age", age_ticks))
        if scrub_every and i % scrub_every == 0:
            out.append(("scrub",))
    return out


def weave_compaction(trace, *, compact_every: int = 6) -> list[tuple]:
    """Interleave synchronous compaction rounds into a KV trace.

    Every ``compact_every`` ops a ``("compact",)`` op runs one budgeted
    :meth:`Compactor.compact_round` — relocation draining (with its
    ``compact.migrate``/``compact.reclaim`` crash points) plus static
    wear leveling (``wl.swap`` points).  Use on a harness built with a
    :class:`~repro.nvm.device.WearOutConfig` and ``gc=True``.
    """
    out: list[tuple] = []
    for i, op in enumerate(trace, 1):
        out.append(op)
        if compact_every and i % compact_every == 0:
            out.append(("compact",))
    return out


def apply_trace(
    store: KVStore, trace, oracle: dict[bytes, bytes],
    in_flight: list | None = None,
) -> int:
    """Apply ``trace``, acknowledging each op into ``oracle`` only after the
    call returns.  Returns the number of acknowledged operations; a crash
    propagates with the oracle still reflecting only acknowledged state.

    A ``("put_many", items)`` op commits in batch order, one catalog
    transaction per group of pairs, so a crash inside it may leave a
    *prefix* of the batch durable: while the call runs its pairs sit in
    ``in_flight`` (when given) for :func:`check_durable_invariants`.

    A wear-out degradation to read-only ends the trace early (the refused
    op was never acknowledged, so the oracle stays exact); deterministic
    replays degrade at the same op, keeping crash-point counting sound.
    """
    acked = 0
    for op in trace:
        if op[0] == "put":
            try:
                store.put(op[1], op[2])
            except StoreReadOnlyError:
                return acked
            oracle[op[1]] = op[2]
        elif op[0] == "put_many":
            if in_flight is not None:
                in_flight[:] = op[1]
            try:
                store.put_many(op[1])
            except StoreReadOnlyError:
                return acked
            oracle.update(op[1])
            if in_flight is not None:
                in_flight.clear()
        elif op[0] == "delete":
            try:
                store.delete(op[1])
            except StoreReadOnlyError:
                return acked
            oracle.pop(op[1], None)
        elif op[0] == "get":
            got = store.get(op[1])
            expected = oracle.get(op[1])
            if got != expected:
                raise AssertionError(
                    f"GET {op[1]!r} returned {got!r}, oracle says "
                    f"{expected!r}"
                )
        elif op[0] == "age":
            # Retention aging: advances the drift clock (may fire the
            # ``device.drift_flip`` crash site); observable contents are
            # unchanged — drifted values are repaired or refused on read.
            store.engine.controller.device.advance_time(op[1])
        elif op[0] == "scrub":
            # One synchronous scrub round (``scrub.refresh`` crash
            # points); content-neutral by construction.
            if store.scrubber is not None:
                store.scrubber.scrub_round()
        elif op[0] == "compact":
            # One synchronous compaction round (``compact.migrate``,
            # ``compact.reclaim`` and ``wl.swap`` crash points);
            # content-neutral — it only moves live values and reclaims
            # drained segments.
            if store.compactor is not None:
                store.compactor.compact_round()
        else:
            raise ValueError(f"unknown trace op {op[0]!r}")
        acked += 1
    return acked


def check_durable_invariants(
    store: KVStore, oracle: dict[bytes, bytes], in_flight=()
) -> None:
    """Assert the full durability contract of a (re-opened) store.

    - recovered contents equal the acknowledged oracle exactly — no lost
      acknowledged PUT, no phantom un-acknowledged PUT, no resurrected
      DELETE — except that some *prefix* of the ``in_flight`` pairs (the
      ``put_many`` batch a crash interrupted) may have committed on top;
    - pool accounting exact: free ∪ allocated ∪ retired = all object
      segments, pairwise disjoint;
    - the DAP holds exactly the placeable addresses — free minus the
      quarantined set (retired/retiring segments, reserved spares) — each
      exactly once, and every free address has a clear validity flag in
      the catalog;
    - every allocated address carries a valid catalog record that agrees
      with the index.

    On a store without a wear-out model the retired and quarantined sets
    are empty and this reduces to the original contract.
    """
    pool, catalog = store.pool, store.catalog
    contents = dict(store.items())
    oracle = dict(oracle)
    for key, value in in_flight:
        if contents == oracle:
            break
        oracle[key] = value
    assert contents == oracle, (
        f"store/oracle divergence: only-in-store="
        f"{ {k: v for k, v in contents.items() if oracle.get(k) != v} } "
        f"only-in-oracle="
        f"{ {k: v for k, v in oracle.items() if contents.get(k) != v} }"
    )

    all_objects = {
        pool.object_address(i) for i in range(pool.capacity_objects)
    }
    free = set(pool.free_addresses())
    allocated = pool.allocated_addresses()
    retired = pool.retired_addresses()
    assert free | allocated | retired == all_objects, (
        "pool accounting leaks segments"
    )
    assert not (free & allocated), "pool free/allocated sets overlap"
    assert not (retired & (free | allocated)), (
        "pool retired set overlaps free/allocated"
    )

    quarantined = store.engine.dap.quarantined()
    placeable = free - quarantined
    dap_addrs = store.engine.dap.snapshot_addresses()
    assert len(dap_addrs) == len(set(dap_addrs)), "DAP holds duplicates"
    assert set(dap_addrs) == placeable, (
        "DAP addresses are not exactly the placeable free segments"
    )
    assert set(store.engine.free_addresses()) == placeable, (
        "engine allocator disagrees with pool"
    )

    indexed = {}
    for key, (addr, length) in store.index.items():
        indexed[addr] = (key, length)
    assert set(indexed) == allocated, "index addresses != allocated segments"
    for addr in free:
        assert catalog.read(pool.object_index(addr)) is None, (
            f"free segment {addr} still has a valid catalog flag"
        )
    for addr in allocated:
        entry = catalog.read(pool.object_index(addr))
        assert entry is not None, f"allocated segment {addr} has no record"
        key, length = indexed[addr]
        assert entry.key == key and entry.value_len == length, (
            f"catalog record of {addr} disagrees with the index"
        )


class KVCrashHarness:
    """Builds byte-identical durable stores for repeated crash replays.

    One placement model is trained up front on the seeded device's initial
    contents and shared (read-only) by every replay and every recovery, so
    a sweep of thousands of crash points never retrains; each
    :meth:`fresh` still starts from an identical device, making every
    replay deterministic.
    """

    def __init__(
        self,
        *,
        n_segments: int = 96,
        segment_size: int = 64,
        log_segments: int = 4,
        key_capacity: int = 16,
        seed: int = 7,
        config: E2NVMConfig | None = None,
        wearout: WearOutConfig | None = None,
        drift: DriftConfig | None = None,
        spares: int = 0,
        gc: bool = False,
    ) -> None:
        self.n_segments = n_segments
        self.segment_size = segment_size
        self.log_segments = log_segments
        self.key_capacity = key_capacity
        self.seed = seed
        self.config = config or fast_test_config()
        self.spares = spares
        self.gc = gc
        self.meta_segments = PersistentCatalog.meta_segments_for(
            n_segments, log_segments, segment_size, key_capacity
        )
        if wearout is not None and wearout.immortal_prefix_segments == 0:
            # The log and catalog regions must not wear out mid-sweep: a
            # dead undo log is unrecoverable by design (real deployments
            # over-provision these), so give the reserved prefix infinite
            # endurance unless the caller chose otherwise.
            wearout = WearOutConfig(
                endurance_mean=wearout.endurance_mean,
                endurance_sigma=wearout.endurance_sigma,
                seed=wearout.seed,
                ecp_entries=wearout.ecp_entries,
                immortal_prefix_segments=(
                    log_segments + self.meta_segments
                ),
            )
        self.wearout = wearout
        if drift is not None and drift.immortal_prefix_segments == 0:
            # Undo log and catalog must not drift either: a decayed log
            # record CRC or catalog record would (correctly) be refused,
            # but these regions model over-provisioned metadata media.
            drift = DriftConfig(
                retention_mean=drift.retention_mean,
                retention_sigma=drift.retention_sigma,
                seed=drift.seed,
                wear_scale=drift.wear_scale,
                immortal_prefix_segments=(log_segments + self.meta_segments),
            )
        self.drift = drift
        _, _, store = self.fresh(FaultInjector())
        self.pipeline = store.engine.pipeline

    def _device(self, faults) -> NVMDevice:
        return NVMDevice(
            capacity_bytes=self.n_segments * self.segment_size,
            segment_size=self.segment_size,
            initial_fill="random",
            seed=self.seed,
            faults=faults,
            wearout=self.wearout,
            drift=self.drift,
        )

    def _pool(self, device, faults) -> PersistentPool:
        return PersistentPool(
            MemoryController(device),
            log_segments=self.log_segments,
            meta_segments=self.meta_segments,
            faults=faults,
        )

    def fresh(self, faults: FaultInjector):
        """A brand-new formatted store over a byte-identical device."""
        device = self._device(faults)
        pool = self._pool(device, faults)
        store = KVStore.create(
            pool,
            config=self.config,
            faults=faults,
            key_capacity=self.key_capacity,
            pipeline=getattr(self, "pipeline", None),
        )
        if self.spares:
            store.engine.reserve_spares(self.spares)
        if self.drift is not None:
            # Synchronous scrubber (never start()ed in sweeps): trace
            # ("scrub",) ops and CRC-failed reads drive it directly, and
            # one round can reach every live segment.
            Scrubber(store, segments_per_round=self.n_segments,
                     faults=faults)
        if self.gc:
            # Synchronous compactor (never start()ed): trace ("compact",)
            # ops drive it directly.  Aggressive thresholds so short
            # sweep traces still exercise wear-leveling swaps, not just
            # relocation draining.
            Compactor(store, relocations_per_round=4, swaps_per_round=1,
                      min_wear_gap=1, dormancy_writes=4, faults=faults)
        return device, pool, store

    def reopen(self, device: NVMDevice) -> KVStore:
        """Simulated restart: every DRAM structure is rebuilt from the
        media through a fresh controller and pool; no fault injector is
        carried over."""
        device.faults = None
        pool = self._pool(device, None)
        store = KVStore.open(
            pool,
            config=self.config,
            key_capacity=self.key_capacity,
            pipeline=self.pipeline,
        )
        if self.drift is not None:
            # The recovered store needs repair capability too: values that
            # drifted before (or during) the crash are healed on first
            # read instead of failing the invariant check.
            Scrubber(store, segments_per_round=self.n_segments)
        if self.gc:
            # Match :meth:`fresh`: the recovered store keeps reclaiming
            # (no injector — recovery replays never re-crash).
            Compactor(store, relocations_per_round=4, swaps_per_round=1,
                      min_wear_gap=1, dormancy_writes=4)
        return store


@dataclass
class CrashSweepReport:
    """Outcome of one exhaustive sweep."""

    ops: int
    site_hits: dict[str, int] = field(default_factory=dict)
    crash_points: int = 0
    torn_points: int = 0
    clean_replays: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def run_crash_sweep(
    harness: KVCrashHarness,
    trace,
    *,
    sites=DEFAULT_CRASH_SITES,
    torn_sites=DEFAULT_TORN_SITES,
    torn_fraction: float = 0.5,
    torn_byte_sites=(),
    check_fsck: bool = False,
    progress=None,
) -> CrashSweepReport:
    """Replay ``trace`` crashing at every fired crash point, re-open, and
    check invariants after each crash.  Returns a report whose
    ``failures`` list is empty iff the durability contract held at every
    single point.

    Every firing of a site in ``torn_byte_sites`` is additionally torn at
    *every* byte of its payload (0 bytes persisted up to all of them).

    With ``check_fsck`` the crashed device is additionally snapshotted
    and run through the offline checker (:func:`repro.tools.fsck.fsck`)
    *before* recovery: any fsck *error* at any crash point is a failure
    (warnings — a pending undo transaction, values awaiting relocation —
    are the expected face of a crash and stay clean)."""
    trace = list(trace)
    report = CrashSweepReport(ops=len(trace))

    # Baseline run: count how often each site fires and sanity-check the
    # crash-free end state (also populates the final oracle).
    faults = FaultInjector()
    device, _, store = harness.fresh(faults)
    # Crash points start with the trace: formatting fresh media is not a
    # recovery scenario (``device.program`` fires there too).
    all_sites = {*sites, *torn_sites, *torn_byte_sites}
    setup_hits = {site: faults.hits(site) for site in all_sites}
    oracle: dict[bytes, bytes] = {}
    apply_trace(store, trace, oracle)
    hits = {site: faults.hits(site) - setup_hits[site] for site in all_sites}
    report.site_hits = {site: hits[site] for site in sites}
    check_durable_invariants(harness.reopen(device), oracle)

    # (site, k-th firing, tear): no tear, a payload fraction (float) or an
    # exact persisted byte count (int; grows by one until the payload is
    # covered).
    points = deque(
        (site, k, None)
        for site in sites
        for k in range(report.site_hits[site])
    )
    points.extend(
        (site, k, torn_fraction)
        for site in torn_sites
        for k in range(hits[site])
    )
    points.extend(
        (site, k, 0) for site in torn_byte_sites for k in range(hits[site])
    )
    n_points = 0

    while points:
        site, k, tear = points.popleft()
        n_points += 1
        by_bytes = isinstance(tear, int)
        label = f"{site}#{k}" + (
            "" if tear is None else f"+torn@{tear}" if by_bytes else "+torn"
        )
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        rule = faults.arm(
            site, error=CrashError, after=k, times=1,
            torn_fraction=None if by_bytes else tear,
            torn_bytes=tear if by_bytes else None,
        )
        oracle = {}
        in_flight: list = []
        crashed = False
        try:
            apply_trace(store, trace, oracle, in_flight)
        except CrashError:
            crashed = True
        except Exception as exc:  # pragma: no cover - harness failure
            report.failures.append(f"{label}: replay error {exc!r}")
            continue
        if not crashed:
            # Deterministic replays hit every baseline-counted point.
            report.failures.append(f"{label}: crash point never fired")
            continue
        report.crash_points += 1
        if tear is not None:
            report.torn_points += 1
        if by_bytes and tear < rule.payload_len:
            points.append((site, k, tear + 1))
        del store  # process death: only the device survives
        if check_fsck:
            _fsck_crashed_device(harness, device, label, report)
        try:
            recovered = harness.reopen(device)
            check_durable_invariants(recovered, oracle, in_flight)
        except AssertionError as exc:
            report.failures.append(f"{label}: {exc}")
        except Exception as exc:
            report.failures.append(f"{label}: recovery error {exc!r}")
        if progress is not None:
            progress(label, report)
    report.clean_replays = n_points - report.crash_points
    return report


def _fsck_crashed_device(
    harness: KVCrashHarness, device, label: str, report: CrashSweepReport
) -> None:
    """Snapshot the crashed device and run the offline checker on it;
    fsck *errors* (not warnings) become sweep failures."""
    import os
    import tempfile

    from repro.tools.fsck import fsck

    fd, path = tempfile.mkstemp(suffix=".npz")
    os.close(fd)
    try:
        device.save(path)
        fsck_report = fsck(
            path,
            log_segments=harness.log_segments,
            key_capacity=harness.key_capacity,
        )
        for message in fsck_report.errors:
            report.failures.append(f"{label}: fsck: {message}")
    except Exception as exc:  # pragma: no cover - harness failure
        report.failures.append(f"{label}: fsck crashed: {exc!r}")
    finally:
        os.unlink(path)


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


@dataclass
class WearLevelingSweepReport:
    """Outcome of one wear-leveling crash sweep."""

    mode: str
    writes: int
    site_hits: dict[str, int] = field(default_factory=dict)
    crash_points: int = 0
    torn_points: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _make_leveler(mode: str, period: int, seed: int):
    if mode == "swap-scratch":
        return SegmentSwapWearLeveling(period, seed=seed)
    if mode == "start-gap":
        return StartGapWearLeveling(period)
    raise ValueError(f"unknown wear-leveling mode {mode!r}; pick from {WL_MODES}")


def run_wear_leveling_crash_sweep(
    mode: str = "swap-scratch",
    *,
    n_segments: int = 12,
    segment_size: int = 32,
    n_writes: int = 60,
    period: int = 3,
    seed: int = 11,
    sites=WL_CRASH_SITES,
    torn_sites=WL_TORN_SITES,
    torn_fraction: float = 0.5,
    progress=None,
) -> WearLevelingSweepReport:
    """Crash a wear-leveling workload at every copy/program point and check
    that every *committed* logical segment survives recovery.

    The remap table is modelled as hardware-persistent: a harness callback
    snapshots ``mapping_state()`` at every ``on_mapping_commit``, and
    recovery rebuilds a fresh leveler from the last committed snapshot over
    the surviving device.  The contract checked is the device-level one —
    a crash may corrupt *the segment being written* (transactional
    durability above is the KV store's job) but must never corrupt any
    other logical segment.  Both modes pass it: every copy lands in a free
    segment before the mapping commits.
    """
    report = WearLevelingSweepReport(mode=mode, writes=n_writes)

    def replay(faults):
        """Run the workload; returns what survives a (possible) crash."""
        device = NVMDevice(
            capacity_bytes=n_segments * segment_size,
            segment_size=segment_size,
            initial_fill="random",
            seed=seed,
            faults=faults,
        )
        leveler = _make_leveler(mode, period, seed)
        controller = MemoryController(device, wear_leveling=leveler)
        committed = {"state": leveler.mapping_state()}
        leveler.on_mapping_commit = lambda: committed.update(
            state=leveler.mapping_state()
        )
        rng = rng_from_seed(seed + 1)
        oracle: dict[int, bytes] = {}
        pending: tuple[int, bytes] | None = None
        crashed = False
        try:
            for _ in range(n_writes):
                seg = int(rng.integers(0, controller.n_segments))
                value = bytes(
                    rng.integers(0, 256, segment_size, dtype=np.uint8)
                )
                pending = (seg, value)
                controller.write(seg * segment_size, value)
                oracle[seg] = value
                pending = None
        except CrashError:
            crashed = True
        return device, committed["state"], oracle, pending, crashed

    def verify(device, state, oracle, pending, label):
        """Recover from the committed mapping and check every committed
        segment; the mid-write segment (if any) is exempt by contract."""
        device.faults = None
        leveler = _make_leveler(mode, period, seed)
        controller = MemoryController(device, wear_leveling=leveler)
        leveler.restore_mapping(state)
        exempt = pending[0] if pending is not None else None
        for seg, value in sorted(oracle.items()):
            if seg == exempt:
                continue
            got = controller.read(seg * segment_size, segment_size)
            if got != value:
                report.failures.append(
                    f"{label}: logical segment {seg} lost committed data"
                )

    # Baseline: count firings per site and sanity-check the clean run.
    faults = FaultInjector()
    device, state, oracle, pending, crashed = replay(faults)
    assert not crashed and pending is None
    report.site_hits = {site: faults.hits(site) for site in sites}
    verify(device, state, oracle, None, "baseline")

    points = [
        (site, k, None)
        for site in sites
        for k in range(report.site_hits[site])
    ]
    points += [
        (site, k, torn_fraction)
        for site in torn_sites
        for k in range(report.site_hits.get(site, 0))
    ]
    for site, k, tear in points:
        label = f"{mode}:{site}#{k}" + ("+torn" if tear is not None else "")
        faults = FaultInjector()
        faults.arm(site, error=CrashError, after=k, times=1,
                   torn_fraction=tear)
        device, state, oracle, pending, crashed = replay(faults)
        if not crashed:
            report.failures.append(f"{label}: crash point never fired")
            continue
        report.crash_points += 1
        if tear is not None:
            report.torn_points += 1
        verify(device, state, oracle, pending, label)
        if progress is not None:
            progress(label, report)
    return report
