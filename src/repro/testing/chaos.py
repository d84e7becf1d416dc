"""Chaos drill for the supervised sharded store.

The crash sweep (:mod:`repro.testing.crash_sweep`) proves *one* shard
recovers from *one* crash at *every* fault site.  The chaos drill attacks
the other axis: many faults of different species, landing on random
shards, **while the store is serving writes and the media keeps aging** —
and asserts the system converges back to all-shards-healthy with nothing
acknowledged lost.

One drill round:

1. pick a random live shard and a fault species —

   - ``"kill"``: SIGKILL the worker mid-``put_many`` (a timer fires the
     signal while the batch is in flight) — power loss on one channel;
   - ``"stop"``: SIGSTOP the worker — a wedged controller that stops
     heartbeating but holds its pipe open; only the watchdog can tell;
   - ``"crash"``: arm a :class:`~repro.testing.faults.CrashError` at
     ``catalog.write`` so the *next* write to that shard dies inside its
     catalog commit (``os._exit``, no response, no cleanup);

2. issue a ``put_many`` batch spanning every shard under the ``partial``
   degraded policy, in flight in the
   :class:`~repro.testing.model.DurabilityModel` as ``either``: an
   ``"ok"`` item is **acknowledged**, a failed one may have committed or
   not (the shard died mid-batch);
3. advance the wearout and drift clocks (the in-worker scrubber heals
   drift on its own cadence while all this is going on, and every
   committed write consults its shard's retrain policy, ``auto_retrain``
   being on);
4. let the :class:`~repro.sharding.supervisor.ShardSupervisor` converge
   the fleet back to healthy and verify every acknowledged write reads
   back.

After the last round the drill reads everything back for the model to
judge, closes the store and runs :func:`repro.tools.fsck.fsck_sharded`
over it — recovery that leaves the media inconsistent must not pass.
The rebalance storm shares the fleet, the acknowledgement bookkeeping
and that final step (:class:`_Fleet`).

The harness is a library: the chaos tests and ``bench_chaos.py`` both
drive it.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import signal
import tempfile
import threading
import time
from contextlib import AbstractContextManager, suppress
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import fast_test_config
from repro.core.kvstore import StoreReadOnlyError
from repro.nvm.device import DriftConfig, NVMDevice, WearOutConfig
from repro.sharding import RebalanceJournal, ShardedKVStore, ShardSupervisor
from repro.sharding.backends import ShardUnavailableError
from repro.testing.model import (
    EITHER,
    CrashSweepReport,
    DurabilityModel,
    sweep_crash_points,
)
from repro.tools.fsck import fsck_sharded

#: Fault species the drill draws from (uniformly, seeded).
FAULT_KINDS = ("kill", "stop", "crash")

#: The fleet every harness here runs on.
N_SHARDS = 3
_GEOMETRY = dict(segment_size=64, key_capacity=16)
#: Keys the drill's batches draw from (later rounds overwrite — the
#: idempotent-upsert path retries depend on) / the rebalance preload.
DRILL_KEY_SPACE = 24
REBALANCE_KEYS = 48
REBALANCE_WEIGHTS = (2.0, 1.0, 0.5)
#: Per-round and final convergence budget of the supervised drills.
HEAL_TIMEOUT_S = 120.0


def _key(key_no: int) -> bytes:
    return f"key-{key_no:04d}".encode()


def _create_store(
    root, seed: int, n_segments_per_shard: int, config=None, **options
):
    return ShardedKVStore.create(
        root,
        N_SHARDS,
        n_segments_per_shard=n_segments_per_shard,
        config=config or fast_test_config(),
        base_seed=seed + 7,
        **_GEOMETRY,
        **options,
    )


@dataclass
class _FleetReport:
    """The safety contract both supervised drills assert on."""

    rounds: int
    #: Items acknowledged ok / total items attempted.
    acked_items: int = 0
    total_items: int = 0
    #: Findings of the final read-back, by kind (see
    #: :class:`~repro.testing.model.Finding`): acknowledged values that
    #: did not read back; values nobody wrote (torn — never acceptable);
    #: live keys that must not exist.
    lost_writes: list = field(default_factory=list)
    corrupt_keys: list = field(default_factory=list)
    orphan_keys: list = field(default_factory=list)
    #: Keys live on more than one shard.
    duplicate_keys: list = field(default_factory=list)
    #: Dead cells across every shard's final snapshot.
    stuck_cells: int = 0
    all_healthy: bool = False
    fsck_ok: bool = False
    fsck_errors: list = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def availability(self) -> float:
        """Fraction of attempted items acknowledged during the drill."""
        return self.acked_items / self.total_items if self.total_items else 1.0

    @property
    def ok(self) -> bool:
        """Converged healthy, zero lost acknowledged writes, nothing torn,
        orphaned or duplicated, cross-shard fsck clean."""
        return (
            self.all_healthy
            and not self.lost_writes
            and not self.corrupt_keys
            and not self.orphan_keys
            and not self.duplicate_keys
            and self.fsck_ok
        )

    def summary(self) -> dict:
        """The ``SUMMARY_KEYS`` of this report as plain data (what the
        benchmarks emit): finding lists shrink to their counts."""
        values = ((key, getattr(self, key)) for key in self.SUMMARY_KEYS)
        return {
            key: len(value) if isinstance(value, list) else value
            for key, value in values
        }


@dataclass
class ChaosReport(_FleetReport):
    """Everything a drill asserts on (and the benchmark reports)."""

    faults: dict = field(default_factory=dict)
    recovery_count: int = 0
    recovery_time_mean_s: float = 0.0
    recovery_time_max_s: float = 0.0
    watchdog_kills: int = 0
    restarts: int = 0
    converge_s: float = 0.0

    SUMMARY_KEYS = (
        "rounds", "faults", "availability", "acked_items", "total_items",
        "lost_writes", "corrupt_keys", "all_healthy", "fsck_ok",
        "recovery_count", "recovery_time_mean_s", "recovery_time_max_s",
        "watchdog_kills", "restarts", "duration_s", "converge_s",
        "stuck_cells", "ok",
    )


class _Fleet(AbstractContextManager):
    """What the drill and the storm share: a supervised process-backend
    store under the ``partial`` policy, the model of what it was told, and
    the report being filled in.  A context manager — leaving it stops the
    supervisor and closes the store on every path, and removes a
    temporary root unless the drill failed (or raised)."""

    def __init__(
        self, root, report: _FleetReport, seed: int, *,
        n_segments_per_shard: int, restart_budget: int, **shard_options,
    ) -> None:
        self.owns_root = root is None
        self.root = Path(root) if root is not None else Path(tempfile.mkdtemp())
        self.report = report
        self.model = DurabilityModel()
        self.started = time.monotonic()
        self.store = _create_store(
            self.root, seed, n_segments_per_shard, backend="process",
            degraded="partial", deadline_s=30.0, **shard_options,
        )
        self.supervisor = ShardSupervisor(
            self.store,
            interval_s=0.05,
            heartbeat_timeout_s=0.5,
            restart_budget=restart_budget,
            stable_after_s=0.5,
            auto_start=True,
        )

    def __exit__(self, *exc) -> None:
        self.supervisor.stop()
        self.store.close()  # idempotent
        if self.owns_root and self.report.ok:
            shutil.rmtree(self.root, ignore_errors=True)

    def kill_later(self, shard_id: int, rng, lo: float, hi: float):
        """Start a timer that SIGKILLs ``shard_id``'s worker ``lo``–``hi``
        seconds from now; ``None`` when the shard is already down."""
        pid = self.store.backend.worker_pid(shard_id)
        if pid is None or not self.store.shard_alive(shard_id):
            return None
        timer = threading.Timer(rng.uniform(lo, hi), _kill_quietly, (pid,))
        timer.start()
        return timer

    def put_many(self, items) -> None:
        """One foreground batch under ``partial``, acknowledged item by
        item as its outcome report admits."""
        self.model.begin(items, EITHER)
        try:
            outcomes = self.store.put_many(items).outcomes
        except (ShardUnavailableError, StoreReadOnlyError):
            # partial mode degrades unavailability, but an overlapping
            # fault can still surface here (e.g. every shard down), and a
            # shard whose media wore out refuses writes: nothing in this
            # batch is acknowledged.
            outcomes = ["error"] * len(items)
        self.report.total_items += len(items)
        self.report.acked_items += self.model.ack(outcomes)

    def verify_and_close(self) -> None:
        """The final step: read everything back for the model to judge,
        then close the store and run the cross-shard offline checker."""
        report, store = self.report, self.store
        try:
            live = store.keys()
        except ShardUnavailableError:
            live, report.all_healthy = [], False
        keys = sorted(self.model.keys() | set(live))
        final = store.get_many(keys)
        if not final.ok:
            report.all_healthy = False
        by_kind = {
            "lost": report.lost_writes,
            "corrupt": report.corrupt_keys,
            "phantom": report.orphan_keys,
        }
        for finding in self.model.check(zip(keys, final)):
            by_kind[finding.kind].append(finding)
        report.duplicate_keys = sorted(
            key for key in set(live) if live.count(key) > 1
        )
        store.close()
        fsck_report = fsck_sharded(self.root)
        report.stuck_cells = sum(
            NVMDevice.load(path).stuck_cell_count()
            for path in self.root.glob("shard-*.npz")
        )
        report.fsck_ok = fsck_report.ok
        report.fsck_errors = fsck_report.all_errors
        report.duration_s = time.monotonic() - self.started


def run_chaos_drill(
    root: str | Path | None = None,
    *,
    rounds: int = 6,
    batch_size: int = 24,
    seed: int = 0,
    heal_timeout_s: float = HEAL_TIMEOUT_S,
    faults: tuple[str, ...] = FAULT_KINDS,
    endurance_mean: float = 1e8,
) -> ChaosReport:
    """Run one seeded chaos drill; see the module docstring for the plot.

    Args:
        root: store directory (a temp dir when ``None``; it is left on
            disk only if the drill fails or raises).
        rounds: fault-injection rounds.
        batch_size: items per ``put_many`` round.
        seed: drives every random choice (victim shard, fault kind, kill
            timing, values) — a failure reproduces from its seed.
        heal_timeout_s: per-round and final convergence budget.
        faults: the fault species to draw from (subset of
            :data:`FAULT_KINDS`).
        endurance_mean: median cell endurance; near ``rounds`` (each
            round ages every cell once) cells die within the drill.
    """
    for kind in faults:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    rng = random.Random(seed)
    report = ChaosReport(rounds=rounds, faults={k: 0 for k in faults})
    with _Fleet(
        root, report, seed,
        n_segments_per_shard=128,
        restart_budget=5,
        config=fast_test_config(auto_retrain=True),
        maintenance=True,
        wearout=WearOutConfig(endurance_mean=endurance_mean, seed=seed),
        drift=DriftConfig(retention_mean=50_000.0, seed=seed),
    ) as fleet:
        store, supervisor = fleet.store, fleet.supervisor
        for round_no in range(rounds):
            victim = rng.randrange(N_SHARDS)
            kind = rng.choice(list(faults))
            report.faults[kind] += 1
            timer = None
            if kind == "stop":
                pid = store.backend.worker_pid(victim)
                if pid is not None and store.shard_alive(victim):
                    os.kill(pid, signal.SIGSTOP)
            elif kind == "crash":
                # Already down?  The round still writes.
                with suppress(ShardUnavailableError):
                    store.backend.call(victim, "arm_crash", ("catalog.write",))
            elif kind == "kill":
                timer = fleet.kill_later(victim, rng, 0.005, 0.05)

            key_nos = rng.sample(
                range(DRILL_KEY_SPACE), min(batch_size, DRILL_KEY_SPACE)
            )
            try:
                fleet.put_many([
                    (
                        _key(key_no),
                        f"r{round_no}.k{key_no}.{rng.randrange(1 << 30)}"
                        .encode(),
                    )
                    for key_no in key_nos
                ])
            finally:
                if timer is not None:
                    timer.cancel()

            # Media keeps aging while the fleet is degraded (one wear
            # cycle, 2000 drift ticks a round); dead shards miss this
            # tick, and a restarted worker carries on from the wear,
            # stuck cells, ECP, health and drift clock its medium holds.
            for broadcast, amount in ((store.age, 1), (store.advance_time, 2_000)):
                with suppress(ShardUnavailableError):
                    broadcast(amount)

            if not supervisor.await_healthy(timeout=heal_timeout_s):
                break  # report.all_healthy stays False

        report.converge_s = time.monotonic() - fleet.started
        report.all_healthy = supervisor.await_healthy(timeout=heal_timeout_s)
        sup_tel = supervisor.telemetry()
        report.recovery_count = sup_tel["recovery_count"]
        report.recovery_time_mean_s = sup_tel["recovery_time_mean_s"]
        report.recovery_time_max_s = sup_tel["recovery_time_max_s"]
        report.watchdog_kills = sup_tel["watchdog_kills"]
        report.restarts = sup_tel["restarts"]
        fleet.verify_and_close()
    return report


def _kill_quietly(pid: int) -> None:
    with suppress(ProcessLookupError, PermissionError):
        os.kill(pid, signal.SIGKILL)


# --------------------------------------------------------------------------
# Rebalance fault coverage
# --------------------------------------------------------------------------

#: Coordinator-side fault sites of the rebalance protocol (fired by the
#: :class:`~repro.sharding.rebalance.Rebalancer` in the facade's process),
#: each with the journal state ``open()`` must find after a crash there:
#: copy/delete crashes land mid-drain and resume it; the flip crash lands
#: past the point of no return and rolls forward without draining.
_RESUMES_FROM = {
    "rebalance.copy": "draining",
    "rebalance.delete": "draining",
    "rebalance.flip": "flipped",
}
REBALANCE_CRASH_SITES = tuple(_RESUMES_FROM)


def _preload(rng) -> list[tuple[bytes, bytes]]:
    return [
        (_key(i), f"value-{i}-{rng.randrange(1 << 20)}".encode())
        for i in range(REBALANCE_KEYS)
    ]


def check_exactly_once(store, model) -> list[str]:
    """The placement contract of a sharded store, read shard by shard:
    every shard serves exactly the ``model`` (a
    :class:`~repro.testing.model.DurabilityModel` or a mapping of
    acknowledged pairs) restricted to the keys the ring routes to it — no
    key lost, duplicated on a second shard, or holding a wrong value.

    While a rebalance is live a key may sit on its old owner, its new one
    or both, so a shard may hold any subset — values are still judged on
    every holder, the facade must serve every key, and placement is
    asserted once the drain has finished.  Returns one message per
    violation."""
    if not isinstance(model, DurabilityModel):
        model = DurabilityModel(model)
    keys = sorted(model.keys())
    messages = []
    for shard_id in range(store.n_shards):
        values = store.backend.call(shard_id, "get_many", (keys,))
        held = {k: v for k, v in zip(keys, values) if v is not None}
        if store.rebalance_active:
            owned = set(held)
        else:
            owned = {k for k in keys if store.shard_of(k) == shard_id}
        messages += [
            f"shard {shard_id}: {finding}"
            for finding in model.check(held, owned.__contains__)
        ]
    if store.rebalance_active:
        messages += map(str, model.check(zip(keys, store.get_many(keys))))
    return messages


def run_rebalance_crash_sweep(
    root: str | Path | None = None, *, seed: int = 0
) -> CrashSweepReport:
    """Crash the rebalance *coordinator* at every firing of every fault
    site, then prove ``open()`` recovers.

    The run is deterministic (same seed, same keys, same batches → same
    firing schedule in every replay), so
    :func:`~repro.testing.model.sweep_crash_points` can enumerate it.  The
    shards themselves do not crash — only the coordinator dies
    mid-protocol — so their media survives (``close()`` snapshots them,
    the in-process analogue of worker processes outliving the facade);
    ``open()`` must then resume the drain or roll the flip forward, after
    which every preloaded key is readable with its exact value on exactly
    its ring owner (:func:`check_exactly_once` — a drain is content-neutral,
    so the model is just the acknowledged preload), the journal is gone,
    and cross-shard fsck is clean.  Worker-side crashes are the storm
    drill's job (:func:`run_rebalance_storm`).
    """
    owns_root = root is None
    root = Path(root) if root is not None else Path(tempfile.mkdtemp())
    model = DurabilityModel(_preload(random.Random(seed)))
    replays = itertools.count()

    def build(faults):
        case_root = root / f"replay-{next(replays)}"
        store = _create_store(case_root, seed, 256)
        store.put_many(list(model.acked.items()))
        return case_root, store, faults

    def drive(state):
        _, store, faults = state
        try:
            rebalancer = store.begin_rebalance(
                weights=REBALANCE_WEIGHTS, batch_size=8
            )
            rebalancer.faults = faults
            rebalancer.drain_until_done(timeout_s=60.0)
            rebalancer.finalize()
        finally:
            store.close()

    def recover_and_check(state):
        case_root, _, faults = state
        # No site armed: the crash-free baseline, whose journal is retired.
        crashed_at = next(filter(faults.armed, REBALANCE_CRASH_SITES), None)
        expected = _RESUMES_FROM.get(crashed_at)
        journal = RebalanceJournal.load(case_root)
        found = journal.state if journal is not None else None
        if found != expected:
            yield f"reopen found the journal {found!r}, expected {expected!r}"
        store = ShardedKVStore.open(case_root)
        try:
            yield from check_exactly_once(store, model)
            if store.rebalance_active:
                store.rebalancer.drain_until_done(timeout_s=60.0)
                store.rebalancer.finalize()
            if store.ring.describe().get("weights") != list(REBALANCE_WEIGHTS):
                yield "recovered ring does not carry the new weights"
            yield from check_exactly_once(store, model)
            if RebalanceJournal.load(case_root) is not None:
                yield "journal survived finalize"
        finally:
            store.close()
        yield from fsck_sharded(case_root).all_errors

    report = sweep_crash_points(
        build, drive, recover_and_check, REBALANCE_CRASH_SITES
    )
    if owns_root and report.passed:
        shutil.rmtree(root, ignore_errors=True)
    return report


@dataclass
class RebalanceStormReport(_FleetReport):
    """Findings of one :func:`run_rebalance_storm`."""

    kills: int = 0
    finalized: bool = False
    keys_copied: int = 0
    keys_deleted: int = 0
    pauses: int = 0

    @property
    def ok(self) -> bool:
        """The fleet contract, and the rebalance finished despite both
        endpoints being SIGKILLed mid-drain."""
        return super().ok and self.finalized

    SUMMARY_KEYS = (
        "rounds", "kills", "availability", "acked_items", "total_items",
        "lost_writes", "corrupt_keys", "orphan_keys", "duplicate_keys",
        "all_healthy", "finalized", "fsck_ok", "keys_copied",
        "keys_deleted", "pauses", "duration_s", "ok",
    )


def run_rebalance_storm(
    root: str | Path | None = None,
    *,
    rounds: int = 4,
    seed: int = 0,
    heal_timeout_s: float = HEAL_TIMEOUT_S,
) -> RebalanceStormReport:
    """SIGKILL the *source and target* worker processes mid-drain, while
    foreground writes keep flowing, and prove the migration still lands.

    One round: ask the rebalancer which ``(source, target)`` pair it will
    move next, start timers that SIGKILL both workers a few milliseconds
    out, keep draining through the kills (the drain pauses on the dead
    shards and requeues their batches), push a foreground ``put_many``
    under the ``partial`` policy (acked items must survive, full stop),
    and let the supervisor heal the fleet.  After the last round the
    drain runs to completion, the rebalance finalizes, and the shared
    final step (:meth:`_Fleet.verify_and_close`) judges the read-back and
    runs cross-shard fsck on the closed store.
    """
    rng = random.Random(seed)
    report = RebalanceStormReport(rounds=rounds)
    with _Fleet(
        root, report, seed, n_segments_per_shard=256, restart_budget=8
    ) as fleet:
        store, supervisor = fleet.store, fleet.supervisor
        fleet.put_many(_preload(rng))
        rebalancer = store.begin_rebalance(
            weights=REBALANCE_WEIGHTS, batch_size=16
        )
        rebalancer.drain(0)  # populate the queue so next_pair() can aim

        for round_no in range(rounds):
            timers = [
                timer
                for shard_id in set(rebalancer.next_pair() or ())
                if (timer := fleet.kill_later(shard_id, rng, 0.002, 0.02))
            ]
            report.kills += len(timers)
            try:
                # Keep draining through the kills: batches that land on a
                # dead endpoint pause and requeue, the rest keep moving.
                for _ in range(4):
                    rebalancer.drain(8)
                    time.sleep(0.01)
            finally:
                for timer in timers:
                    timer.cancel()

            fleet.put_many([
                (_key(i), f"r{round_no}-{i}-{rng.randrange(1 << 20)}".encode())
                for i in rng.sample(range(REBALANCE_KEYS), 12)
            ])
            if not supervisor.await_healthy(timeout=heal_timeout_s):
                break

        report.all_healthy = supervisor.await_healthy(timeout=heal_timeout_s)
        rebalancer.drain_until_done(timeout_s=heal_timeout_s)
        rebalancer.finalize()
        report.finalized = not store.rebalance_active
        report.keys_copied = rebalancer.keys_copied
        report.keys_deleted = rebalancer.keys_deleted
        report.pauses = rebalancer.pauses
        fleet.verify_and_close()
    return report
