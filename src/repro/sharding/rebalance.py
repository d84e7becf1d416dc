"""Crash-safe online shard rebalancing: journaled key migration.

Shards wear unevenly — Zipfian traffic concentrates writes on whichever
channel owns the hot arc — so the facade must be able to *change the ring*
(per-shard weights, see :class:`~repro.sharding.ring.HashRing`) and drain
the moved keys to their new owners while foreground traffic keeps flowing.
This is the sharded analogue of SoftWear's software-only remapping: wear
management by moving data, not by replacing media.

The hard part is crash safety.  A migration is a distributed write — copy
on one shard, delete on another — with no cross-shard transaction to hide
behind, so the protocol is built from idempotent steps ordered such that
**an acknowledged value is always readable from at least one shard**:

1. **Plan** — :meth:`ShardedKVStore.begin_rebalance` writes an intent
   journal (``rebalance.json``, atomically: tmp + replace) next to the
   manifest recording the old and new ring, then flips the facade into
   dual routing (writes → new owner; reads → new owner, then old owner).
2. **Drain** — :meth:`Rebalancer.drain` moves keys in budgeted batches:
   *copy* to the target (``copy_absent``: a foreground write that already
   landed on the new owner is never clobbered by a stale source copy),
   *verify* by reading the value back through the target's CRC-checked
   read path, and only then *delete* from the source.  Every step is
   idempotent, so replaying a batch after a crash is safe; delete is
   last, so the value never vanishes from both shards.
3. **Finalize** — when no moved keys remain, the journal advances to
   ``flipped`` (the point of no return), the manifest is rewritten with
   the new ring, the journal advances to ``done`` and is removed, and the
   facade drops dual routing.

Crash recovery is rescan-based, not log-replay-based: ``open()`` finds an
unfinished journal and either resumes dual routing + draining (``planned``
/ ``draining`` — the drain rescans shard catalogs, so partially-copied or
partially-deleted batches simply converge) or rolls the flip forward
(``flipped`` / ``done`` — rewrite manifest, drop journal).  Both paths are
deterministic and idempotent.

A source or target worker dying mid-drain (SIGKILL, crash, hang) pauses
the drain — :meth:`Rebalancer.drain` reports the shards it is waiting on
instead of raising — and the :class:`~repro.sharding.supervisor.\
ShardSupervisor` heals them in the background; ``drain_until_done`` waits
on exactly those shards and resumes.  A breaker-open shard pauses the
drain the same way until an operator ``reset``.

Fault sites (fired in the *coordinator*, i.e. the facade's process):
``rebalance.copy`` before each copy batch, ``rebalance.delete`` before
each delete-from-source batch, ``rebalance.flip`` between the journal's
``flipped`` record and the manifest rewrite.  The rebalance crash sweep
(:mod:`repro.testing.chaos`) crashes at every firing of each and proves
recovery from all of them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.sharding.backends import ShardUnavailableError
from repro.sharding.ring import HashRing, RingDiff

JOURNAL_NAME = "rebalance.json"
JOURNAL_VERSION = 1

#: Journal state machine; transitions only ever move right.
JOURNAL_STATES = ("planned", "draining", "flipped", "done")


class RebalanceError(RuntimeError):
    """A rebalance protocol violation (wrong state, routing no-op, …)."""


class RebalanceInProgressError(RebalanceError):
    """A second rebalance was requested while one is active."""


@dataclass
class RebalanceJournal:
    """The on-disk migration intent log (``rebalance.json``).

    Lives next to the manifest; written atomically (tmp + replace) so a
    crash never leaves a torn journal.  It records only the *plan* (old
    ring, new ring) and the coarse state — per-key progress is recovered
    by rescanning shard catalogs, which the idempotent drain protocol
    makes safe.
    """

    root: Path
    old_ring: dict
    new_ring: dict
    state: str = "planned"

    @property
    def path(self) -> Path:
        return Path(self.root) / JOURNAL_NAME

    @classmethod
    def load(cls, root) -> "RebalanceJournal | None":
        """The journal at ``root``, or ``None`` when no rebalance is in
        flight."""
        path = Path(root) / JOURNAL_NAME
        if not path.exists():
            return None
        data = json.loads(path.read_text())
        if data.get("version") != JOURNAL_VERSION:
            raise ValueError(
                f"rebalance journal version {data.get('version')} not "
                "supported"
            )
        state = data.get("state")
        if state not in JOURNAL_STATES:
            raise ValueError(f"rebalance journal holds unknown state {state!r}")
        return cls(
            root=Path(root),
            old_ring=data["old_ring"],
            new_ring=data["new_ring"],
            state=state,
        )

    def write(self) -> None:
        payload = {
            "version": JOURNAL_VERSION,
            "state": self.state,
            "old_ring": self.old_ring,
            "new_ring": self.new_ring,
        }
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        tmp.replace(self.path)

    def advance(self, state: str) -> None:
        """Atomically advance to ``state`` (idempotent; never backwards)."""
        if JOURNAL_STATES.index(state) < JOURNAL_STATES.index(self.state):
            raise RebalanceError(
                f"journal cannot move backwards ({self.state} -> {state})"
            )
        self.state = state
        self.write()

    def remove(self) -> None:
        self.path.unlink(missing_ok=True)


@dataclass
class DrainReport:
    """What one :meth:`Rebalancer.drain` call accomplished."""

    #: Keys examined this call (taken off the work queue).
    examined: int = 0
    #: Keys copied onto their new owner this call.
    copied: int = 0
    #: Keys whose copy was skipped (already present on the target — a
    #: prior copy or a newer foreground write; the target wins).
    skipped: int = 0
    #: Keys deleted from their old owner this call.
    deleted: int = 0
    bytes_copied: int = 0
    #: Shards the drain is waiting on (down or breaker-open); the batch
    #: they blocked stays queued and is retried after healing.
    paused_on: list[int] = field(default_factory=list)
    #: No moved keys remain anywhere (verified by a full rescan).
    done: bool = False


class Rebalancer:
    """Budgeted, crash-safe key migration between shards.

    Created by :meth:`ShardedKVStore.begin_rebalance` (fresh plan) or by
    :meth:`ShardedKVStore.open` (resuming an unfinished journal).  Drive
    it with :meth:`drain` / :meth:`drain_until_done`, then
    :meth:`finalize`.

    The rebalancer talks to the backend directly (the facade's routing
    would send it in circles: moved keys route to their *new* owner while
    the bytes still sit on the old one) and serialises against foreground
    deletes via the store's rebalance lock, so a delete can never
    interleave inside a key's copy window and resurrect a dead value.
    """

    def __init__(self, store, journal: RebalanceJournal, *, batch_size: int = 32) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.store = store
        self.journal = journal
        self.old_ring = HashRing(**journal.old_ring)
        self.new_ring = HashRing(**journal.new_ring)
        if self.old_ring.n_shards != self.new_ring.n_shards:
            raise RebalanceError(
                "rebalancing cannot change the shard count (only weights "
                "and vnodes)"
            )
        self.diff: RingDiff = HashRing.diff(self.old_ring, self.new_ring)
        self.batch_size = batch_size
        #: Optional FaultInjector for the coordinator-side crash sweep
        #: (sites ``rebalance.copy`` / ``rebalance.delete`` /
        #: ``rebalance.flip``).
        self.faults = None
        #: (source, key) work queue from the last catalog rescan.
        self._queue: list[tuple[int, bytes]] = []
        self._scanned_empty = False
        # Lifetime stats (telemetry; not persisted — recovery rescans).
        self.keys_copied = 0
        self.copies_skipped = 0
        self.keys_deleted = 0
        self.bytes_copied = 0
        self.batches = 0
        self.pauses = 0

    # ------------------------------------------------------------- queries

    @property
    def state(self) -> str:
        return self.journal.state

    def status(self) -> dict:
        """Operator-facing progress snapshot."""
        return {
            "state": self.journal.state,
            "keys_copied": self.keys_copied,
            "copies_skipped": self.copies_skipped,
            "keys_deleted": self.keys_deleted,
            "bytes_copied": self.bytes_copied,
            "batches": self.batches,
            "pauses": self.pauses,
            "queued": len(self._queue),
            "moved_fraction": self.diff.moved_fraction,
        }

    def next_pair(self) -> tuple[int, int] | None:
        """``(source, target)`` of the next key the drain will move, or
        ``None`` when the queue is empty (drill tooling: pick victims)."""
        if not self._queue:
            return None
        source, key = self._queue[0]
        return source, self.new_ring.shard_of(key)

    # -------------------------------------------------------------- drain

    def _fire(self, site: str) -> None:
        if self.faults is not None:
            self.faults.fire(site)

    def _paused(self, shard_id: int) -> bool:
        return not self.store.backend.shard_alive(
            shard_id
        ) or self.store._breaker_open(shard_id)

    def _rescan(self, report: DrainReport) -> bool:
        """Rebuild the work queue from shard catalogs: every key sitting
        on a shard the new ring does not route it to must move.  Returns
        False (and records the pause) when a shard cannot be scanned."""
        queue: list[tuple[int, bytes]] = []
        for source in range(self.store.n_shards):
            if self._paused(source):
                report.paused_on.append(source)
                return False
            try:
                keys = self.store.backend.call(source, "keys")
            except ShardUnavailableError:
                report.paused_on.append(source)
                return False
            queue.extend(
                (source, key)
                for key in keys
                if self.new_ring.shard_of(key) != source
            )
        self._queue = queue
        self._scanned_empty = not queue
        return True

    def drain(self, budget: int | None = None) -> DrainReport:
        """Move up to ``budget`` keys (default ``batch_size``) toward
        their new owners: copy-to-target, verify-CRC, delete-from-source.

        Never raises on shard unavailability — the blocked batch stays
        queued and ``paused_on`` names the shards being waited on.
        ``done`` is True only after a full rescan found nothing left."""
        if self.journal.state != "draining":
            raise RebalanceError(
                f"drain is only legal in the 'draining' state, not "
                f"{self.journal.state!r}"
            )
        report = DrainReport()
        budget = self.batch_size if budget is None else budget
        if not self._queue:
            if not self._rescan(report):
                self.pauses += 1
                return report
            if self._scanned_empty:
                report.done = True
                return report
        take, self._queue = self._queue[:budget], self._queue[budget:]
        # Group the batch by (source, target): one copy call and one
        # delete call per pair keeps the RPC count proportional to the
        # number of shard pairs, not keys.
        groups: dict[tuple[int, int], list[bytes]] = {}
        for source, key in take:
            groups.setdefault(
                (source, self.new_ring.shard_of(key)), []
            ).append(key)
        for (source, target), keys in sorted(groups.items()):
            if self._paused(source) or self._paused(target):
                self._requeue(source, keys, report)
                continue
            try:
                moved = self._move_batch(source, target, keys, report)
            except ShardUnavailableError:
                moved = False
            if not moved:
                self._requeue(source, keys, report, paused=(source, target))
            else:
                report.examined += len(keys)
        self.batches += 1
        return report

    def _requeue(
        self,
        source: int,
        keys: list[bytes],
        report: DrainReport,
        paused: tuple[int, int] | None = None,
    ) -> None:
        self._queue.extend((source, key) for key in keys)
        pause_on = paused if paused is not None else (source,)
        for shard_id in pause_on:
            if self._paused(shard_id) and shard_id not in report.paused_on:
                report.paused_on.append(shard_id)
        self.pauses += 1

    def _move_batch(
        self, source: int, target: int, keys: list[bytes], report: DrainReport
    ) -> bool:
        """One copy/verify/delete cycle for ``keys`` (all source→target).

        Runs under the store's rebalance lock so a foreground delete
        (which must hit both owners) cannot interleave between our copy
        and our delete and have its tombstone overwritten by the stale
        source value."""
        backend = self.store.backend
        with self.store._rebalance_lock:
            values = backend.call(source, "get_many", (keys,))
            # A key already gone from the source was deleted or drained
            # concurrently; nothing to move.
            pairs = [
                (key, value)
                for key, value in zip(keys, values)
                if value is not None
            ]
            if pairs:
                self._fire("rebalance.copy")
                inserted = backend.call(target, "copy_absent", (pairs,))
                for (key, value), did in zip(pairs, inserted):
                    if did:
                        self.keys_copied += 1
                        self.bytes_copied += len(value)
                        report.copied += 1
                        report.bytes_copied += len(value)
                    else:
                        self.copies_skipped += 1
                        report.skipped += 1
                # Verify through the target's normal read path: the store
                # CRC-checks every read, so a non-None answer is a
                # CRC-clean, durable copy.  Only verified keys may be
                # deleted from the source.
                verified = backend.call(
                    target, "get_many", ([key for key, _ in pairs],)
                )
                deletable = [
                    key
                    for (key, _), value in zip(pairs, verified)
                    if value is not None
                ]
            else:
                deletable = []
            if deletable:
                self._fire("rebalance.delete")
                removed = backend.call(source, "delete_many", (deletable,))
                n = sum(1 for r in removed if r)
                self.keys_deleted += n
                report.deleted += n
        return True

    def drain_until_done(
        self,
        *,
        timeout_s: float = 120.0,
        heal_timeout_s: float = 10.0,
    ) -> None:
        """Drain to empty, waiting out pauses via the attached supervisor
        (or plain sleep when none is attached)."""
        deadline = time.monotonic() + timeout_s
        while True:
            report = self.drain()
            if report.done:
                return
            if time.monotonic() >= deadline:
                raise RebalanceError(
                    f"drain did not complete within {timeout_s}s "
                    f"(waiting on shards {report.paused_on})"
                )
            if report.paused_on:
                supervisor = self.store.supervisor
                if supervisor is not None:
                    supervisor.await_shards(
                        report.paused_on,
                        timeout=min(
                            heal_timeout_s, deadline - time.monotonic()
                        ),
                    )
                else:
                    time.sleep(0.02)

    # ----------------------------------------------------------- finalize

    def finalize(self) -> None:
        """Flip routing to the new ring permanently and retire the journal.

        Refuses while moved keys remain (drain first).  Crash-ordered:
        journal ``flipped`` (point of no return, atomically) → manifest
        rewritten with the new ring → journal ``done`` → journal removed.
        ``open()`` rolls any suffix of that sequence forward."""
        if self.journal.state == "draining":
            report = DrainReport()
            if not self._rescan(report):
                raise RebalanceError(
                    f"cannot verify drain completion; shards "
                    f"{report.paused_on} unavailable"
                )
            if self._queue:
                raise RebalanceError(
                    f"{len(self._queue)} key(s) still await migration; "
                    "drain before finalizing"
                )
            self.journal.advance("flipped")
        if self.journal.state == "flipped":
            self._fire("rebalance.flip")
            self.store.ring = self.new_ring
            self.store._write_manifest()
            self.journal.advance("done")
        self.journal.remove()
        self.store._complete_rebalance()
