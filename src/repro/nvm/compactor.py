"""Background capacity reclamation: compaction + static wear leveling.

PR 4/5 made the media mortal; this module is the reclamation side of a
real FTL.  Without it the store only ever *loses* capacity: retiring
segments are evacuated and then stranded in quarantine with plenty of
endurance left, and cold values squat on barely-worn segments whose
endurance is never harvested.  The :class:`Compactor` runs two budgeted
maintenance activities per round, on the same single-flight pause/resume
worker loop as the scrubber (:class:`~repro.nvm.worker.MaintenanceWorker`):

1. **Compaction** — ``store.drain_relocations(budget)``: migrate live
   values off ``mark_retiring`` (and scrubber-escalated) segments through
   the normal transactional PUT path, which reclaims each drained segment
   into the spares pool (``HealthManager.reclaim``).  Doing this in the
   background keeps the foreground PUT path from absorbing the whole
   relocation backlog at once.

2. **Static wear leveling** — the cold-data dormancy heuristic (SoftWear's
   software-only layering): find the *coldest dormant* live value sitting
   on a *barely worn* segment and the *most worn* free segment, and when
   the wear gap justifies the write, ``store.migrate`` the cold value onto
   the worn segment.  Cold data parks on tired media that it will rarely
   pulse again, and the fresh segment it vacates re-enters the Dynamic
   Address Pool to absorb hot traffic — harvesting endurance that would
   otherwise idle under dormant values.  The ``wl.swap`` site fires before
   each swap's migration so the crash sweep can probe every migration
   write point.

Both activities are rate-limited per round (``relocations_per_round``,
``swaps_per_round``) so maintenance bandwidth cannot starve foreground
traffic, and both go through the store's transactional machinery — the
compactor never touches the media behind the catalog's back, which is
what keeps fsck and the crash sweep authoritative over its work.

Like the scrubber, the compactor is duck-typed over the store (the
``_live`` address mirror with its heat stamps) to keep the ``nvm``
layer import-free of ``core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nvm.worker import MaintenanceWorker, WorkerStats


@dataclass
class CompactorStats(WorkerStats):
    """Cumulative compactor counters (reported by
    ``Compactor.telemetry``)."""

    #: Values migrated off retiring segments by the compaction half.
    relocations: int = 0
    #: Cold→worn migrations performed by the wear-leveling half.
    wl_swaps: int = 0
    #: Swap candidates picked but refused by ``store.migrate`` (target
    #: claimed/retired mid-flight, value vanished, store read-only).
    wl_swaps_refused: int = 0
    #: Relocation-queue entries left after the last round's budget — a
    #: growing backlog means compaction bandwidth is undersized for the
    #: retirement rate.
    relocation_backlog: int = 0


class Compactor(MaintenanceWorker):
    """Budgeted background compaction + static wear leveling over a
    :class:`~repro.core.kvstore.KVStore`.

    Args:
        store: the KV store to maintain; the compactor registers itself
            via ``store.attach_compactor``.
        relocations_per_round: rate limit on relocation-queue entries
            processed per round (the compaction budget).
        swaps_per_round: rate limit on cold→worn wear-leveling
            migrations per round.
        min_wear_gap: minimum difference between the target (free)
            segment's write count and the victim (live) segment's before
            a swap is worth its own write cost.
        dormancy_writes: a live value is *dormant* — eligible for
            parking on worn media — once at least this many user writes
            have happened since it was last written.
        interval_s: sleep between background rounds.
        faults: optional fault injector; when set, the ``wl.swap`` site
            fires before each wear-leveling migration.  Defaults to the
            device's injector.
    """

    def __init__(
        self,
        store,
        *,
        relocations_per_round: int = 4,
        swaps_per_round: int = 1,
        min_wear_gap: int = 4,
        dormancy_writes: int = 64,
        interval_s: float = 0.005,
        faults=None,
    ) -> None:
        if relocations_per_round <= 0:
            raise ValueError("relocations_per_round must be positive")
        if swaps_per_round < 0:
            raise ValueError("swaps_per_round must be >= 0")
        if min_wear_gap < 1:
            raise ValueError("min_wear_gap must be >= 1")
        if dormancy_writes < 1:
            raise ValueError("dormancy_writes must be >= 1")
        super().__init__(interval_s=interval_s, name="compactor")
        self.store = store
        self.engine = store.engine
        self.controller = store.engine.controller
        self.device = self.controller.device
        self.relocations_per_round = relocations_per_round
        self.swaps_per_round = swaps_per_round
        self.min_wear_gap = min_wear_gap
        self.dormancy_writes = dormancy_writes
        self.faults = faults if faults is not None else self.device.faults
        self.stats = CompactorStats()
        store.attach_compactor(self)

    # ------------------------------------------------------------ compaction

    def compact_round(self) -> dict:
        """One budgeted round: drain relocations, then wear-level.

        Returns a summary dict (relocations/swaps performed, backlog).
        """
        moved = self.store.drain_relocations(self.relocations_per_round)
        self.stats.relocations += moved
        swaps = self.wear_level_round()
        health = self.engine.health
        self.stats.relocation_backlog = (
            health.relocations_pending if health is not None else 0
        )
        self.stats.rounds += 1
        return {
            "relocations": moved,
            "wl_swaps": swaps,
            "relocation_backlog": self.stats.relocation_backlog,
        }

    # --------------------------------------------------- static wear leveling

    def wear_level_round(self) -> int:
        """Up to ``swaps_per_round`` cold→worn migrations; returns how
        many were performed."""
        swaps = 0
        for _ in range(self.swaps_per_round):
            pick = self._pick_swap()
            if pick is None:
                break
            key, _src_addr, dst_addr = pick
            if self.faults is not None:
                self.faults.fire("wl.swap")
            if self.store.migrate(key, dst_addr):
                swaps += 1
                self.stats.wl_swaps += 1
            else:
                self.stats.wl_swaps_refused += 1
        return swaps

    def _pick_swap(self) -> tuple[bytes, int, int] | None:
        """Choose (key, victim address, target address) for one swap.

        Victim: the coldest dormant live value on the least-worn segment.
        Target: the most-worn *free* segment that still has spare ECP
        entries — a segment already at correction capacity (e.g. adopted
        reclaimed capacity) would likely retire under the parking write
        itself, spending endurance to destroy the target.  ``None`` when
        no pairing clears the dormancy and ``min_wear_gap`` thresholds —
        wear leveling only spends a write when parking the value
        meaningfully evens out wear.
        """
        wear = self.device.segment_write_count
        seg_size = self.controller.segment_size
        ecc = self.controller.ecc
        free = self.engine.dap.snapshot_addresses()
        if ecc is not None:
            free = [a for a in free if self._survives_parking(a)]
        if not free:
            return None
        # Most-worn surviving free segment (ties toward the lower address
        # for determinism).
        dst_addr = max(free, key=lambda a: (int(wear[a // seg_size]), -a))
        dst_wear = int(wear[dst_addr // seg_size])

        now = self.store.write_seq
        best = None
        best_key = None
        for addr, (key, _, heat, _) in list(self.store._live.items()):
            if now - heat < self.dormancy_writes:
                continue  # recently written: not dormant
            src_wear = int(wear[addr // seg_size])
            if dst_wear - src_wear < self.min_wear_gap:
                continue  # parking it would not even out wear enough
            cand = (src_wear, heat, addr)
            if best is None or cand < best:
                best = cand
                best_key = key
        if best is None:
            return None
        return (best_key, best[2], dst_addr)

    def _survives_parking(self, addr: int) -> bool:
        """Whether the free segment at ``addr`` can plausibly absorb the
        parking write without retiring: every stuck cell it already
        carries must be patchable within its total ECP capacity (in the
        worst case the written value disagrees with each stuck cell), so
        segments at correction capacity — adopted reclaimed capacity in
        particular — are never chosen as parking targets."""
        ecc = self.controller.ecc
        seg_size = self.controller.segment_size
        seg = addr // seg_size
        if ecc.at_capacity(seg):
            return False
        mask = self.device.stuck_mask(seg * seg_size, seg_size)
        stuck = int(np.unpackbits(mask).sum())
        return stuck <= ecc.entries_per_segment

    # ------------------------------------------------------- background loop

    def run_once(self) -> dict:
        """One background round (the :class:`MaintenanceWorker` hook)."""
        return self.compact_round()
