"""Device health: segment retirement, spare capacity and degradation
telemetry.

Two pieces with very different lifetimes cooperate here:

- :class:`HealthState` is *media state*.  It lives on the
  :class:`~repro.nvm.device.NVMDevice` object (``device.health``) as two
  planes of the device's medium block — one state byte per segment and a
  spare order — so it survives whatever the medium survives: an
  in-process simulated crash, ``NVMDevice.save()/load()`` and the death
  of a process-backend shard worker alike.  It records which physical
  segments are retired (ECP capacity exceeded — never place data there
  again), which are retiring (at ECP capacity — still readable, evacuate
  soon), which were reclaimed and which addresses are reserved spares.
- :class:`HealthManager` is *policy*.  One is created per
  :class:`~repro.nvm.controller.MemoryController` when verify-after-write
  is enabled; it mutates the device-resident state, fires the
  ``"health.retire"`` / ``"health.relocate"`` fault sites (through the
  device's injector) and maintains the DRAM relocation queue the storage
  layer drains.  Fault sites fire *before* the state mutation, so an
  injected crash models dying before the metadata write — exactly the
  window the crash-sweep harness probes.

Retirement contract (see README "Degraded mode"): a write whose
verify-after-write would need more ECP entries than the segment has left
raises :class:`SegmentRetiredError`; the placement engine quarantines the
address, adopts a spare when one is reserved, and retries.  Once spares
and free capacity are exhausted the KV store degrades to read-only.

Reclamation (see README "Capacity lifecycle"): a *retiring* segment whose
live value has been evacuated is not stranded — :meth:`HealthManager
.reclaim` moves it out of the retiring set and appends its address to the
spares list, marking it *reclaimed*.  A reclaimed segment is at ECP
capacity but every cell still reads correctly; it re-enters service as
spare-class capacity (the next :meth:`take_spare` hands it out) and dies
for real only when a later write exceeds its ECP budget.  ``mark_retiring``
is a no-op for reclaimed segments — they are *expected* to sit at capacity,
and re-queuing them on every write would relocate their values forever.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import MutableSet

import numpy as np

#: Segment state bytes: every segment is in exactly one state.
HEALTHY, RETIRING, RETIRED, RECLAIMED = range(4)


class SegmentRetiredError(RuntimeError):
    """A write failed verification beyond the segment's ECP capacity.

    The segment is retired: its address must be quarantined and the write
    retried elsewhere.  Carries the (first) failing physical segment on
    ``.segment``; a batched ``write_many`` additionally reports which
    rows retired on ``.rows`` and the per-row results (``None`` at
    retired rows) on ``.results`` — every other row stays written.
    """

    def __init__(
        self,
        segment: int,
        rows=(),
        results=(),
    ) -> None:
        super().__init__(
            f"segment {segment} exceeded its ECP correction capacity"
        )
        self.segment = segment
        self.rows = list(rows)
        self.results = list(results)


class HealthState:
    """Media-resident degradation bookkeeping (attached to the device) in
    two planes of its medium block: a state byte per segment, and per
    segment 0 or its stamp in the spare queue.  A transition is one or two
    plane stores, ordered so that a crash between them is harmless."""

    def __init__(self, states, spare_order, segment_size: int) -> None:
        self._states, self._order = states, spare_order
        self.segment_size = segment_size
        # Segments in any state but HEALTHY: the O(1) answer for a medium
        # with nothing retired yet.
        self._n_marked = int(np.count_nonzero(states))
        # Transitions come from foreground writes and maintenance rounds
        # at once; the count is a read-modify-write.
        self._lock = threading.Lock()
        #: Physical segments whose ECP capacity was exceeded; dead for
        #: placement, reads still served (the old data is intact
        #: because stuck cells hold exactly the bits they refused to flip).
        self.retired = _Segments(self, RETIRED)
        #: Physical segments at (but not beyond) ECP capacity: still
        #: correct, but the next new dead cell kills them — evacuate.
        self.retiring = _Segments(self, RETIRING)
        #: Segments that reached ECP capacity, were drained, and returned
        #: to service as spare-class capacity.  Kept so ``mark_retiring``
        #: knows not to re-queue them (they run at capacity by design).
        self.reclaimed = _Segments(self, RECLAIMED)
        #: Reserved spare segment addresses, handed out FIFO on retirement.
        self.spares = _Spares(self)

    def snapshot_arrays(self):
        """(retired, retiring, spares, reclaimed) as plain int lists for
        ``np.savez``."""
        return (
            sorted(self.retired),
            sorted(self.retiring),
            list(self.spares),
            sorted(self.reclaimed),
        )

    def restore_arrays(self, retired, retiring, spares, reclaimed) -> None:
        """Lay :meth:`snapshot_arrays` output onto a fresh medium."""
        for view, segments in zip(
            (self.retiring, self.reclaimed, self.retired),
            (retiring, reclaimed, retired),
        ):
            for segment in segments:
                view.add(int(segment))
        self.spares.extend(spares)


class _Segments(MutableSet):
    """The segments in one state, as a live set over the state plane."""

    _from_iterable = set  # ``|``, ``&`` and ``-`` build plain sets

    def __init__(self, health: HealthState, state: int) -> None:
        self._health, self._state = health, state

    def __contains__(self, segment) -> bool:
        health = self._health
        return health._n_marked > 0 and (
            0 <= segment < health._states.size
            and health._states[segment] == self._state
        )

    def __iter__(self):
        states = self._health._states
        return iter(np.flatnonzero(states == self._state).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._health._states == self._state))

    def add(self, segment: int) -> None:
        health = self._health
        with health._lock:
            health._n_marked += not health._states[segment]
            health._states[segment] = self._state

    def discard(self, segment: int) -> None:
        health = self._health
        with health._lock:
            if segment in self:
                health._states[segment] = HEALTHY
                health._n_marked -= 1


class _Spares:
    """The spare addresses in queue order, as a live view."""

    def __init__(self, health: HealthState) -> None:
        self._order, self._size = health._order, health.segment_size

    def __iter__(self):
        segments = np.flatnonzero(self._order)
        order = np.argsort(self._order[segments], kind="stable")
        return iter((segments[order] * self._size).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._order))

    def extend(self, addresses) -> None:
        for address in addresses:
            self._order[int(address) // self._size] = self._order.max() + 1

    def take(self) -> int | None:
        """Dequeue the oldest spare: its address, or ``None``."""
        if not self._order.any():
            return None
        stamps = np.where(self._order, self._order, self._order.max() + 1)
        return self.drop(int(np.argmin(stamps)))

    def drop(self, segment: int) -> int:
        """Take ``segment`` out of the queue: its address."""
        self._order[segment] = 0
        return segment * self._size


class HealthManager:
    """Retirement/relocation policy over a controller's device.

    Args:
        controller: the :class:`~repro.nvm.controller.MemoryController`
            whose verify path reports failures here.
        faults: optional fault injector; defaults to the device's.  Fires
            ``"health.retire"`` when a segment is retired and
            ``"health.relocate"`` is fired by the storage layer as it
            evacuates a value (see ``KVStore._relocate``).
    """

    def __init__(self, controller, faults=None) -> None:
        self.controller = controller
        self.device = controller.device
        self.state: HealthState = self.device.health
        self.faults = faults if faults is not None else self.device.faults
        # DRAM relocation queue: retiring segments with live data the
        # storage layer still has to move.  Rebuilt on recovery from the
        # persisted retiring set intersected with the live index.
        self._pending: deque[int] = deque()
        self._pending_set: set[int] = set()
        #: Duplicate enqueue attempts the idempotence guard dropped (the
        #: scrubber's repeat-offender escalation re-reports the same
        #: segment every round until it is drained).
        self.relocation_duplicates_dropped = 0
        #: Cumulative segments reclaimed into spare-class service.
        self.reclaimed_total = 0

    # ------------------------------------------------------------ transitions

    def retire(self, segment: int) -> None:
        """Mark ``segment`` failed.  Fires ``health.retire`` first: an
        injected crash at the site models dying before the metadata write,
        leaving the retirement to be rediscovered after recovery."""
        if segment in self.state.retired:
            return
        self._fire("health.retire")
        # A reclaimed (spare-class) segment that dies for real must not
        # linger in the spares, or the next activation would hand out dead
        # media.  Dropped first: a crash between the two stores leaves a
        # segment that is merely no spare.
        self.state.spares.drop(segment)
        self.state.retired.add(segment)
        if segment in self._pending_set:
            self._pending_set.discard(segment)
            try:
                self._pending.remove(segment)
            except ValueError:
                pass

    def mark_retiring(self, segment: int) -> None:
        """Queue a segment that just hit ECP capacity for evacuation.

        Reclaimed (spare-class) segments are exempt: they sit at ECP
        capacity *by design*, and re-queuing them on every write would
        evacuate-and-reclaim the same media forever."""
        if (
            segment in self.state.retired
            or segment in self.state.retiring
            or segment in self.state.reclaimed
        ):
            return
        self.state.retiring.add(segment)
        self.queue_relocation(segment)

    def queue_relocation(self, segment: int) -> None:
        """(Re-)enqueue a retiring segment for the storage layer to drain
        (recovery re-queues persisted retiring segments with live data).

        Idempotent: a segment already pending is dropped and counted on
        :attr:`relocation_duplicates_dropped` — the scrubber's
        repeat-offender escalation can report the same segment every round
        until the store drains it."""
        if segment in self._pending_set:
            self.relocation_duplicates_dropped += 1
            return
        self._pending_set.add(segment)
        self._pending.append(segment)

    def reclaim(self, segment: int) -> int | None:
        """Return a drained *retiring* segment to service as a spare.

        Fires the ``compact.reclaim`` site first (an injected crash models
        dying before the metadata write; recovery re-runs the reclaim,
        making it idempotent), then moves the segment out of the retiring
        set, marks it reclaimed and appends its address to the spares list.
        Returns the reclaimed address, or ``None`` when the segment is not
        retiring (already reclaimed/retired calls are no-ops)."""
        if segment not in self.state.retiring:
            return None
        self._fire("compact.reclaim")
        self.state.reclaimed.add(segment)
        addr = segment * self.controller.segment_size
        self.state.spares.extend([addr])
        self.reclaimed_total += 1
        if segment in self._pending_set:
            self._pending_set.discard(segment)
            try:
                self._pending.remove(segment)
            except ValueError:
                pass
        return addr

    def pop_pending_relocation(self) -> int | None:
        """Next retiring segment awaiting evacuation, or ``None``."""
        if not self._pending:
            return None
        segment = self._pending.popleft()
        self._pending_set.discard(segment)
        return segment

    def fire_relocate(self) -> None:
        """Hit the ``health.relocate`` site (called by the storage layer
        just before it rewrites an evacuated value)."""
        self._fire("health.relocate")

    # ---------------------------------------------------------------- spares

    def add_spares(self, addresses) -> None:
        """Register reserved spare addresses (persisted on the device)."""
        self.state.spares.extend(int(a) for a in addresses)

    def take_spare(self) -> int | None:
        """Hand out the next spare address, or ``None`` when exhausted."""
        return self.state.spares.take()

    @property
    def spares_left(self) -> int:
        return len(self.state.spares)

    # ------------------------------------------------------------- inspection

    def is_retired(self, segment: int) -> bool:
        return segment in self.state.retired

    def is_unplaceable(self, segment: int) -> bool:
        """Whether placement must never hand this segment out.

        Reclaimed segments are *placeable*: until adopted they are barred
        by the DAP quarantine like any reserved spare, and once adopted
        they serve writes normally (dying for real on ECP overflow)."""
        return (
            segment in self.state.retired or segment in self.state.retiring
        )

    @property
    def relocations_pending(self) -> int:
        """Segments currently queued for evacuation."""
        return len(self._pending)

    def telemetry(self) -> dict:
        """Degradation snapshot for monitoring and the lifetime benchmark."""
        device = self.device
        ecc = getattr(device, "ecc", None)
        n = device.n_segments
        dead = len(self.state.retired)
        return {
            "stuck_cells": device.stuck_cell_count(),
            "corrections_active": (
                ecc.corrections_active if ecc is not None else 0
            ),
            "segments_retired": dead,
            "segments_retiring": len(self.state.retiring),
            "segments_reclaimed": len(self.state.reclaimed),
            "segments_reclaimed_total": self.reclaimed_total,
            "spares_left": len(self.state.spares),
            "relocations_pending": len(self._pending),
            "relocation_duplicates_dropped": (
                self.relocation_duplicates_dropped
            ),
            "usable_capacity_fraction": (n - dead) / n if n else 0.0,
        }

    # -------------------------------------------------------------- internals

    def _fire(self, site: str) -> None:
        if self.faults is not None:
            self.faults.fire(site)
