"""Background retention scrubber: the read-side mirror of verify-after-write.

Resistance drift corrupts data *at rest* — a value written correctly decays
into flipped bits long after the write verified clean.  Real PCM systems
run a scrub loop that margin-reads cells, detects drifted ones and
re-programs them before enough accumulate to defeat correction (DATACON's
periodic refresh, SoftWear's software-only media management).  This module
is that loop for the simulated store:

- :meth:`Scrubber.scrub_segment` margin-reads one live segment
  (``controller.drift_mask``), refresh-writes the true content back through
  the normal DCW write path (:meth:`MemoryController.refresh`) — so scrub
  cost lands in the same energy/endurance accounting as any other write —
  and verifies the healed value against its catalog CRC;
- :meth:`Scrubber.scrub_round` walks live segments in wear/age-priority
  order (most-worn, least-recently-scrubbed first), bounded by
  ``segments_per_round`` — the *rate limit* that keeps scrub bandwidth from
  starving foreground traffic;
- :meth:`Scrubber.start` runs rounds on a single-flight, pause/resume-able,
  exception-safe background worker (the shared
  :class:`~repro.nvm.worker.MaintenanceWorker` loop, also used by the
  compactor): a failing round is counted and the worker keeps going, and
  ``pause()``/``resume()`` gate the loop without killing the thread;
- repeat offenders — segments that keep accumulating drift, or whose value
  stays CRC-broken after a refresh — are escalated to
  ``HealthManager.queue_relocation`` so the store evacuates them onto
  healthier media.

The scrubber is duck-typed over the store (index/validity mirrors and the
catalog CRC map) to keep the ``nvm`` layer import-free of ``core``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.nvm.health import SegmentRetiredError
from repro.nvm.worker import MaintenanceWorker
from repro.util.bits import popcount_array

#: A segment found drifted in this many *consecutive* scrubs is escalated
#: to ``HealthManager.queue_relocation``: a repeat offender decays faster
#: than scrub can cheaply keep up, and moving the value is the durable fix.
ESCALATE_AFTER = 3


@dataclass
class ScrubStats:
    """Cumulative scrubber telemetry (see :meth:`Scrubber.telemetry`)."""

    rounds: int = 0
    segments_scanned: int = 0
    bits_healed: int = 0
    refresh_writes: int = 0
    corruptions_found: int = 0
    escalations: int = 0
    worker_errors: int = 0
    #: Live segments the last round could *not* reach under its rate
    #: limit — a growing backlog means scrub bandwidth is undersized for
    #: the drift rate.
    backlog: int = 0


class Scrubber(MaintenanceWorker):
    """Rate-limited background scrub worker over a :class:`KVStore`.

    Args:
        store: the KV store whose live segments to scrub; the scrubber
            registers itself via ``store.attach_scrubber`` so CRC-failed
            reads can request a targeted synchronous scrub.
        segments_per_round: rate limit — live segments refreshed per round.
        interval_s: sleep between background rounds.
        faults: optional fault injector; when set, the write-capable
            ``"scrub.refresh"`` site fires before every refresh write.
            Defaults to the device's injector.
    """

    def __init__(
        self,
        store,
        *,
        segments_per_round: int = 8,
        interval_s: float = 0.005,
        faults=None,
    ) -> None:
        if segments_per_round <= 0:
            raise ValueError("segments_per_round must be positive")
        super().__init__(interval_s=interval_s, name="scrubber")
        self.store = store
        self.controller = store.engine.controller
        self.device = self.controller.device
        self.segments_per_round = segments_per_round
        self.faults = faults if faults is not None else self.device.faults
        self.stats = ScrubStats()
        # Scrub-order bookkeeping: per-segment "last scrubbed" round
        # counter and consecutive-drifty-scrub counts for escalation.
        self._round_counter = 0
        self._last_scrubbed: dict[int, int] = {}
        self._dirty_streak: dict[int, int] = {}
        store.attach_scrubber(self)

    # ------------------------------------------------------------- scrubbing

    def scrub_segment(self, segment: int) -> int:
        """Scrub one live segment: margin-read its drift, refresh-write the
        true content, verify the healed value against its CRC.  Returns
        the number of drifted bits healed (0 when the segment is no longer
        live or holds no drift *and* needs no verification).

        Safe against concurrent PUT/relocation: liveness is re-checked
        from the store's mirrors, and refreshing a segment that was freed
        mid-flight merely rewrites bytes nobody reads.
        """
        addr = segment * self.controller.segment_size
        live = self.store._live.get(addr)
        if live is None:
            return 0
        entry = self.store.index.get(live[0])
        if entry is None or entry[0] != addr:
            return 0
        length = entry[1]
        drifted = popcount_array(self.controller.drift_mask(addr, length))
        if self.faults is not None:
            self.faults.fire("scrub.refresh")
        try:
            healed = self.controller.refresh(addr, length)
        except SegmentRetiredError:
            # The refresh write itself retired the segment (its ECP ran
            # out): the value stays readable in place; hand it to the
            # relocation queue and move on.
            self._escalate(segment)
            return 0
        self.stats.refresh_writes += 1
        self.stats.bits_healed += healed

        live = self.store._live.get(addr)
        if live is not None and live[1] is not None:
            value = self.controller.read(addr, length)
            if zlib.crc32(value) & 0xFFFFFFFF != live[1]:
                # Refresh could not restore the recorded bytes: real
                # corruption, not drift.  Count it and escalate — reads of
                # this key will raise CorruptValueError.
                self.stats.corruptions_found += 1
                self._escalate(segment)

        streak = self._dirty_streak.get(segment, 0) + 1 if drifted else 0
        self._dirty_streak[segment] = streak
        if streak >= ESCALATE_AFTER:
            self._dirty_streak[segment] = 0
            self._escalate(segment)
        return healed

    def scrub_round(self) -> dict:
        """One rate-limited pass: scrub up to ``segments_per_round`` live
        segments in wear/age-priority order.  Returns a summary dict."""
        self._round_counter += 1
        live = [
            addr // self.controller.segment_size
            for addr in list(self.store._live)
        ]
        wear = self.device.segment_write_count
        # Least-recently-scrubbed first; ties broken toward the most worn
        # segment (wear accelerates drift), then by index for determinism.
        live.sort(
            key=lambda seg: (
                self._last_scrubbed.get(seg, -1),
                -int(wear[seg]),
                seg,
            )
        )
        chosen = live[: self.segments_per_round]
        healed = 0
        for seg in chosen:
            healed += self.scrub_segment(seg)
            self._last_scrubbed[seg] = self._round_counter
            self.stats.segments_scanned += 1
        self.stats.rounds += 1
        self.stats.backlog = len(live) - len(chosen)
        return {
            "round": self._round_counter,
            "segments_scrubbed": len(chosen),
            "bits_healed": healed,
            "backlog": self.stats.backlog,
        }

    def _escalate(self, segment: int) -> None:
        health = self.controller.health_manager
        if health is None:
            return
        health.queue_relocation(segment)
        self.stats.escalations += 1

    # ------------------------------------------------------- background loop

    def run_once(self) -> dict:
        """One background round (the :class:`MaintenanceWorker` hook)."""
        return self.scrub_round()

    def _note_worker_error(self, exc: BaseException) -> None:
        super()._note_worker_error(exc)
        self.stats.worker_errors += 1

    # ------------------------------------------------------------- telemetry

    def telemetry(self) -> dict:
        """Cumulative scrub counters plus worker state."""
        return {
            "rounds": self.stats.rounds,
            "segments_scanned": self.stats.segments_scanned,
            "bits_healed": self.stats.bits_healed,
            "refresh_writes": self.stats.refresh_writes,
            "corruptions_found": self.stats.corruptions_found,
            "escalations": self.stats.escalations,
            "worker_errors": self.stats.worker_errors,
            "backlog": self.stats.backlog,
            "running": self.running,
            "paused": self.paused,
        }
