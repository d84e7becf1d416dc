"""Shared base for background media-maintenance workers.

The scrubber (read-side drift repair) and the compactor (write-side
capacity reclamation) run the same kind of loop: a single-flight,
pause/resume-able, exception-safe daemon thread that performs one bounded
"round" of maintenance per wakeup.  :class:`MaintenanceWorker` factors
that loop out so both share one tested implementation:

- **single-flight**: :meth:`start` is idempotent — a running worker's
  thread is returned instead of starting a second one;
- **pause/resume**: :meth:`pause` gates the loop (at most the in-flight
  round completes) without killing the thread; :meth:`resume` lifts it.
  A pause issued before start is honoured — the worker comes up gated;
- **exception-safe**: a failing round is counted on
  ``stats.worker_errors`` and the loop keeps going.  Maintenance must
  never take the store down.

Subclasses implement :meth:`run_once` (one rate-limited round, counted
on ``stats.rounds``) and may replace :attr:`stats` with a
:class:`WorkerStats` subclass carrying their own counters;
:meth:`MaintenanceWorker.telemetry` reports whatever fields it has.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass


@dataclass
class WorkerStats:
    """Counters every maintenance worker keeps."""

    #: Rounds completed without raising.
    rounds: int = 0
    #: Rounds that raised; the loop kept going.
    worker_errors: int = 0


class MaintenanceWorker:
    """Single-flight, pausable, exception-safe background round-runner.

    Args:
        interval_s: sleep between rounds.
        name: the worker thread's name (diagnostics).
    """

    def __init__(self, *, interval_s: float, name: str) -> None:
        self.interval_s = interval_s
        self.name = name
        self.last_error: BaseException | None = None
        self.stats = WorkerStats()
        self._admin_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._resume = threading.Event()
        self._resume.set()

    # ------------------------------------------------------------- the round

    def run_once(self):
        """One bounded round of maintenance; subclasses implement it."""
        raise NotImplementedError

    # ------------------------------------------------------- background loop

    def start(self) -> threading.Thread:
        """Start the single-flight background worker (idempotent: a
        running worker's thread is returned instead of starting another).
        """
        with self._admin_lock:
            if self._thread is not None and self._thread.is_alive():
                return self._thread
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._worker, daemon=True, name=self.name
            )
            self._thread.start()
            return self._thread

    def stop(self, timeout: float | None = 5.0) -> None:
        """Stop the background worker and join it."""
        with self._admin_lock:
            thread = self._thread
            self._stop.set()
            self._resume.set()  # unblock a paused worker so it can exit
        if thread is not None:
            thread.join(timeout)

    def pause(self) -> None:
        """Gate the worker: at most the in-flight round completes, then the
        loop blocks until :meth:`resume` (the thread stays alive)."""
        self._resume.clear()

    def resume(self) -> None:
        """Lift a :meth:`pause`."""
        self._resume.set()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def paused(self) -> bool:
        return not self._resume.is_set()

    def telemetry(self) -> dict:
        """Picklable snapshot: every field of :attr:`stats` plus the loop
        state."""
        return {
            **asdict(self.stats),
            "name": self.name,
            "running": self.running,
            "paused": self.paused,
            "last_error": (
                repr(self.last_error) if self.last_error is not None else None
            ),
        }

    def _worker(self) -> None:
        """Exception-safe maintenance loop: a failing round is recorded
        (``last_error``, ``stats.worker_errors``) and the loop keeps
        going."""
        while not self._stop.is_set():
            self._resume.wait()
            if self._stop.is_set():
                return
            try:
                self.run_once()
            except Exception as exc:  # noqa: BLE001 - isolation by design
                self.last_error = exc
                self.stats.worker_errors += 1
            self._stop.wait(self.interval_s)
