"""Shard supervision: watchdog, self-healing restarts, circuit breakers.

PR 8 made shard crashes *isolated*; this module makes them *supervised*.
Real multi-channel controllers treat a channel fault as an event the
controller heals on its own — detect, reset, replay — not as something an
operator fixes by hand.  :class:`ShardSupervisor` is that loop for the
sharded store, running on the same single-flight
:class:`~repro.nvm.worker.MaintenanceWorker` machinery as the scrubber and
compactor:

- **Watchdog** — every shard worker ships a heartbeat (a monotonic stamp
  written ~10×/s from a daemon thread).  A worker whose heartbeat goes
  stale past ``heartbeat_timeout_s`` is *hung* — SIGSTOP'd, wedged in
  native code, or livelocked — and is killed from outside
  (``backend.kill_shard``: SIGTERM→SIGKILL; SIGKILL also reaps SIGSTOP'd
  processes).  Killing closes the worker's pipe, which wakes any
  in-flight RPC on that shard immediately.
- **Self-healing restarts** — a dead shard (crashed or freshly killed) is
  reopened automatically: a fresh worker adopts the surviving
  shared-memory media and runs ordinary catalog recovery.  Failed
  reopen attempts back off exponentially (:data:`BACKOFF_BASE_S` doubling
  up to :data:`BACKOFF_CAP_S`).
- **Restart budget + circuit breaker** — each instability episode gets at
  most ``restart_budget`` reopen attempts.  A shard that exhausts the
  budget trips its per-shard breaker to ``open``: the supervisor stops
  burning restarts on it, and the facade's degraded-mode routing
  (``ShardedKVStore``, policies ``fail_fast`` / ``partial``)
  skips it — reads on it answer as misses under ``partial``.  A shard
  that stays healthy for ``stable_after_s`` after a reopen has its
  episode counter reset.  ``reset(shard_id)`` closes the breaker by
  hand (operator intervention) and heals immediately.

The supervisor only needs the backend's ``shard_alive``,
``heartbeat_age``, ``kill_shard`` and ``reopen_shard``, stated once over
either transport: worker processes (real signals) or the caller's thread,
where :mod:`repro.testing.transport` simulates hangs and failed reopens.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.nvm.worker import MaintenanceWorker
from repro.sharding.backends import ShardUnavailableError

#: First retry delay after a failed reopen, and the ceiling it doubles up
#: to per further failure.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


class ShardCircuitOpenError(ShardUnavailableError):
    """The shard's circuit breaker is open: its restart budget is
    exhausted and the supervisor has stopped healing it.  Reads can be
    served as misses under the ``partial`` degraded policy;
    ``ShardSupervisor.reset(shard_id)`` re-arms healing."""

    def __init__(self, shard_ids: list[int]) -> None:
        super().__init__(
            shard_ids,
            f"shard(s) {sorted(shard_ids)} have an open circuit breaker "
            "(restart budget exhausted); ShardSupervisor.reset() re-arms "
            "healing",
        )


@dataclass
class ShardHealth:
    """Supervision state of one shard.

    ``breaker`` is ``"closed"`` (healthy / being healed) or ``"open"``
    (restart budget exhausted; shard parked until :meth:`reset`).
    """

    shard_id: int
    breaker: str = "closed"
    #: Reopen attempts in the *current* instability episode.
    attempts: int = 0
    #: Successful automatic reopens, lifetime.
    restarts: int = 0
    #: Watchdog kills (stale heartbeat), lifetime.
    watchdog_kills: int = 0
    #: Times the breaker tripped open, lifetime.
    breaker_trips: int = 0
    #: Monotonic instant the shard was first seen down this episode.
    down_since: float | None = None
    #: Monotonic instant of the last successful reopen.
    last_reopen_at: float = 0.0
    #: Earliest monotonic instant of the next reopen attempt (backoff).
    next_retry_at: float = 0.0
    last_error: str | None = None
    #: Seconds from fault detection to healthy, one entry per recovery.
    recovery_times_s: list[float] = field(default_factory=list)

    def snapshot(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "breaker": self.breaker,
            "attempts": self.attempts,
            "restarts": self.restarts,
            "watchdog_kills": self.watchdog_kills,
            "breaker_trips": self.breaker_trips,
            "down": self.down_since is not None,
            "last_error": self.last_error,
            "recovery_times_s": list(self.recovery_times_s),
        }


class ShardSupervisor(MaintenanceWorker):
    """Self-healing supervision loop over a ``ShardedKVStore``.

    Args:
        store: the facade to supervise; the supervisor registers itself
            via ``store.attach_supervisor`` so degraded-mode routing can
            consult breaker state.
        interval_s: sleep between supervision rounds.
        heartbeat_timeout_s: heartbeat staleness past which a live worker
            is declared hung and killed.  Must comfortably exceed the
            worker's stamp period (~0.05 s) and the longest stretch a
            healthy worker may go without scheduling its beat thread.
        restart_budget: reopen attempts per instability episode before
            the breaker trips.
        stable_after_s: a shard alive this long after its last reopen has
            its episode counter reset (the next fault starts a fresh
            budget).
        auto_start: start the background loop immediately.
    """

    def __init__(
        self,
        store,
        *,
        interval_s: float = 0.05,
        heartbeat_timeout_s: float = 1.0,
        restart_budget: int = 3,
        stable_after_s: float = 5.0,
        auto_start: bool = False,
    ) -> None:
        if restart_budget < 1:
            raise ValueError("restart_budget must be >= 1")
        if heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        super().__init__(interval_s=interval_s, name="shard-supervisor")
        self.store = store
        self.backend = store.backend
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.restart_budget = restart_budget
        self.stable_after_s = stable_after_s
        self.health = [
            ShardHealth(shard_id) for shard_id in range(store.n_shards)
        ]
        # run_once may be driven both by the background loop and inline
        # (await_healthy, tests); one round at a time.
        self._round_lock = threading.Lock()
        store.attach_supervisor(self)
        if auto_start:
            self.start()

    # ------------------------------------------------------------- queries

    def breaker_open(self, shard_id: int) -> bool:
        return self.health[shard_id].breaker == "open"

    def open_breakers(self) -> list[int]:
        return [h.shard_id for h in self.health if h.breaker == "open"]

    def healthy(self) -> bool:
        """All shards alive with closed breakers."""
        return all(
            h.breaker == "closed" and self.backend.shard_alive(h.shard_id)
            for h in self.health
        )

    def await_healthy(self, timeout: float = 30.0) -> bool:
        """Block (polling) until :meth:`healthy` or ``timeout``; runs
        supervision rounds inline so callers need not wait for the
        background cadence."""
        deadline = time.monotonic() + timeout
        while True:
            self.run_once()
            if self.healthy():
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(min(self.interval_s, 0.05))

    def await_shards(self, shard_ids, timeout: float = 30.0) -> bool:
        """Block (polling, supervision rounds inline) until every shard
        in ``shard_ids`` is alive with a closed breaker, or ``timeout``.
        The rebalancer's pause/resume hook: a drain blocked on a downed
        source or target waits on exactly those shards, not fleet-wide
        health."""
        wanted = sorted(set(shard_ids))
        deadline = time.monotonic() + timeout
        while True:
            self.run_once()
            if all(
                self.health[s].breaker == "closed"
                and self.backend.shard_alive(s)
                for s in wanted
            ):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(min(self.interval_s, 0.05))

    def telemetry(self) -> dict:
        recoveries = [
            t for h in self.health for t in h.recovery_times_s
        ]
        return {
            "restarts": sum(h.restarts for h in self.health),
            "watchdog_kills": sum(h.watchdog_kills for h in self.health),
            "breaker_trips": sum(h.breaker_trips for h in self.health),
            "open_breakers": self.open_breakers(),
            "recovery_count": len(recoveries),
            "recovery_time_mean_s": (
                sum(recoveries) / len(recoveries) if recoveries else 0.0
            ),
            "recovery_time_max_s": max(recoveries, default=0.0),
            "shards": [h.snapshot() for h in self.health],
        }

    # ------------------------------------------------------------- healing

    def reset(self, shard_id: int) -> None:
        """Operator override: close the breaker, zero the episode budget
        and heal the shard now if it is down."""
        health = self.health[shard_id]
        health.breaker = "closed"
        health.attempts = 0
        health.next_retry_at = 0.0
        if not self.backend.shard_alive(shard_id):
            self._try_reopen(health, time.monotonic())

    def run_once(self) -> None:
        """One supervision round over every shard."""
        with self._round_lock:
            now = time.monotonic()
            for health in self.health:
                self._supervise(health, now)

    def _supervise(self, health: ShardHealth, now: float) -> None:
        shard_id = health.shard_id
        if health.breaker == "open":
            return
        if self.backend.shard_alive(shard_id):
            if (
                self.backend.heartbeat_age(shard_id)
                > self.heartbeat_timeout_s
            ):
                # Hung (SIGSTOP'd, wedged, livelocked): kill from outside.
                # The closed pipe wakes any in-flight RPC immediately; the
                # reopen below (or a later round) heals the shard.
                self.backend.kill_shard(shard_id, hung=True)
                health.watchdog_kills += 1
                health.last_error = "heartbeat stale; worker killed"
            else:
                if (
                    health.attempts
                    and now - health.last_reopen_at >= self.stable_after_s
                ):
                    health.attempts = 0  # episode over: budget refills
                return
        if health.down_since is None:
            health.down_since = now
        if now < health.next_retry_at:
            return
        if health.attempts >= self.restart_budget:
            health.breaker = "open"
            health.breaker_trips += 1
            health.last_error = (
                f"restart budget ({self.restart_budget}) exhausted; "
                "breaker open"
            )
            return
        self._try_reopen(health, now)

    def _try_reopen(self, health: ShardHealth, now: float) -> None:
        health.attempts += 1
        try:
            self.backend.reopen_shard(health.shard_id)
        except Exception as exc:  # noqa: BLE001 - supervision must survive
            health.last_error = repr(exc)
            backoff = min(
                BACKOFF_CAP_S,
                BACKOFF_BASE_S * (2 ** (health.attempts - 1)),
            )
            health.next_retry_at = now + backoff
        else:
            if health.down_since is not None:
                health.recovery_times_s.append(
                    time.monotonic() - health.down_since
                )
            health.down_since = None
            health.last_reopen_at = time.monotonic()
            health.next_retry_at = 0.0
            health.restarts += 1
            health.last_error = None
