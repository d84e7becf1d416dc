"""Simulated shard faults: a transport wrapper installed over a built store.

:class:`FaultyTransport` wraps one shard's transport (see
:mod:`repro.sharding.backends`) and adds what a test cannot produce on
demand otherwise: a hang (:meth:`~FaultyTransport.hang`) and failing
reopens (:meth:`~FaultyTransport.fail_restarts`).  A crash needs no
wrapper — ``store.backend.kill_shard(shard_id)`` leaves the state a
worker's death leaves.  The rest passes through, so the wrapper works
over the direct transport (tier-1) and the pipe one (real workers) alike.
"""

from __future__ import annotations

import time

from repro.sharding.backends import DeadlineMissed


class FaultyTransport:
    """One shard's transport with simulated hang and restart faults."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self._hang_since: float | None = None
        self._restart_failures = 0

    @classmethod
    def install(cls, store, shard_id: int) -> "FaultyTransport":
        """Wrap ``store``'s transport of ``shard_id`` and return the
        wrapper."""
        transports = store.backend.transports
        wrapper = transports[shard_id] = cls(transports[shard_id])
        return wrapper

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def hang(self) -> None:
        """Wedge the shard until it is killed: its heartbeat goes stale
        from now, requests go unread, and the next reply wait misses its
        deadline (so the backend kills it, as it kills a real worker)."""
        self._hang_since = time.monotonic()

    def fail_restarts(self, times: int) -> None:
        """Make the next ``times`` restarts (reopen attempts) raise."""
        self._restart_failures = times

    def send(self, request) -> None:
        if self._hang_since is None:  # a wedged shard reads nothing
            self.inner.send(request)

    def recv(self, deadline: float | None):
        if self._hang_since is not None:
            raise DeadlineMissed
        return self.inner.recv(deadline)

    def heartbeat_age(self) -> float:
        if self._hang_since is None:
            return self.inner.heartbeat_age()
        return time.monotonic() - self._hang_since

    def kill(self) -> None:
        self._hang_since = None
        self.inner.kill()

    def restart(self) -> None:
        if self._restart_failures > 0:
            self._restart_failures -= 1
            raise RuntimeError("injected restart failure")
        self.inner.restart()
