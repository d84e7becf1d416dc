"""Deterministic fault injection for resilience testing.

The write/retrain path is instrumented with named *fault sites* — e.g.
``"train.fit"`` just before a candidate model is fitted, ``"train.relabel"``
inside the atomic pool swap, ``"device.write"`` ahead of the media write.
A :class:`FaultInjector` armed on a site can raise a configurable error,
sleep (a "slow fit"), or both, a bounded number of times.  This is how the
recovery paths — pool restore, deferred retrain, write un-claim — are
actually exercised by the test suite rather than merely existing.

Instrumented code calls ``injector.fire(site)``; the call is a no-op for
sites that are not armed, and engines without an injector skip the call
entirely, so production hot paths pay nothing.

Crash-consistency testing builds on two extensions:

- :class:`CrashError` models *process death*.  It derives from
  ``BaseException`` so ordinary ``except Exception`` cleanup handlers do
  not treat it as a recoverable error, and the KV store deliberately
  skips its failure cleanup when it sees one — the media is left exactly
  as it was at the crash point, as on a real power failure.
- *Torn writes*: a rule armed with ``torn_fraction`` acts on write-capable
  sites (those passing ``payload_writer``/``payload_len`` to
  :meth:`FaultInjector.fire`) by first persisting only a prefix of the
  payload bytes and then raising, modelling a write interrupted mid-flight
  at the device.

Usage::

    faults = FaultInjector()
    faults.arm("train.fit", error=FaultError("fit exploded"), times=1)
    engine.faults = faults
    ...
    with faults.injected("device.write", error=OSError("media error")):
        engine.write(value)   # raises OSError, address un-claimed

    # Crash with a torn media write at the 3rd catalog row of a commit:
    faults.arm("catalog.write", error=CrashError, after=2, torn_fraction=0.5)
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


class FaultError(RuntimeError):
    """Default exception raised by an armed fault site."""


class CrashError(BaseException):
    """Simulated process death at a fault site.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so that
    library code catching ``Exception`` for cleanup does not swallow it:
    after a crash there is no process left to clean up.  Crash harnesses
    catch it at the top level, discard every DRAM object, and re-open the
    store from the media alone.
    """


@dataclass
class FaultRule:
    """Behaviour of one armed fault site.

    Attributes:
        site: the fault-site name the rule is armed on.
        error: exception instance or class to raise when the rule acts;
            ``None`` means the rule only delays.
        delay: seconds to sleep when the rule acts (a "slow" site).
        after: number of hits to let through untouched before acting.
        times: maximum number of times the rule acts (``None`` = forever).
        torn_fraction: when acting on a write-capable site, persist this
            fraction of the payload bytes (rounded down) before raising —
            a device-level torn write.  ``None`` tears nothing.
        torn_bytes: like ``torn_fraction`` but an exact byte count (capped
            at the payload length); byte-by-byte sweeps use it.
        payload_len: size of the payload the rule last tore (so a sweep
            knows when ``torn_bytes`` has covered the whole payload).
    """

    site: str
    error: BaseException | type[BaseException] | None = None
    delay: float = 0.0
    after: int = 0
    times: int | None = 1
    torn_fraction: float | None = None
    torn_bytes: int | None = None
    payload_len: int = field(default=0, init=False)
    hits: int = field(default=0, init=False)
    fired: int = field(default=0, init=False)
    torn_writes: int = field(default=0, init=False)

    def _take(self) -> bool:
        """Record a hit; return True when the rule should act on it."""
        self.hits += 1
        if self.hits <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        self.fired += 1
        return True

    def _raise(self) -> None:
        if self.error is None:
            return
        if isinstance(self.error, BaseException):
            raise self.error
        raise self.error(f"injected fault at {self.site!r}")


class FaultInjector:
    """Thread-safe registry of armed fault sites.

    Every :meth:`fire` call is counted per site (armed or not), so tests can
    also assert that an instrumented point was actually reached.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rules: dict[str, FaultRule] = {}
        self._site_hits: dict[str, int] = {}

    def arm(
        self,
        site: str,
        *,
        error: BaseException | type[BaseException] | None = None,
        delay: float = 0.0,
        after: int = 0,
        times: int | None = 1,
        torn_fraction: float | None = None,
        torn_bytes: int | None = None,
    ) -> FaultRule:
        """Arm ``site``; the next ``fire(site)`` (after ``after`` skips)
        sleeps ``delay`` seconds and raises ``error``, up to ``times`` times.
        With ``torn_fraction`` (or ``torn_bytes``) set, a write-capable site
        first persists that fraction (that many bytes) of its payload — a
        torn write — before the error is raised.

        Arming a site that carries no ``error`` and no ``delay`` raises
        ``ValueError`` — such a rule could never act.
        """
        if delay < 0.0:
            raise ValueError("delay must be non-negative")
        if error is None and delay == 0.0:
            raise ValueError("a fault rule needs an error, a delay, or both")
        if after < 0:
            raise ValueError("after must be non-negative")
        if times is not None and times <= 0:
            raise ValueError("times must be positive (or None for forever)")
        if torn_fraction is not None and not 0.0 <= torn_fraction <= 1.0:
            raise ValueError("torn_fraction must be in [0, 1]")
        if torn_bytes is not None and torn_bytes < 0:
            raise ValueError("torn_bytes must be non-negative")
        rule = FaultRule(
            site,
            error=error,
            delay=delay,
            after=after,
            times=times,
            torn_fraction=torn_fraction,
            torn_bytes=torn_bytes,
        )
        with self._lock:
            self._rules[site] = rule
        return rule

    def disarm(self, site: str) -> None:
        """Remove the rule on ``site`` (no-op when not armed)."""
        with self._lock:
            self._rules.pop(site, None)

    def reset(self) -> None:
        """Disarm every site and clear all hit counters."""
        with self._lock:
            self._rules.clear()
            self._site_hits.clear()

    def armed(self, site: str) -> bool:
        """Whether ``site`` currently has a rule."""
        with self._lock:
            return site in self._rules

    def hits(self, site: str) -> int:
        """How many times ``fire(site)`` has been called (armed or not)."""
        with self._lock:
            return self._site_hits.get(site, 0)

    def fired(self, site: str) -> int:
        """How many times the rule on ``site`` has acted."""
        with self._lock:
            rule = self._rules.get(site)
            return rule.fired if rule is not None else 0

    @contextlib.contextmanager
    def injected(self, site: str, **kwargs):
        """Context manager: arm ``site`` on entry, disarm on exit."""
        rule = self.arm(site, **kwargs)
        try:
            yield rule
        finally:
            self.disarm(site)

    def fire(
        self,
        site: str,
        *,
        payload_len: int = 0,
        payload_writer: Callable[[int], None] | None = None,
    ) -> None:
        """Hit ``site``: sleep and/or raise when an armed rule says so.

        Write-capable sites pass the size of the bytes about to hit the
        media (``payload_len``) and a ``payload_writer`` callback that,
        given ``n``, persists exactly the first ``n`` payload bytes.  A rule
        armed with ``torn_fraction`` uses them to model a torn write: the
        prefix is persisted, then the rule's error (typically
        :class:`CrashError`) is raised before the rest ever lands.
        """
        with self._lock:
            self._site_hits[site] = self._site_hits.get(site, 0) + 1
            rule = self._rules.get(site)
            act = rule._take() if rule is not None else False
        if not act:
            return
        # Sleep outside the lock so a slow site never blocks other sites.
        if rule.delay > 0.0:
            time.sleep(rule.delay)
        tears = rule.torn_fraction is not None or rule.torn_bytes is not None
        if tears and payload_writer is not None and payload_len > 0:
            if rule.torn_bytes is not None:
                keep = rule.torn_bytes
            else:
                keep = int(payload_len * rule.torn_fraction)
            if keep > 0:
                payload_writer(min(keep, payload_len))
            rule.torn_writes += 1
            rule.payload_len = payload_len
        rule._raise()
