"""The durability contract, stated once — and the one crash-point loop.

Every fault harness in this package (crash sweeps, the wear-leveling
sweep, the chaos drill, the rebalance sweep and storm, the Hypothesis
state machine) asks the same question after a fault: *may a read return
this?*  :class:`DurabilityModel` is the only place that answers it.  It
is a dict-backed reference store that records acknowledgements and holds
the operation a fault interrupted with the **strength** the
configuration under test promises for un-acknowledged work:

- ``exact`` — un-acked ⇒ absent.  A scalar PUT or DELETE is one slot
  write, and every deterministic fault site on one store fires before it
  is whole: nothing of it may be visible.
- ``prefix`` — some prefix of an ordered batch.  ``put_many`` publishes
  its pairs as one batch, and recovery trims an interrupted batch at its
  first missing slot, so a crash leaves a batch-order prefix.
- ``either`` — per key, old or new.  A SIGKILL lands between any two
  instructions, also after the commit and before the reply, and a batch
  spanning shards commits on the survivors: each un-acked key holds its
  old value or any value written to it since, until an acknowledged
  write settles it.
- ``unspecified`` — the raw-device contract (no transaction above): the
  keys being written may hold anything, every other key must be exact.

Content-neutral operations — aging, drift ticks, scrub rounds,
compaction, ``wl.swap``, relocation, a rebalance drain — move bytes, not
contents, so the model has no transition for them: a harness that runs
one simply does not tell the model, and any visible effect is a finding.

:func:`sweep_crash_points` is the other shared half: the only
baseline-count → arm ``(site, k, tear)`` → replay → recover loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.testing.faults import CrashError, FaultInjector

EXACT, PREFIX, EITHER, UNSPECIFIED = STRENGTHS = (
    "exact", "prefix", "either", "unspecified",
)

#: Fraction of its payload a torn crash point persists.
TORN_FRACTION = 0.5


@dataclass(frozen=True)
class Finding:
    """One key whose read-back the model does not allow.

    ``kind`` says what went wrong: ``"lost"`` — an acknowledged write is
    not visible (the key is gone or reads a superseded value);
    ``"phantom"`` — something is visible that must not be (an un-acked
    write beyond what the strength allows, a deleted or never-written key,
    a copy on a shard that does not own the key); ``"corrupt"`` — bytes
    nobody ever wrote under that key.
    """

    kind: str
    key: object
    got: object
    allowed: tuple

    def __str__(self) -> str:
        return (
            f"{self.kind}: key {self.key!r} reads {self.got!r}, the model "
            f"allows {self.allowed!r}"
        )


class DurabilityModel:
    """Reference store: acknowledged contents plus what is in flight.

    A harness brackets every mutating call with :meth:`begin` (the pairs
    it is about to write, ``None`` for a delete, and the strength the
    configuration promises) and :meth:`ack` (the call returned); a call
    the store refuses outright is taken back with :meth:`abort`.  After a
    fault, :meth:`check` judges what the recovered store serves, and
    :meth:`settle` additionally adopts it so the run can go on.
    """

    def __init__(self, acked=()) -> None:
        #: The acknowledged contents, ``key → value``.
        self.acked: dict = dict(acked)
        self._in_flight: list[tuple] = []
        self._strength = EXACT
        #: ``either`` leftovers: un-acked values that may have landed.
        self._maybe: dict = {}
        #: Every value ever submitted per key — classification only.
        self._written: dict = {k: {v} for k, v in self.acked.items()}

    def keys(self) -> set:
        """Every key the model has an opinion on (acked or uncertain)."""
        return {*self.acked, *self._maybe, *(k for k, _ in self._in_flight)}

    def begin(self, items, strength: str = EXACT) -> None:
        """``items`` — ordered ``(key, value)`` pairs, ``None`` deleting —
        are about to be submitted under ``strength``."""
        if strength not in STRENGTHS:
            raise ValueError(f"unknown strength {strength!r}")
        if self._in_flight:
            raise RuntimeError("an operation is already in flight")
        self._in_flight = [(key, value) for key, value in items]
        self._strength = strength
        for key, value in self._in_flight:
            self._written.setdefault(key, set()).add(value)
            if strength == EITHER:  # uncertain from the moment it is sent
                self._maybe.setdefault(key, set()).add(value)

    def ack(self, outcomes=None) -> int:
        """The in-flight call returned: its items are acknowledged.  With
        ``outcomes`` (a degraded-mode ``BatchReport.outcomes``; ``either``
        only) just the ``"ok"`` ones are — the rest may or may not have
        landed and stay uncertain until an acknowledged write to the same
        key.  Returns how many items were acknowledged."""
        if outcomes is not None and self._strength != EITHER:
            raise ValueError("per-item outcomes need the 'either' strength")
        acked = 0
        for i, (key, value) in enumerate(self._in_flight):
            if outcomes is None or outcomes[i] == "ok":
                _apply(self.acked, key, value)
                self._maybe.pop(key, None)
                acked += 1
        self._in_flight = []
        return acked

    def abort(self) -> None:
        """The store refused the in-flight call before touching anything."""
        self._in_flight = []

    def check(self, contents, owns=None) -> list[Finding]:
        """Judge ``contents`` — ``key → value`` as read back, absent keys
        missing or ``None`` — against everything the model allows; returns
        the findings (empty = the contract holds).

        ``owns`` restricts the model to one shard's share: keys it
        rejects must be absent from ``contents`` whatever their value —
        exactly-once placement is "each shard serves the model restricted
        to the keys it owns".

        Under ``prefix`` every prefix of the in-flight batch is a
        candidate state; the findings reported are those against the
        closest one.
        """
        contents = {k: v for k, v in dict(contents).items() if v is not None}
        states, maybe, exempt = [self.acked], self._maybe, set()
        if self._strength == PREFIX:
            for key, value in self._in_flight:
                states.append(dict(states[-1]))
                _apply(states[-1], key, value)
        elif self._strength == UNSPECIFIED:
            exempt = {key for key, _ in self._in_flight}
        best = None
        for state in states:
            findings = []
            for key in sorted({*state, *maybe, *contents} - exempt):
                allowed = {None}
                if owns is None or owns(key):
                    allowed = {state.get(key), *maybe.get(key, ())}
                got = contents.get(key)
                if got not in allowed:
                    findings.append(Finding(
                        self._classify(key, got, allowed), key, got,
                        tuple(allowed),
                    ))
            if not findings:
                return []
            if best is None or len(findings) < len(best):
                best = findings
        return best

    def _classify(self, key, got, allowed) -> str:
        if got is None:
            return "lost"
        if allowed == {None}:
            return "phantom"
        if got not in self._written.get(key, ()):
            return "corrupt"
        if (key, got) in self._in_flight:
            return "phantom"
        return "lost"

    def settle(self, contents) -> list[Finding]:
        """:meth:`check` what a *recovered* store serves, then adopt it as
        the acknowledged state: once read back after recovery it is
        durable, so every in-flight and uncertain write is resolved to
        what was observed."""
        findings = self.check(contents)
        self.acked = {k: v for k, v in dict(contents).items() if v is not None}
        self._in_flight, self._maybe = [], {}
        return findings


def _apply(state: dict, key, value) -> None:
    if value is None:
        state.pop(key, None)
    else:
        state[key] = value


@dataclass
class CrashSweepReport:
    """Outcome of one :func:`sweep_crash_points` run."""

    #: Baseline firings per swept site, store set-up excluded.
    site_hits: dict[str, int] = field(default_factory=dict)
    crash_points: int = 0
    torn_points: int = 0
    #: Replays whose armed point never fired or that died otherwise (each
    #: is also a failure: a deterministic replay hits every counted point).
    clean_replays: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def sweep_crash_points(
    build,
    drive,
    recover_and_check,
    sites,
    torn_sites=(),
    torn_byte_sites=(),
) -> CrashSweepReport:
    """Crash a deterministic workload at every firing of every site.

    Args:
        build: ``build(faults) -> state`` — a byte-identical fresh system
            wired to the injector.  What fires during set-up is not a
            crash point (formatting fresh media is not a recovery
            scenario).
        drive: ``drive(state)`` — run the workload; the armed
            :class:`CrashError` propagates out of it.
        recover_and_check: ``recover_and_check(state) -> messages`` —
            recover from what survives in ``state`` and yield one message
            per contract violation (an ``AssertionError`` counts as one).
            Also run on the crash-free baseline.
        sites: crashed at each of their baseline firings.
        torn_sites: additionally crashed with :data:`TORN_FRACTION` of
            the payload persisted.
        torn_byte_sites: additionally torn at *every* byte of the payload
            (0 bytes persisted up to all of them).
    """
    report = CrashSweepReport()

    def recover(state, label: str) -> None:
        try:
            for message in recover_and_check(state):
                report.failures.append(f"{label}: {message}")
        except AssertionError as exc:
            report.failures.append(f"{label}: {exc}")
        except Exception as exc:
            report.failures.append(f"{label}: recovery error {exc!r}")

    counted = {*sites, *torn_sites, *torn_byte_sites}
    faults = FaultInjector()
    state = build(faults)
    setup = {site: faults.hits(site) for site in counted}
    drive(state)
    hits = {site: faults.hits(site) - setup[site] for site in counted}
    report.site_hits = {site: hits[site] for site in sites}
    recover(state, "baseline")

    # (site, k-th firing, tear): no tear, a payload fraction (float) or an
    # exact persisted byte count (int; grows by one until the payload is
    # covered).
    points = deque(
        (site, k, tear)
        for swept, tear in (
            (sites, None), (torn_sites, TORN_FRACTION), (torn_byte_sites, 0),
        )
        for site in swept
        for k in range(hits[site])
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
        state = build(faults)
        rule = faults.arm(
            site, error=CrashError, after=k,
            torn_fraction=None if by_bytes else tear,
            torn_bytes=tear if by_bytes else None,
        )
        try:
            drive(state)
        except CrashError:
            pass
        except Exception as exc:
            report.failures.append(f"{label}: replay error {exc!r}")
            continue
        else:
            report.failures.append(f"{label}: crash point never fired")
            continue
        report.crash_points += 1
        report.torn_points += tear is not None
        if by_bytes and tear < rule.payload_len:
            points.append((site, k, tear + 1))
        recover(state, label)
    report.clean_replays = n_points - report.crash_points
    return report
