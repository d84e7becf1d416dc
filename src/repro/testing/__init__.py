"""Test-support utilities shipped with the library.

- :mod:`repro.testing.faults` — deterministic fault injection for
  exercising the engine's recovery paths (failed retrains, slow fits,
  device write errors), plus :class:`CrashError` and torn-write rules
  for crash-consistency testing.
- :mod:`repro.testing.model` — the durability contract, stated once:
  :class:`~repro.testing.model.DurabilityModel` (what a read may return
  after a fault, per promised strength) and
  :func:`~repro.testing.model.sweep_crash_points` (the one crash-point
  enumeration loop).  Every harness below takes its verdicts from it.
- :mod:`repro.testing.crash_sweep` — an exhaustive crash-point sweep
  harness: replays a seeded workload crashing at every fired fault site
  (including torn writes), re-opens the store from the media, and checks
  the full durability contract after each crash.
- :mod:`repro.testing.chaos` — the sharded-store chaos drill: random
  kill/SIGSTOP/crash faults against live worker processes mid-batch
  while aging and drift advance, asserting supervised convergence to
  all-shards-healthy with zero lost acknowledged writes and clean fsck.
- :mod:`repro.testing.transport` — :class:`FaultyTransport`, a shard
  transport wrapper simulating hangs and failed restarts on a built
  sharded store.
"""

from importlib import import_module

from repro.testing.faults import (
    CrashError,
    FaultError,
    FaultInjector,
    FaultRule,
)

# crash_sweep sits above the KV store, and chaos and transport above the
# sharded store, which themselves depend on the fault layer; importing
# any of them eagerly here would close an import cycle, so their names
# resolve lazily (PEP 562) on first access.
_LAZY = {
    "crash_sweep": (
        "CrashSweepReport",
        "DEFAULT_CRASH_SITES",
        "DEFAULT_TORN_SITES",
        "DRIFT_CRASH_SITES",
        "GC_CRASH_SITES",
        "WEAROUT_CRASH_SITES",
        "WL_CRASH_SITES",
        "WL_TORN_SITES",
        "WL_MODES",
        "KVCrashHarness",
        "WearLevelingSweepReport",
        "apply_trace",
        "check_durable_invariants",
        "make_ycsb_trace",
        "run_crash_sweep",
        "run_wear_leveling_crash_sweep",
        "weave_aging",
        "weave_compaction",
    ),
    "chaos": ("ChaosReport", "FAULT_KINDS", "run_chaos_drill"),
    "transport": ("FaultyTransport",),
}

__all__ = [
    "CrashError",
    "FaultError",
    "FaultInjector",
    "FaultRule",
    *(name for names in _LAZY.values() for name in sorted(names)),
]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
