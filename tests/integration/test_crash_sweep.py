"""Exhaustive crash-point sweeps over the durable KV store.

Tier 1 runs a small-but-complete sweep (every fired site, torn variants
included).  The ``crash``-marked test is the acceptance sweep — a seeded
YCSB-style trace of 200+ operations crashed at every fired device-write
and transaction-boundary site — and runs in CI's dedicated crash-sweep
job (``pytest -m crash``).
"""

import numpy as np
import pytest

from repro.core.kvstore import KVStore
from repro.nvm import DriftConfig, WearOutConfig
from repro.pmem.pool import PersistentPool
from repro.testing import (
    DEFAULT_CRASH_SITES,
    DEFAULT_TORN_SITES,
    DRIFT_CRASH_SITES,
    GC_CRASH_SITES,
    WEAROUT_CRASH_SITES,
    KVCrashHarness,
    make_ycsb_trace,
    run_crash_sweep,
    weave_aging,
)


@pytest.fixture(scope="module")
def harness():
    return KVCrashHarness()


@pytest.fixture(scope="module")
def drift_harness():
    """Stores on drifting media with a synchronous scrubber attached."""
    return KVCrashHarness(
        n_segments=48,
        segment_size=64,
        seed=7,
        drift=DriftConfig(retention_mean=8, retention_sigma=0.3, seed=3),
    )


@pytest.fixture(scope="module")
def mortal_harness():
    """Stores on media mortal enough that segments hit ECP capacity and
    retire mid-trace (verify-after-write on, a few reserved spares)."""
    return KVCrashHarness(
        n_segments=48,
        segment_size=64,
        seed=7,
        wearout=WearOutConfig(
            endurance_mean=6, endurance_sigma=0.5, seed=5, ecp_entries=1
        ),
        spares=4,
    )


#: The tier-1 small sweep's trace (also what the mutation tests poison).
SMALL_TRACE = make_ycsb_trace(30, n_keys=8, value_size=64, seed=3)

#: Every site a durable ``put_many`` fires, media programs included.
BATCH_SITES = (
    "tx.begin", "tx.log", "tx.write", "tx.commit", "device.write",
    "device.program",
)


def make_batched_trace(n_batches: int, seed: int, batch: int = 8):
    """``put_many`` batches over a small key space: every batch mixes
    inserts and updates with values of mixed lengths and repeats its first
    key (a different value) further down; a delete and a get in between
    keep later batches inserting."""
    rng = np.random.default_rng(seed)
    keys = [b"user%03d" % i for i in range(12)]
    trace = []
    for _ in range(n_batches):
        picks = [keys[i] for i in rng.choice(len(keys), batch - 1, False)]
        picks.insert(batch // 2 + 1, picks[0])
        trace.append(("put_many", [
            (key, rng.integers(0, 256, int(rng.integers(1, 65)),
                               dtype=np.uint8).tobytes())
            for key in picks
        ]))
        trace.append(("delete", picks[1]))
        trace.append(("get", picks[2]))
    return trace


def test_small_batched_sweep_recovers(mortal_harness):
    """A crash at every point a group-committed ``put_many`` passes
    through — value writes to free segments, the log payload (header and
    record run), every in-place catalog write — leaves acknowledged
    batches intact and at most a *prefix* of the interrupted one."""
    report = run_crash_sweep(
        mortal_harness, make_batched_trace(1, seed=5), sites=BATCH_SITES,
    )
    assert report.passed, report.failures[:5]
    for site in BATCH_SITES:
        assert report.site_hits[site] > 0, f"{site} never fired"
    # One batch of 8 pairs needs several transactions at this log size,
    # and commits them in far fewer than one per pair would.
    assert 2 <= report.site_hits["tx.begin"] - 1 < 8
    # Pinned: a refactor of the harness must not enumerate fewer points.
    # (Before the per-key catalog: 4 transactions, 10 in-place writes, 37
    # programs — six 36-B pairs now fit the 240-B log where three 69-B
    # ones did, and an update is one in-place write, not two.  The
    # log-header fold took one program per transaction: 26 -> 23, crash
    # points 62 -> 59 — the header raise is now a byte range of the
    # ``tx.log`` payload, torn at every byte by the acceptance sweep.)
    assert report.site_hits == {
        "tx.begin": 3, "tx.log": 3, "tx.write": 8, "tx.commit": 3,
        "device.write": 8, "device.program": 23,
    }
    assert (report.crash_points, report.torn_points) == (59, 11)
    assert report.clean_replays == 0


@pytest.mark.crash
def test_batched_sweep_acceptance(mortal_harness):
    """Acceptance criterion for group commit: ``put_many`` B=8 batches
    (updates, inserts, a repeated key, mixed lengths) on media that
    retires segments mid-batch, crashed at every fired transaction, device
    and wear-out point — and, on a shorter trace, torn at *every byte* of
    every log payload, header bytes 0–8 included.  Each crash recovers to
    acknowledged ⇒ new,
    un-acknowledged ⇒ a prefix of the batch, with the offline checker
    clean on the crashed media."""
    sites = BATCH_SITES + WEAROUT_CRASH_SITES
    report = run_crash_sweep(
        mortal_harness, make_batched_trace(4, seed=11), sites=sites,
        check_fsck=True,
    )
    assert report.passed, (
        f"{len(report.failures)} of {report.crash_points} crash points "
        f"failed; first: {report.failures[:3]}"
    )
    for site in sites:
        assert report.site_hits[site] > 0, f"{site} never fired"
    assert report.clean_replays == 0

    torn = run_crash_sweep(
        mortal_harness, make_batched_trace(2, seed=11), sites=(),
        torn_sites=(), torn_byte_sites=("tx.log",), check_fsck=True,
    )
    assert torn.passed, (
        f"{len(torn.failures)} of {torn.crash_points} torn points failed; "
        f"first: {torn.failures[:3]}"
    )
    # Every byte of every payload: 541 now — the 16 header bytes of each
    # of six transactions ride in it since the header fold (445 before,
    # 1000+ while a pair logged 85 B).
    assert torn.torn_points > 500


def test_small_sweep_every_point_recovers(harness):
    report = run_crash_sweep(harness, SMALL_TRACE)
    assert report.passed, report.failures[:5]
    # Every instrumented site was actually reached and crashed at — except
    # the wear-out, drift and GC sites, which an immortal, drift-free
    # device with no compactor can never fire.
    for site in DEFAULT_CRASH_SITES:
        if (
            site in WEAROUT_CRASH_SITES
            or site in DRIFT_CRASH_SITES
            or site in GC_CRASH_SITES
        ):
            assert report.site_hits[site] == 0, site
        else:
            assert report.site_hits[site] > 0, site
    assert report.crash_points == sum(report.site_hits.values()) + sum(
        report.site_hits[s] for s in DEFAULT_TORN_SITES
    )
    # Pinned: a refactor of the harness must not enumerate fewer points.
    # (``tx.write`` was 33 while each of the 13 updates cleared a second
    # record; every other site fires exactly as before.)
    assert {s: n for s, n in report.site_hits.items() if n} == {
        "device.write": 20, "tx.begin": 20, "tx.log": 20, "tx.write": 20,
        "tx.commit": 20,
    }
    assert (report.crash_points, report.torn_points) == (140, 40)
    assert report.clean_replays == 0


def test_oracle_catches_a_skipped_undo_rollback(harness, monkeypatch):
    """The small sweep with a seeded defect: recovery clears the log
    header without replaying the undo records.  Every crash between a
    transaction's first in-place write and its commit then leaves
    half-applied state behind, and the sweep must say so."""
    monkeypatch.setattr(
        PersistentPool, "_log_rollback", lambda pool: pool._log_finish() or 0
    )
    report = run_crash_sweep(harness, SMALL_TRACE)
    assert report.crash_points == 140 and not report.passed
    assert len(report.failures) >= report.site_hits["tx.commit"]
    assert not any(f.startswith("baseline") for f in report.failures)


def test_oracle_catches_an_altered_acknowledged_value(harness, monkeypatch):
    """The small sweep with a seeded defect: after the trace (and the
    crash) an acknowledged value is overwritten behind the model's back —
    checksum and catalog consistent, so only the model can tell.  Every
    point that recovers a non-empty store must be reported ``corrupt``."""
    reopen = harness.reopen

    def tampering_reopen(device):
        store = reopen(device)
        for key in list(store.keys())[:1]:
            store.put(key, b"not what was acknowledged")
        return store

    monkeypatch.setattr(harness, "reopen", tampering_reopen)
    report = run_crash_sweep(harness, SMALL_TRACE)
    assert len(report.failures) > report.crash_points // 2
    assert all("corrupt: key" in failure for failure in report.failures)


def test_oracle_catches_a_non_prefix_subset_of_a_batch(harness, monkeypatch):
    """A batched sweep with a seeded defect: ``put_many`` publishes its
    groups in *reverse* batch order, so a crash between two groups leaves
    a suffix of the batch visible.  The crash-free run is
    indistinguishable (distinct keys); the prefix rule must flag the
    crashes in between."""
    install = KVStore._install
    monkeypatch.setattr(
        KVStore, "_install",
        lambda store, items, addrs: install(store, items[::-1], addrs[::-1]),
    )
    # 16 pairs: three groups at this log size (six 36-B pairs each).
    batch = [(b"user%03d" % i, bytes([i + 1]) * (i + 9)) for i in range(16)]
    report = run_crash_sweep(harness, [("put_many", batch)], sites=BATCH_SITES)
    assert not any(f.startswith("baseline") for f in report.failures)
    assert report.site_hits["tx.begin"] > 2
    assert any("phantom: key" in failure for failure in report.failures)


def test_trace_generator_is_deterministic():
    assert make_ycsb_trace(25, seed=9) == make_ycsb_trace(25, seed=9)
    assert make_ycsb_trace(25, seed=9) != make_ycsb_trace(25, seed=10)


def test_trace_mix_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        make_ycsb_trace(10, mix=(0.5, 0.5, 0.5))


def test_small_drift_sweep_recovers(drift_harness):
    """Crashes mid-drift, mid-scrub-refresh and at every write/tx point of
    an aged workload all recover to the acknowledged state."""
    trace = weave_aging(
        make_ycsb_trace(16, n_keys=5, value_size=48, seed=3),
        age_every=4,
        age_ticks=3,
        scrub_every=8,
    )
    report = run_crash_sweep(drift_harness, trace)
    assert report.passed, report.failures[:5]
    for site in DRIFT_CRASH_SITES:
        assert report.site_hits[site] > 0, f"{site} never fired"
    # Pinned: a refactor of the harness must not enumerate fewer points.
    assert {s: n for s, n in report.site_hits.items() if n} == {
        "device.write": 11, "tx.begin": 13, "tx.log": 13, "tx.write": 13,
        "tx.commit": 13, "device.drift_flip": 4, "scrub.refresh": 4,
    }
    assert (report.crash_points, report.torn_points) == (97, 26)
    assert report.clean_replays == 0


@pytest.mark.scrub
def test_drift_scrub_sweep_acceptance(drift_harness):
    """Acceptance criterion: an aged, scrubbed workload crashed at every
    fired site — drift flips, scrub refreshes, torn log/value writes —
    recovers to exactly the acknowledged state at all of them."""
    trace = weave_aging(
        make_ycsb_trace(60, n_keys=8, value_size=48, seed=11),
        age_every=4,
        age_ticks=3,
        scrub_every=6,
    )
    report = run_crash_sweep(drift_harness, trace)
    assert report.passed, (
        f"{len(report.failures)} of {report.crash_points} crash points "
        f"failed; first: {report.failures[:3]}"
    )
    for site in DRIFT_CRASH_SITES:
        assert report.site_hits[site] > 0, f"{site} never fired"
    assert report.torn_points > 0


class WideKeyHarness(KVCrashHarness):
    """The default 40-B key field: 24 + 40 = 64-B records, one per segment."""

    key_capacity = 40


@pytest.mark.crash
def test_record_writes_torn_at_every_byte_recover():
    """Every in-place catalog write torn at *every* byte: an UPDATE's 20
    mutable bytes (the key then reads its old value or its new one, never
    an old segment under a new CRC — here always the old one: the undo
    record restores all 20), an INSERT's 64-B record, whose undo record is
    the flag byte alone (the record rolls back to invalid and its id is
    free again — also when the torn record lies over dead metadata naming
    a key that is live elsewhere), and a DELETE's flag byte.  fsck runs on
    the crashed media at every point."""
    a, b, c, d = (b"user%03d" % i for i in range(4))
    value = [bytes([i + 1]) * (9 + 5 * i) for i in range(10)]
    trace = [
        ("put", a, value[0]), ("put", b, value[1]), ("put", a, value[2]),
        ("delete", a), ("delete", b),
        # b returns on record 0; record 1 still spells "b" behind a clear
        # flag, and c's insert is torn over it.
        ("put", b, value[3]), ("put", c, value[4]), ("put", b, value[5]),
        ("put_many", [(a, value[6]), (c, value[7]), (d, value[8])]),
        ("put", d, value[9]), ("get", b),
    ]
    inserts, updates, deletes = 6, 4, 2
    report = run_crash_sweep(
        WideKeyHarness(), trace, sites=(), torn_sites=(),
        torn_byte_sites=("tx.write",), check_fsck=True,
    )
    assert report.passed, (
        f"{len(report.failures)} of {report.crash_points} torn points "
        f"failed; first: {report.failures[:3]}"
    )
    assert report.torn_points == (
        inserts * (64 + 1) + updates * (20 + 1) + deletes * (1 + 1)
    )
    assert report.clean_replays == 0


@pytest.mark.crash
def test_exhaustive_sweep_acceptance(harness):
    """Acceptance criterion: >=200 ops, a crash at every fired
    device.write / tx.* site, torn-write variants included — and every
    single crash point recovers to exactly the acknowledged state."""
    trace = make_ycsb_trace(200, n_keys=10, value_size=64, seed=11)
    report = run_crash_sweep(harness, trace)
    assert report.passed, (
        f"{len(report.failures)} of {report.crash_points} crash points "
        f"failed; first: {report.failures[:3]}"
    )
    assert len(trace) >= 200
    # 991 / 290 — 145 fewer firings of ``tx.write`` than when each update
    # also cleared a second record, every other site unchanged.
    assert report.crash_points > 900
    assert report.torn_points > 250
