"""Exhaustive crash-point sweeps over the durable KV store.

Tier 1 runs a small-but-complete sweep (every fired site, torn variants
included).  The ``crash``-marked test is the acceptance sweep — a seeded
YCSB-style trace of 200+ operations crashed at every fired value write
and catalog row — and runs in CI's dedicated crash-sweep job
(``pytest -m crash``).
"""

import numpy as np
import pytest

from repro.core.kvstore import KVStore
from repro.nvm import DriftConfig, WearOutConfig
from repro.pmem.catalog import PersistentCatalog
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
BATCH_SITES = ("catalog.write", "device.write", "device.program")


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
    through — value writes to free segments, every catalog row, whole
    or torn with the rows before it landed — leaves acknowledged batches
    intact and at most a *prefix* of the interrupted one."""
    report = run_crash_sweep(
        mortal_harness, make_batched_trace(1, seed=5), sites=BATCH_SITES,
    )
    assert report.passed, report.failures[:5]
    for site in BATCH_SITES:
        assert report.site_hits[site] > 0, f"{site} never fired"
    # Pinned: a refactor of the harness must not enumerate fewer points.
    # One row per pair and one for the DELETE: the batch's repeated key
    # starts a second batch, so 8 pairs are 8 rows.
    assert report.site_hits == {
        "catalog.write": 9, "device.write": 8, "device.program": 17,
    }
    assert (report.crash_points, report.torn_points) == (43, 9)
    assert report.clean_replays == 0


@pytest.mark.crash
def test_batched_sweep_acceptance(mortal_harness):
    """Acceptance criterion for group commit: ``put_many`` B=8 batches
    (updates, inserts, a repeated key, mixed lengths) on media that
    retires segments mid-batch, crashed at every fired catalog, device
    and wear-out point — and, on a shorter trace, torn at *every byte* of
    every catalog row, the rows before it in ``write_many`` order landed
    (so the survivors of a batch need not be a prefix of it).  Each crash
    recovers to acknowledged ⇒ new,
    un-acknowledged ⇒ a prefix of the batch, with the offline checker
    clean on the crashed media."""
    sites = BATCH_SITES + WEAROUT_CRASH_SITES
    # Six batches: placed by sketch, a value lands on near-identical
    # content, so a dead cell stays silent until a write must flip it,
    # and the first relocation comes later than under cluster placement.
    report = run_crash_sweep(
        mortal_harness, make_batched_trace(6, seed=11), sites=sites,
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
        torn_sites=(), torn_byte_sites=("catalog.write",), check_fsck=True,
    )
    assert torn.passed, (
        f"{len(torn.failures)} of {torn.crash_points} torn points failed; "
        f"first: {torn.failures[:3]}"
    )
    # Every byte of every row: 0 up to its length, except that the last
    # row of a commit stops before its last byte that differs from the
    # media (that byte landing is the commit point).
    assert torn.torn_points == 534


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
    # Every PUT and DELETE is one catalog row.
    assert {s: n for s, n in report.site_hits.items() if n} == {
        "device.write": 20, "catalog.write": 20,
    }
    assert (report.crash_points, report.torn_points) == (60, 20)
    assert report.clean_replays == 0


def test_oracle_catches_a_skipped_gap_trim(harness, monkeypatch):
    """A batched sweep with a seeded defect: recovery keeps every valid
    slot of the interrupted batch instead of trimming it at its first
    missing index.  ``write_many`` runs rows in passes by length, so a
    crash can land a later pair's 22-B UPDATE slot before an earlier
    pair's 40-B INSERT row, and the sweep must report what then shows."""
    monkeypatch.setattr(
        PersistentCatalog, "_past_the_gap", staticmethod(lambda _: set())
    )
    report = run_crash_sweep(
        harness, make_batched_trace(2, seed=5), sites=("catalog.write",)
    )
    assert report.crash_points == 36 and not report.passed
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
    pairs in *reverse* batch order, so a crash that lands the first rows
    of the commit leaves a suffix of the batch visible.  The crash-free
    run is indistinguishable (distinct keys); the prefix rule must flag
    the crashes in between."""
    install = KVStore._install
    monkeypatch.setattr(
        KVStore, "_install",
        lambda store, items, addrs: install(store, items[::-1], addrs[::-1]),
    )
    batch = [(b"user%03d" % i, bytes([i + 1]) * (i + 9)) for i in range(16)]
    report = run_crash_sweep(harness, [("put_many", batch)], sites=BATCH_SITES)
    assert not any(f.startswith("baseline") for f in report.failures)
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
        "device.write": 11, "catalog.write": 13, "device.drift_flip": 4,
        "scrub.refresh": 5,
    }
    assert (report.crash_points, report.torn_points) == (46, 13)
    assert report.clean_replays == 0


@pytest.mark.scrub
def test_drift_scrub_sweep_acceptance(drift_harness):
    """Acceptance criterion: an aged, scrubbed workload crashed at every
    fired site — drift flips, scrub refreshes, torn catalog rows —
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


@pytest.mark.crash
def test_catalog_rows_torn_at_every_byte_recover(harness):
    """Every catalog row torn at *every* byte, fsck on the crashed media
    at each point: an UPDATE's 22-B slot (the key then reads its old
    value or its new one), an INSERT's 40-B row of slot and key — also
    onto the record a DELETE of the *same* key just freed, whose
    tombstone must stay the newest slot (hazard 2), and onto one whose
    old key differs — and a DELETE's tombstone.  The ``put_many`` rows
    are torn with every row before them in ``write_many`` order landed,
    so its survivors include non-prefix subsets for recovery to trim."""
    a, b, c, d = (b"user%03d" % i for i in range(4))
    value = [bytes([i + 1]) * (9 + 5 * i) for i in range(10)]
    trace = [
        ("put", a, value[0]), ("put", b, value[1]), ("put", a, value[2]),
        ("delete", a), ("put", a, value[3]), ("delete", b),
        # c lands on b's freed record, whose slots spell "b".
        ("put", c, value[4]), ("put", c, value[5]),
        ("put_many", [(a, value[6]), (d, value[7]), (c, value[8])]),
        ("put", d, value[9]), ("get", b),
    ]
    report = run_crash_sweep(
        harness, trace, sites=(), torn_sites=(),
        torn_byte_sites=("catalog.write",), check_fsck=True,
    )
    assert report.passed, (
        f"{len(report.failures)} of {report.crash_points} torn points "
        f"failed; first: {report.failures[:3]}"
    )
    # 5 INSERT rows (40 B), 5 UPDATE and 2 DELETE slots (22 B): every
    # byte count from 0 up to the row's length, except that the last row
    # of a commit stops before its last byte that differs from the media
    # (that byte landing is the commit point; an INSERT's key padding and
    # a re-inserted key's own bytes are already in place).
    assert report.torn_points == 320
    assert report.clean_replays == 0


@pytest.mark.crash
def test_insert_into_a_freed_record_torn_at_every_byte(harness):
    """An INSERT of a *different* key into the record a DELETE just
    freed, right after a completed two-pair batch, torn at every byte:
    the key is left part old, part new (the keys differ in every byte
    and in length).  The DELETE's tombstone must stay valid whatever the
    key bytes read, or the newest batch is the two-pair one, whose slot
    in this record the INSERT overwrote, and ``b`` is lost."""
    a, b, c, d = b"aa", b"bb", b"user000000000001", b"\xffzq"
    trace = [
        ("put_many", [(a, b"1" * 9), (b, b"2" * 9)]),
        ("delete", a),
        ("put", c, b"3" * 9),  # onto a's record
        ("put_many", [(c, b"4" * 9), (d, b"5" * 9)]),
        ("delete", c),
        ("put_many", [(a, b"6" * 9), (d, b"7" * 9)]),  # a onto c's record
        ("get", b),
    ]
    report = run_crash_sweep(
        harness, trace, sites=(), torn_sites=(),
        torn_byte_sites=("catalog.write",), check_fsck=True,
    )
    assert report.passed, (
        f"{len(report.failures)} of {report.crash_points} torn points "
        f"failed; first: {report.failures[:3]}"
    )
    # 5 INSERT rows (40 B), 2 UPDATE and 2 DELETE slots (22 B), each
    # commit's last row stopping before its last differing byte.
    assert report.torn_points == 264
    assert report.clean_replays == 0


@pytest.mark.crash
def test_exhaustive_sweep_acceptance(harness):
    """Acceptance criterion: >=200 ops, a crash at every fired
    device.write / catalog.write site, torn-write variants included — and
    every single crash point recovers to exactly the acknowledged
    state."""
    trace = make_ycsb_trace(200, n_keys=10, value_size=64, seed=11)
    report = run_crash_sweep(harness, trace)
    assert report.passed, (
        f"{len(report.failures)} of {report.crash_points} crash points "
        f"failed; first: {report.failures[:3]}"
    )
    assert len(trace) >= 200
    # One value write and one catalog row per PUT, one row per DELETE.
    assert (report.crash_points, report.torn_points) == (411, 145)
