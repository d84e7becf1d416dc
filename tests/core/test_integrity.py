"""End-to-end data integrity: catalog CRCs, the repair ladder, recovery
verification and the read-vs-relocation race."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kvstore import CorruptValueError, KVStore
from repro.nvm import DriftConfig, Scrubber
from repro.testing import CrashError, FaultInjector, KVCrashHarness
from repro.testing.crash_sweep import check_durable_invariants

DRIFT = DriftConfig(retention_mean=10, retention_sigma=0.3, seed=3)


@pytest.fixture(scope="module")
def harness():
    """Durable stores over drifting media (shared trained pipeline)."""
    return KVCrashHarness(n_segments=48, segment_size=64, seed=7, drift=DRIFT)


@pytest.fixture(scope="module")
def plain_harness():
    """Durable stores over immortal, drift-free media."""
    return KVCrashHarness(n_segments=48, segment_size=64, seed=7)


def fill(store, n_keys=6, seed=5, size=48):
    rng = np.random.default_rng(seed)
    oracle = {}
    for i in range(n_keys):
        key = b"k%02d" % i
        value = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        store.put(key, value)
        oracle[key] = value
    return oracle


class TestCrcContract:
    def test_crc_mirrors_every_live_value(self, plain_harness):
        import zlib

        _, _, store = plain_harness.fresh(FaultInjector())
        oracle = fill(store)
        for key, value in oracle.items():
            addr, _ = store.index.get(key)
            assert store._live[addr][1] == zlib.crc32(value) & 0xFFFFFFFF
        store.delete(b"k00")
        assert len(store._live) == len(oracle) - 1

    def test_get_repairs_drifted_value_via_scrubber(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        oracle = fill(store)
        device.advance_time(100)
        assert device.drifted_cell_count() > 0
        for key, value in oracle.items():
            assert store.get(key) == value
        assert store.corrupt_reads_detected > 0

    def test_repair_persists_on_media(self, harness):
        """Satellite regression: a heal must stick — the second read of a
        drifted value needs no repair because the first one refreshed the
        media, not just the returned bytes."""
        device, _, store = harness.fresh(FaultInjector())
        oracle = fill(store)
        device.advance_time(100)
        for key, value in oracle.items():
            assert store.get(key) == value
        # Heals hit the media: no live segment senses drifted any more
        # (free segments still do — nobody refreshed them).
        controller = store.engine.controller
        for key in oracle:
            addr, length = store.index.get(key)
            assert not controller.drift_mask(addr, length).any()
        detected = store.corrupt_reads_detected
        for key, value in oracle.items():
            assert store.get(key) == value
        assert store.corrupt_reads_detected == detected  # no re-repairs

    def test_unrepairable_read_raises_not_returns(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        oracle = fill(store, n_keys=3)
        store.scrubber = None  # sever the repair path
        device.advance_time(100)
        raised = 0
        for key, value in oracle.items():
            try:
                got = store.get(key)
            except CorruptValueError:
                raised += 1
            else:
                assert got == value  # clean or self-consistent only
        assert raised > 0
        assert store.corrupt_reads_detected >= raised

    def test_recovery_counts_crc_mismatches(self, harness):
        device, _, store = harness.fresh(FaultInjector())
        fill(store)
        device.advance_time(100)
        assert device.drifted_cell_count() > 0
        recovered = harness.reopen(device)
        assert recovered.recovery.crc_mismatches > 0
        # Detection at open never destroys data: the attached scrubber
        # still heals every value on first read.
        assert dict(recovered.items()) == dict(store.items())

    def test_clean_store_recovers_with_zero_mismatches(self, plain_harness):
        device, _, store = plain_harness.fresh(FaultInjector())
        fill(store)
        recovered = plain_harness.reopen(device)
        assert recovered.recovery.crc_mismatches == 0


class TestRelocationReadRace:
    def test_concurrent_gets_never_see_torn_relocation(self, plain_harness):
        """GET and batched GET racing an in-flight relocation must never
        return stale or foreign bytes — the ``_live`` re-check retries."""
        _, _, store = plain_harness.fresh(FaultInjector())
        oracle = fill(store, n_keys=4, size=40)
        keys = list(oracle)
        # Two versions per key, all the same length: a read may return
        # either version of its own key, never another key's bytes.
        versions = {key: (v, v[::-1]) for key, v in oracle.items()}
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(batched):
            try:
                while not stop.is_set():
                    if batched:
                        values = store.get_many(keys + keys[::-1])
                    else:
                        values = [store.get(key) for key in keys]
                    for key, value in zip(keys + keys[::-1], values):
                        if value is not None and value not in versions[key]:
                            raise AssertionError(
                                f"{key!r}: read {value!r}"
                            )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(batched,))
            for batched in (False, True, True)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave readers and the writer
        for thread in threads:
            thread.start()
        try:
            # Overwrite repeatedly: each PUT retires the old segment for
            # its key and lands the value on a fresh one — the exact
            # window the ``_live`` re-check guards.
            for round_ in range(150):
                for key in keys:
                    store.put(key, versions[key][round_ % 2])
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:2]


class TestCatalogCrcCrashConsistency:
    """Hypothesis: crash a run of PUTs at any value write or catalog row —
    after reopening, every live catalog record's CRC matches its value
    bytes."""

    @given(
        data=st.data(),
        n_ops=st.integers(2, 8),
        site=st.sampled_from(["device.write", "catalog.write"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_crash_then_reopen_keeps_crcs_consistent(
        self, plain_harness, data, n_ops, site
    ):
        import zlib

        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        k = data.draw(st.integers(0, max(0, n_ops * 2 - 1)))
        faults = FaultInjector()
        faults.arm(site, error=CrashError, after=k, times=1)
        device, _, store = plain_harness.fresh(faults)
        oracle = {}
        try:
            for i in range(n_ops):
                key = b"h%02d" % (i % 4)
                value = rng.integers(0, 256, 40, dtype=np.uint8).tobytes()
                store.put(key, value)
                oracle[key] = value
        except CrashError:
            pass
        del store
        recovered = plain_harness.reopen(device)
        assert recovered.recovery.crc_mismatches == 0
        for entry in recovered.catalog.scan():
            addr = recovered.pool.object_address(entry.segment)
            value = recovered.pool.read(addr, entry.value_len)
            assert zlib.crc32(value) & 0xFFFFFFFF == entry.crc


class TestScrubberUnderLoad:
    """Hypothesis: pause/resume scheduling of a live scrubber never breaks
    reads or durable invariants while put_many traffic is in flight."""

    @given(
        seed=st.integers(0, 2**31),
        toggles=st.lists(st.booleans(), min_size=1, max_size=6),
    )
    @settings(max_examples=10, deadline=None)
    def test_pause_resume_under_concurrent_put_many(
        self, harness, seed, toggles
    ):
        device, _, store = harness.fresh(FaultInjector())
        scrubber = Scrubber(store, segments_per_round=4, interval_s=0.0005)
        rng = np.random.default_rng(seed)
        oracle = fill(store, n_keys=4, seed=seed % 1000)
        scrubber.start()
        try:
            for paused in toggles:
                (scrubber.pause if paused else scrubber.resume)()
                items = []
                for i in range(4):
                    key = b"b%02d" % i
                    value = rng.integers(
                        0, 256, 40, dtype=np.uint8
                    ).tobytes()
                    items.append((key, value))
                    oracle[key] = value
                store.put_many(items)
                device.advance_time(3)
                for key, value in oracle.items():
                    assert store.get(key) == value
        finally:
            scrubber.stop()
        assert scrubber.last_error is None, scrubber.last_error
        check_durable_invariants(store, oracle)
