"""Background scrubber: healing, priority order, worker lifecycle."""

import threading
import time

import numpy as np
import pytest

from repro.core.config import fast_test_config
from repro.core.kvstore import KVStore
from repro.nvm import (
    DriftConfig,
    MemoryController,
    NVMDevice,
    Scrubber,
)
from repro.nvm.scrubber import ESCALATE_AFTER
from repro.pmem.catalog import PersistentCatalog
from repro.pmem.pool import PersistentPool
from repro.testing import FaultInjector

SEGMENT = 64
N_SEGMENTS = 48
KEY_CAPACITY = 16


def make_store(retention_mean=10, *, faults=None, seed=7):
    meta = PersistentCatalog.meta_segments_for(
        N_SEGMENTS, SEGMENT, KEY_CAPACITY
    )
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=seed,
        faults=faults,
        drift=DriftConfig(
            retention_mean=retention_mean,
            retention_sigma=0.3,
            seed=3,
            immortal_prefix_segments=meta,
        ),
    )
    pool = PersistentPool(
        MemoryController(device),
        meta_segments=meta,
        faults=faults,
    )
    store = KVStore.create(
        pool,
        config=fast_test_config(),
        faults=faults,
        key_capacity=KEY_CAPACITY,
    )
    return store


def fill(store, n_keys=8, seed=5):
    rng = np.random.default_rng(seed)
    oracle = {}
    for i in range(n_keys):
        key = b"k%02d" % i
        value = rng.integers(0, 256, 48, dtype=np.uint8).tobytes()
        store.put(key, value)
        oracle[key] = value
    return oracle


class TestScrubbing:
    def test_scrub_segment_heals_drift(self):
        store = make_store()
        oracle = fill(store)
        scrubber = Scrubber(store, segments_per_round=N_SEGMENTS)
        device = store.engine.controller.device
        device.advance_time(100)
        assert device.drifted_cell_count() > 0
        summary = scrubber.scrub_round()
        assert summary["bits_healed"] > 0
        assert scrubber.stats.refresh_writes > 0
        # Every live value is clean again: a full sweep heals nothing new.
        assert scrubber.scrub_round()["bits_healed"] == 0
        for key, value in oracle.items():
            assert store.get(key) == value

    def test_scrub_segment_skips_dead_segments(self):
        store = make_store()
        fill(store, n_keys=2)
        scrubber = Scrubber(store)
        # A segment nobody owns heals nothing and writes nothing.
        free_addr = store.engine.free_addresses()[0]
        assert scrubber.scrub_segment(free_addr // SEGMENT) == 0
        assert scrubber.stats.refresh_writes == 0

    def test_rate_limit_and_backlog(self):
        store = make_store(retention_mean=10**6)
        fill(store, n_keys=8)
        scrubber = Scrubber(store, segments_per_round=3)
        summary = scrubber.scrub_round()
        assert summary["segments_scrubbed"] == 3
        assert summary["backlog"] == 5
        assert scrubber.stats.backlog == 5

    def test_round_order_prefers_least_recently_scrubbed(self):
        store = make_store(retention_mean=10**6)
        fill(store, n_keys=6)
        scrubber = Scrubber(store, segments_per_round=3)
        scrubber.scrub_round()
        first = set(scrubber._last_scrubbed)
        scrubber.scrub_round()
        second = set(scrubber._last_scrubbed) - first
        # Two rounds of 3 cover all 6 live segments exactly once each.
        assert len(first) == 3 and len(second) == 3
        assert not (first & second)

    def test_escalates_repeat_offenders(self):
        store = make_store(retention_mean=10**6)
        fill(store, n_keys=1)
        scrubber = Scrubber(store)
        device = store.engine.controller.device
        [addr] = store._live
        segment = addr // SEGMENT

        class _AlwaysDrifty:
            """Pretend the margin read keeps finding drift."""

            def __init__(self, controller):
                self._real = controller.drift_mask

            def __call__(self, a, length):
                mask = self._real(a, length)
                mask[0] |= 0x80
                return mask

        store.engine.controller.drift_mask = _AlwaysDrifty(
            store.engine.controller
        )
        health = store.engine.controller.health_manager
        assert health is None or not health._pending_set
        for _ in range(ESCALATE_AFTER - 1):
            scrubber.scrub_segment(segment)
        assert scrubber.stats.escalations == 0
        assert scrubber._dirty_streak[segment] == ESCALATE_AFTER - 1
        scrubber.scrub_segment(segment)
        # No health manager on an immortal device: escalation is a no-op
        # but the streak bookkeeping still resets.
        assert scrubber._dirty_streak[segment] == 0
        del device

    def test_validates_parameters(self):
        store = make_store(retention_mean=10**6)
        with pytest.raises(ValueError):
            Scrubber(store, segments_per_round=0)


class TestWorkerLifecycle:
    def test_start_is_single_flight_and_stop_joins(self):
        store = make_store(retention_mean=10**6)
        fill(store, n_keys=2)
        scrubber = Scrubber(store, interval_s=0.001)
        thread = scrubber.start()
        assert scrubber.start() is thread  # idempotent
        assert scrubber.running
        deadline = time.monotonic() + 5
        while scrubber.stats.rounds == 0 and time.monotonic() < deadline:
            time.sleep(0.002)
        scrubber.stop()
        assert not scrubber.running
        assert scrubber.stats.rounds > 0

    def test_pause_gates_rounds_resume_lifts(self):
        store = make_store(retention_mean=10**6)
        fill(store, n_keys=2)
        scrubber = Scrubber(store, interval_s=0.001)
        scrubber.pause()
        scrubber.start()
        assert scrubber.paused
        time.sleep(0.02)
        assert scrubber.stats.rounds == 0  # gated before the first round
        scrubber.resume()
        deadline = time.monotonic() + 5
        while scrubber.stats.rounds == 0 and time.monotonic() < deadline:
            time.sleep(0.002)
        scrubber.stop()
        assert scrubber.stats.rounds > 0

    def test_worker_survives_round_exceptions(self):
        store = make_store(retention_mean=10**6)
        fill(store, n_keys=2)
        scrubber = Scrubber(store, interval_s=0.001)
        boom = RuntimeError("round blew up")
        fired = threading.Event()
        original = scrubber.scrub_round

        def exploding_round():
            if not fired.is_set():
                fired.set()
                raise boom
            return original()

        scrubber.scrub_round = exploding_round
        scrubber.start()
        deadline = time.monotonic() + 5
        while scrubber.stats.rounds == 0 and time.monotonic() < deadline:
            time.sleep(0.002)
        scrubber.stop()
        assert scrubber.stats.worker_errors >= 1
        assert scrubber.last_error is boom
        assert scrubber.stats.rounds > 0  # kept going after the failure

    def test_telemetry_reports_state(self):
        store = make_store(retention_mean=10**6)
        scrubber = Scrubber(store)
        telemetry = scrubber.telemetry()
        assert telemetry["running"] is False
        assert telemetry["paused"] is False
        assert telemetry["rounds"] == 0
        assert set(telemetry) >= {
            "bits_healed",
            "refresh_writes",
            "corruptions_found",
            "escalations",
            "worker_errors",
            "backlog",
        }

    def test_scrub_refresh_site_fires(self):
        faults = FaultInjector()
        store = make_store(faults=faults)
        fill(store, n_keys=2)
        scrubber = Scrubber(store, faults=faults)
        store.engine.controller.device.advance_time(100)
        scrubber.scrub_round()
        assert faults.hits("scrub.refresh") >= 2
