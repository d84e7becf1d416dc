"""Capacity reclamation: segment reclaim lifecycle, budgeted compaction,
static (cold-data) wear leveling and the compactor worker loop."""

import time

import numpy as np
import pytest

from repro.core.config import fast_test_config
from repro.core.kvstore import KVStore
from repro.nvm import (
    Compactor,
    MemoryController,
    NVMDevice,
    WearOutConfig,
)
from repro.pmem.catalog import PersistentCatalog
from repro.pmem.pool import PersistentPool
from repro.testing import FaultInjector

SEGMENT = 64
N_SEGMENTS = 40
KEY_CAPACITY = 16


def make_store(*, endurance_mean=10**6, spares=0, faults=None, seed=7):
    """Durable store over a mortal device whose endurance is high enough
    that nothing retires on its own — tests drive the health transitions
    explicitly."""
    meta = PersistentCatalog.meta_segments_for(
        N_SEGMENTS, SEGMENT, KEY_CAPACITY
    )
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=seed,
        faults=faults,
        wearout=WearOutConfig(
            endurance_mean=endurance_mean,
            endurance_sigma=0.01,
            seed=5,
            ecp_entries=2,
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
    if spares:
        store.engine.reserve_spares(spares)
    return store


def fill(store, n_keys=4, seed=5):
    rng = np.random.default_rng(seed)
    oracle = {}
    for i in range(n_keys):
        key = b"k%02d" % i
        value = rng.integers(0, 256, 48, dtype=np.uint8).tobytes()
        store.put(key, value)
        oracle[key] = value
    return oracle


def seg_of(store, key):
    return store.index.get(key)[0] // SEGMENT


class TestReclaimLifecycle:
    def test_draining_a_retiring_segment_reclaims_it(self):
        store = make_store()
        health = store.engine.health
        fill(store)
        addr = store.index.get(b"k00")[0]
        seg = addr // SEGMENT
        health.mark_retiring(seg)
        assert seg in health.state.retiring
        assert health.relocations_pending == 1

        # One value per segment: freeing it fully drains the segment,
        # which reclaims it into the spares pool instead of stranding it.
        store.delete(b"k00")
        assert seg not in health.state.retiring
        assert seg in health.state.reclaimed
        assert addr in health.state.spares
        assert health.relocations_pending == 0
        # Quarantined like a reserved spare until adopted.
        assert addr not in store.engine.free_addresses()

        # Reclaimed segments run at ECP capacity by design: re-queuing
        # them would evacuate forever, so mark_retiring is a no-op.
        health.mark_retiring(seg)
        assert seg not in health.state.retiring

        # Adoption returns the reclaimed capacity to placement.
        assert store.engine.adopt_spare() == addr
        assert addr in store.engine.free_addresses()

        telemetry = health.telemetry()
        assert telemetry["segments_reclaimed"] == 1
        assert telemetry["segments_reclaimed_total"] == 1

    def test_reclaim_of_non_retiring_segment_is_refused(self):
        store = make_store()
        health = store.engine.health
        assert health.reclaim(3) is None
        health.state.retired.add(3)
        assert health.reclaim(3) is None

    def test_retiring_reclaimed_segment_that_dies_leaves_spares(self):
        store = make_store()
        health = store.engine.health
        fill(store)
        addr = store.index.get(b"k01")[0]
        seg = addr // SEGMENT
        health.mark_retiring(seg)
        store.delete(b"k01")
        assert addr in health.state.spares

        # The reclaimed segment dies for real: it must leave the spares
        # list, or the next adoption would hand out dead media.
        health.retire(seg)
        assert health.is_retired(seg)
        assert seg not in health.state.reclaimed
        assert addr not in health.state.spares

    def test_queue_relocation_dedup_counter(self):
        store = make_store()
        health = store.engine.health
        health.queue_relocation(5)
        health.queue_relocation(5)
        health.queue_relocation(5)
        assert health.relocations_pending == 1
        assert health.relocation_duplicates_dropped == 2
        assert health.telemetry()["relocation_duplicates_dropped"] == 2

    def test_reclaimed_state_roundtrips_device_snapshot(self, tmp_path):
        store = make_store()
        health = store.engine.health
        fill(store)
        addr = store.index.get(b"k02")[0]
        seg = addr // SEGMENT
        health.mark_retiring(seg)
        store.delete(b"k02")
        assert seg in health.state.reclaimed

        path = tmp_path / "worn.npz"
        store.engine.controller.device.save(path)
        loaded = NVMDevice.load(path)
        assert loaded.health.reclaimed == {seg}
        assert addr in loaded.health.spares


class TestDrainRelocations:
    def test_budget_limits_work_and_drained_segments_reclaim(self):
        store = make_store()
        health = store.engine.health
        oracle = fill(store)
        for key in (b"k00", b"k01", b"k02"):
            health.mark_retiring(seg_of(store, key))
        assert health.relocations_pending == 3

        assert store.drain_relocations(budget=1) == 1
        assert health.relocations_pending == 2
        assert store.drain_relocations() == 2
        assert health.relocations_pending == 0

        # Content-neutral: every value still reads back exactly.
        for key, value in oracle.items():
            assert store.get(key) == value
        # Each evacuated one-value segment was reclaimed, not stranded.
        assert health.telemetry()["segments_reclaimed"] == 3
        assert not health.state.retiring


class TestCompactorRounds:
    def test_round_budgets_relocations_and_reports_backlog(self):
        store = make_store()
        health = store.engine.health
        fill(store)
        compactor = Compactor(
            store, relocations_per_round=2, swaps_per_round=0
        )
        assert store.compactor is compactor
        for key in (b"k00", b"k01", b"k02"):
            health.mark_retiring(seg_of(store, key))

        summary = compactor.compact_round()
        assert summary["relocations"] == 2
        assert summary["relocation_backlog"] == 1
        summary = compactor.compact_round()
        assert summary["relocations"] == 1
        assert summary["relocation_backlog"] == 0
        assert compactor.stats.relocations == 3
        assert compactor.stats.rounds == 2

    def test_wear_level_swap_parks_cold_value_and_forwards_heat(self):
        faults = FaultInjector()
        store = make_store(faults=faults)
        device = store.engine.controller.device
        oracle = fill(store, n_keys=2)
        compactor = Compactor(
            store, swaps_per_round=1, min_wear_gap=4, dormancy_writes=3
        )

        # Make k00 dormant (its stamp ages while k01 is rewritten) and
        # manufacture a clearly most-worn free segment as the target.
        rng = np.random.default_rng(11)
        for _ in range(4):
            value = rng.integers(0, 256, 48, dtype=np.uint8).tobytes()
            store.put(b"k01", value)
            oracle[b"k01"] = value
        old_addr = store.index.get(b"k00")[0]
        heat_before = store.heat_of(old_addr)
        target = store.engine.free_addresses()[0]
        device.segment_write_count[target // SEGMENT] += 50

        assert compactor.wear_level_round() == 1
        assert compactor.stats.wl_swaps == 1
        new_addr = store.index.get(b"k00")[0]
        assert new_addr == target
        assert store.get(b"k00") == oracle[b"k00"]
        # The temperature stamp is forwarded unchanged: migration must not
        # make cold data look hot.
        assert store.heat_of(new_addr) == heat_before
        assert store.heat_of(old_addr) is None
        # The vacated barely-worn segment re-entered the free pool.
        assert old_addr in store.engine.free_addresses()
        # Both GC fault sites fired on the way.
        assert faults.hits("wl.swap") == 1
        assert faults.hits("compact.migrate") == 1

    def test_no_swap_without_wear_gap_or_dormancy(self):
        store = make_store()
        fill(store, n_keys=2)
        compactor = Compactor(
            store, swaps_per_round=4, min_wear_gap=4, dormancy_writes=3
        )
        # Fresh store: every value hot, free segments barely worn — no
        # pairing clears the thresholds, so no write is spent.
        assert compactor.wear_level_round() == 0
        assert compactor.stats.wl_swaps == 0

    def test_migrate_refuses_bad_moves(self):
        store = make_store()
        oracle = fill(store, n_keys=2)
        addr0 = store.index.get(b"k00")[0]
        addr1 = store.index.get(b"k01")[0]
        free = store.engine.free_addresses()[0]

        assert store.migrate(b"absent", free) is False
        assert store.migrate(b"k00", addr0) is False  # already there
        assert store.migrate(b"k00", addr1) is False  # target not free
        for key, value in oracle.items():
            assert store.get(key) == value

    def test_migrate_forwards_catalog_record(self):
        store = make_store()
        oracle = fill(store, n_keys=1)
        [before] = store.catalog.scan()
        target = store.engine.free_addresses()[0]

        assert store.migrate(b"k00", target) is True
        assert store.get(b"k00") == oracle[b"k00"]
        # tx_move: the key keeps its record id; the record now names the
        # target segment under a fresh epoch.
        [after] = store.catalog.scan()
        assert (after.record, after.key) == (before.record, b"k00")
        assert after.segment == store.pool.object_index(target)
        assert after.epoch > before.epoch

    def test_validates_parameters(self):
        store = make_store()
        with pytest.raises(ValueError):
            Compactor(store, relocations_per_round=0)
        with pytest.raises(ValueError):
            Compactor(store, swaps_per_round=-1)
        with pytest.raises(ValueError):
            Compactor(store, min_wear_gap=0)
        with pytest.raises(ValueError):
            Compactor(store, dormancy_writes=0)


class TestWorkerLifecycle:
    def test_background_rounds_run_and_stop_joins(self):
        store = make_store()
        fill(store, n_keys=2)
        compactor = Compactor(store, interval_s=0.001)
        thread = compactor.start()
        assert compactor.start() is thread  # single-flight
        assert compactor.running
        deadline = time.monotonic() + 5
        while compactor.stats.rounds == 0 and time.monotonic() < deadline:
            time.sleep(0.002)
        compactor.stop()
        assert not compactor.running
        assert compactor.stats.rounds > 0

    def test_telemetry_reports_state(self):
        store = make_store()
        compactor = Compactor(store)
        telemetry = compactor.telemetry()
        assert telemetry["running"] is False
        assert telemetry["paused"] is False
        assert set(telemetry) >= {
            "rounds",
            "relocations",
            "wl_swaps",
            "wl_swaps_refused",
            "worker_errors",
            "relocation_backlog",
        }
