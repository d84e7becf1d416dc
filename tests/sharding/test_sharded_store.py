"""Sharded facade semantics on the in-process backend (tier-1 safe).

The in-process backend defines the sharded store's behaviour; the process
backend must only change *where* shards execute.  These tests pin the
behaviour: a one-shard store is byte-for-byte the plain ``KVStore``, batch
ops scatter results back to input order, the manifest reopens to identical
routing, and telemetry aggregates with counter-correct semantics.
"""

from __future__ import annotations

import json
import re

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import fast_test_config
from repro.core.e2nvm import E2NVM
from repro.core.kvstore import CorruptValueError, KVStore, StoreReadOnlyError
from repro.nvm.controller import MemoryController
from repro.nvm.device import NVMDevice, WearOutConfig
from repro.nvm.stats import DeviceStats
from repro.nvm.worker import MaintenanceWorker
from repro.pmem.catalog import PersistentCatalog
from repro.pmem.pool import PersistentPool
from repro.sharding import ShardedKVStore
from repro.sharding.shard import Shard, ShardSpec
from repro.sharding.store import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    aggregate_telemetry,
)
from repro.testing import FaultInjector, KVCrashHarness
from repro.tools.fsck import fsck_sharded

SEGMENT_SIZE = 64
N_SEGMENTS = 96
SEED = 7


def _config():
    return fast_test_config()


def _trace(n: int, seed: int = 13):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        length = int(rng.integers(8, SEGMENT_SIZE - 16))
        items.append(
            (b"key-%04d" % i, rng.integers(0, 256, length, dtype=np.uint8).tobytes())
        )
    return items


def _model_epochs(store):
    return [t["model_epoch"] for t in store.telemetry()["shards"]]


def _plain_volatile_twin():
    """A plain KVStore built exactly as Shard.build builds a volatile
    one-shard slice (same seeds, same construction order)."""
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT_SIZE,
        segment_size=SEGMENT_SIZE,
        initial_fill="random",
        seed=SEED,
    )
    engine = E2NVM(MemoryController(device), _config())
    engine.train()
    return KVStore(engine), device


class TestSingleShardEquivalence:
    def test_volatile_twin_byte_for_byte(self):
        sharded = ShardedKVStore.create_volatile(
            1,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
            base_seed=SEED,
        )
        plain, plain_device = _plain_volatile_twin()
        items = _trace(40)

        # Same mixed trace against both: batch, point, overwrite, delete.
        batch, rest = items[:24], items[24:]
        assert sharded.put_many(batch) == plain.put_many(batch)
        for key, value in rest:
            assert sharded.put(key, value) == plain.put(key, value)
        for i in (0, 5, 11):
            key, _ = items[i]
            new = b"v2-" + bytes([i]) * 20
            assert sharded.put(key, new) == plain.put(key, new)
        for i in (3, 17):
            key, _ = items[i]
            assert sharded.delete(key) is plain.delete(key)

        assert len(sharded) == len(plain)
        assert sharded.keys() == sorted(plain.keys())
        for key, _ in items:
            assert sharded.get(key) == plain.get(key)

        shard_device = sharded.backend.shard(0).device
        np.testing.assert_array_equal(
            shard_device._content, plain_device._content
        )
        sharded.close()

    def test_durable_twin_byte_for_byte(self, tmp_path):
        sharded = ShardedKVStore.create(
            tmp_path / "store",
            1,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
            base_seed=SEED,
            key_capacity=16,
        )
        device = NVMDevice(
            capacity_bytes=N_SEGMENTS * SEGMENT_SIZE,
            segment_size=SEGMENT_SIZE,
            initial_fill="random",
            seed=SEED,
        )
        pool = PersistentPool(
            MemoryController(device),
            meta_segments=PersistentCatalog.meta_segments_for(
                N_SEGMENTS, SEGMENT_SIZE, 16
            ),
        )
        plain = KVStore.create(pool, config=_config(), key_capacity=16)

        items = _trace(20)
        assert sharded.put_many(items[:12]) == plain.put_many(items[:12])
        for key, value in items[12:]:
            assert sharded.put(key, value) == plain.put(key, value)
        key, _ = items[2]
        assert sharded.delete(key) is plain.delete(key)

        shard_device = sharded.backend.shard(0).device
        np.testing.assert_array_equal(
            shard_device._content, device._content
        )
        sharded.close()


class TestFacadeOps:
    @pytest.fixture
    def store(self):
        store = ShardedKVStore.create_volatile(
            3,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
        )
        yield store
        store.close()

    def test_put_many_scatters_to_input_order(self, store):
        items = _trace(30)
        addrs = store.put_many(items)
        assert len(addrs) == len(items)
        assert all(a is not None for a in addrs)
        # get_many returns values in input order, across shards.
        keys = [k for k, _ in items]
        assert store.get_many(keys) == [v for _, v in items]
        # Keys really spread over more than one shard.
        owners = {store.shard_of(k) for k in keys}
        assert len(owners) > 1

    def test_routing_is_stable_per_key(self, store):
        items = _trace(12)
        store.put_many(items)
        for key, value in items:
            assert store.get(key) == value
            new = value[::-1] or b"x"
            store.put(key, new)
            assert store.get(key) == new
        assert len(store) == len(items)

    def test_delete_and_contains(self, store):
        items = _trace(10)
        store.put_many(items)
        key = items[4][0]
        assert key in store
        assert store.delete(key) is True
        assert store.delete(key) is False
        assert key not in store
        assert len(store) == len(items) - 1

    def test_retrain_broadcasts_per_shard(self, store):
        epochs_before = _model_epochs(store)
        started = store.retrain()
        assert started == [True] * store.n_shards
        assert store.wait_for_retrain(30.0) == [True] * store.n_shards
        epochs_after = _model_epochs(store)
        assert all(
            after == before + 1
            for before, after in zip(epochs_before, epochs_after)
        )


class TestMaintenanceGate:
    def test_in_process_ops_gate_the_maintenance_loops(self):
        """``Shard.execute`` is the one body both backends run: the loops
        are paused for the length of an op — raising ops included — on the
        in-process backend too, not only inside a worker process."""
        worker = MaintenanceWorker(interval_s=0.01, name="recording")
        with ShardedKVStore.create_volatile(
            1,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
        ) as store:
            shard = store.backend.shard(0)
            shard.maintenance_workers.append(worker)
            shard._op_probe = lambda: worker.paused
            assert store.backend.call(0, "probe") is True
            assert worker.paused is False
            with pytest.raises(ValueError):
                store.backend.call(0, "save")  # volatile: no snapshot path
            assert worker.paused is False


class TestCopyAbsent:
    def test_presence_of_a_corrupt_value_suppresses_the_copy(self):
        """The rebalance copy asks the index whether the key is here: a
        value failing its CRC at the new owner neither raises mid-drain
        nor gets overwritten by the stale source copy, and no device
        access is spent on the question."""
        device, pool, store = KVCrashHarness(seed=SEED).fresh(FaultInjector())
        store.put(b"held", b"x" * 40)
        addr, _ = store.index.get(b"held")
        device._content[addr] ^= 0xFF  # no repair path can undo this
        with pytest.raises(CorruptValueError):
            store.get(b"held")
        shard = Shard(ShardSpec(0, SEGMENT_SIZE, 96), store, device, pool)
        before = device.stats.snapshot()
        copy = [(b"held", b"stale")]
        assert shard.execute("copy_absent", (copy,)) == [False]
        assert device.stats.snapshot() == before
        assert store.index.get(b"held") == (addr, 40)
        copy = [(b"new", b"fresh")]
        assert shard.execute("copy_absent", (copy,)) == [True]
        assert store.get(b"new") == b"fresh"


class TestManifest:
    def test_create_close_open_round_trip(self, tmp_path):
        root = tmp_path / "store"
        store = ShardedKVStore.create(
            root,
            2,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
            key_capacity=16,
            ring_seed=42,
        )
        items = _trace(16)
        store.put_many(items)
        store.close()

        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["ring"] == {"n_shards": 2, "seed": 42, "vnodes": 128}
        assert len(manifest["shards"]) == 2
        assert all((root / f"shard-{i}.npz").exists() for i in range(2))

        reopened = ShardedKVStore.open(root, config=_config())
        assert reopened.ring.describe() == store.ring.describe()
        for key, value in items:
            assert reopened.get(key) == value
        reports = reopened.recovery_reports()
        assert len(reports) == 2
        assert all(r is not None for r in reports)
        reopened.close()

    def test_open_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedKVStore.open(tmp_path / "nope")

    def _durable(self, root, **kwargs):
        return ShardedKVStore.create(
            root,
            2,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
            key_capacity=16,
            **kwargs,
        )

    def test_open_maintenance_overrides_the_manifest_flag(self, tmp_path):
        def running(store):
            return [
                [w["running"] for w in t["maintenance"]]
                for t in store.telemetry()["shards"]
            ]

        root = tmp_path / "store"
        with self._durable(root, scrubber=True) as store:
            assert running(store) == [[False], [False]]
        with ShardedKVStore.open(
            root, config=_config(), maintenance=True
        ) as store:
            assert running(store) == [[True], [True]]
        # An override is not written back: the manifest's flag stands.
        with ShardedKVStore.open(root, config=_config()) as store:
            assert running(store) == [[False], [False]]

    def test_pre_fold_manifest_is_refused_by_name(self, tmp_path):
        """A manifest as stores written before the two-slot catalog carry
        it — version 2, whose shards keep an undo log (``log_segments``)
        in front of a one-version catalog — is refused by ``open`` and
        reported by the offline checker, both naming the log layout.  At
        this version an unknown shard key is refused too."""
        root = tmp_path / "store"
        with self._durable(root, ring_seed=42) as store:
            store.put_many(_trace(16))
        shard_entry = """{
          "shard_id": %d, "segment_size": 64, "n_segments": 96,
          "durable": true, "key_capacity": 16,
          "seed": %d, "path": %s,
          "scrubber": false, "compactor": false, "maintenance": false,
          "scrub_interval_s": 0.05, "retrain_interval_s": 0.0%s
        }"""
        manifest = """{
          "version": %d,
          "ring": {"n_shards": 2, "seed": 42, "vnodes": 128},
          "backend": "inprocess",
          "shards": [%s, %s]
        }"""

        def write_manifest(version, extra):
            entries = [
                shard_entry
                % (i, 7 + i, json.dumps(str(root / f"shard-{i}.npz")), extra)
                for i in range(2)
            ]
            (root / MANIFEST_NAME).write_text(
                manifest % (version, *entries)
            )

        write_manifest(2, ', "log_segments": 4')
        cause = "manifest version 2 not supported: .* kept an undo log"
        with pytest.raises(ValueError, match=cause):
            ShardedKVStore.open(root, config=_config())
        report = fsck_sharded(root)
        [error] = report.all_errors
        assert re.search(cause, error) and report.shards == []

        write_manifest(MANIFEST_VERSION, ', "compact_budget": 4')
        with pytest.raises(TypeError, match="compact_budget"):
            ShardedKVStore.open(root, config=_config())


class TestShardSnapshot:
    def test_ship_geometry_snapshot_stays_small(self, tmp_path):
        """What ``close()`` writes for one mortal shard of the shipped
        geometry after its half of the 256-key load: content, wear, the
        stuck plane and the small tables.  Storing the per-cell budget
        plane as well would take it to 1.87 MB."""
        root = tmp_path / "store"
        rng = np.random.default_rng(5)
        with ShardedKVStore.create(
            root,
            1,
            segment_size=256,
            n_segments_per_shard=256,
            config=_config(),
            key_capacity=32,
            wearout=WearOutConfig(seed=3),
        ) as store:
            values = rng.integers(0, 256, (128, 200), dtype=np.uint8)
            store.put_many([
                (b"user%05d" % i, row.tobytes())
                for i, row in enumerate(values)
            ])
        assert (root / "shard-0.npz").stat().st_size <= 256 * 1024


class TestWorkerReattach:
    @pytest.mark.xfail(
        strict=True,
        reason="attach builds a fresh device: stuck cells, ECP entries, "
        "health sets and the drift clock of a dead worker are lost "
        "(ROADMAP item 1)",
    )
    def test_reattach_keeps_the_media_state_of_a_worn_shard(self, tmp_path):
        """A durable mortal shard worn to read-only, then re-attached to
        its live media buffer as a restarted worker would be: the media's
        wear state and every acknowledged key must survive."""
        spec = ShardSpec(
            shard_id=0,
            segment_size=SEGMENT_SIZE,
            n_segments=N_SEGMENTS,
            key_capacity=16,
            seed=SEED,
            config=_config(),
            path=str(tmp_path / "shard-0.npz"),
            wearout=WearOutConfig(
                endurance_mean=6, endurance_sigma=0.3, seed=2
            ),
        )
        media = bytearray(spec.capacity_bytes)
        worn = Shard.build(spec, "create", content_buffer=media)
        rng = np.random.default_rng(3)
        acked = {}
        with pytest.raises(StoreReadOnlyError):
            for i in range(5000):
                key = b"key-%d" % (i % 8)
                value = rng.integers(0, 256, 40, dtype=np.uint8).tobytes()
                worn.store.put(key, value)
                acked[key] = value
        stuck = worn.device.stuck_cell_count()
        retired = set(worn.device.health.retired)
        assert stuck > 0 and retired

        restarted = Shard.build(spec, "attach", content_buffer=media)
        assert restarted.device.stuck_cell_count() == stuck
        assert restarted.device.health.retired == retired
        for key, value in acked.items():
            assert restarted.store.get(key) == value


def _shard_telemetry(
    shard_id,
    *,
    count,
    seconds,
    hits=0,
    served=0,
    writes=0,
    max_wear=0,
    total_wear=0,
    read_only=False,
):
    return {
        "shard_id": shard_id,
        "n_keys": 10,
        "read_only": read_only,
        "model_epoch": 1,
        "maintenance": [],
        "placement": {
            "cache_hits": hits,
            "cache_misses": 1,
            "cache_evictions": 0,
            "cache_invalidations": 0,
            "cache_entries": 2,
            "cache_capacity": 64,
            "student_served": served,
            "student_deferred": 0,
            "teacher_served": 1,
        },
        "prediction": {"count": count, "seconds": seconds},
        "retrain": {"started": 1, "succeeded": 1, "failed": 0, "deferred": 0},
        "device": {
            "writes": writes,
            "reads": 0,
            "bits_programmed": 8 * writes,
            "bits_flipped": writes,
            "write_energy_pj": 2.0 * writes,
            "read_energy_pj": 0.0,
            "write_latency_ns": 150.0 * writes,
            "read_latency_ns": 0.0,
        },
        "wear": {
            "max_segment_writes": max_wear,
            "total_segment_writes": total_wear,
        },
    }


#: Leaf kinds of a synthetic counter section: numbers sum, the rest (flags,
#: names, errors) must not reach the rollup.
_LEAF_KINDS = {
    "int": st.integers(0, 10**9),
    "float": st.floats(0.0, 1e9, allow_nan=False),
    "bool": st.booleans(),
    "str": st.text(max_size=3),
    "none": st.none(),
}
_NAMES = st.sampled_from(["a", "b", "c"])


def _nested(inner):
    return st.dictionaries(_NAMES, inner, min_size=1, max_size=3)


_SCHEMA = st.recursive(
    st.sampled_from(sorted(_LEAF_KINDS)), _nested, max_leaves=8
)


def _fill(draw, schema):
    if isinstance(schema, dict):
        return {key: _fill(draw, sub) for key, sub in schema.items()}
    return draw(_LEAF_KINDS[schema])


@st.composite
def _fleets(draw):
    """1-4 shard dicts sharing one random layout of counter sections; a
    section may be missing on some shards (a scrubber on one only)."""
    sections = draw(
        st.dictionaries(
            st.sampled_from(["placement", "device", "scrub", "compaction"]),
            st.dictionaries(_NAMES, _SCHEMA, min_size=1, max_size=3),
            max_size=3,
        )
    )
    shards = []
    for shard_id in range(draw(st.integers(1, 4))):
        t = {
            "shard_id": shard_id,
            "read_only": draw(st.booleans()),
            "model_epoch": draw(st.integers(0, 9)),
            "maintenance": [],
            "prediction": {
                "count": draw(st.integers(0, 10**6)),
                "seconds": draw(st.floats(0.0, 100.0)),
            },
            "wear": {
                "max_segment_writes": draw(st.integers(0, 10**4)),
                "total_segment_writes": draw(st.integers(0, 10**6)),
            },
        }
        for name, schema in sections.items():
            if draw(st.booleans()):
                t[name] = _fill(draw, schema)
        shards.append(t)
    return shards


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _is_counter(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TestTelemetryAggregation:
    def test_latency_is_weighted_by_count_not_averaged(self):
        # Shard 0: 3 predictions at 1 us.  Shard 1: 30000 at 100 us.  The
        # naive average of means would say ~50 us; the fleet really runs
        # at ~100 us.
        rollup = aggregate_telemetry(
            [
                _shard_telemetry(0, count=3, seconds=3e-6),
                _shard_telemetry(1, count=30_000, seconds=3.0),
            ]
        )
        assert rollup["prediction"]["count"] == 30_003
        assert rollup["mean_prediction_latency_us"] == pytest.approx(
            3.000003 / 30_003 * 1e6
        )
        assert rollup["mean_prediction_latency_us"] > 99.0

    def test_counters_sum_and_extrema(self):
        shards = [
            _shard_telemetry(
                0, count=1, seconds=1e-6, hits=10, served=5,
                writes=100, max_wear=7, total_wear=40,
            ),
            _shard_telemetry(
                1, count=1, seconds=1e-6, hits=20, served=2,
                writes=50, max_wear=12, total_wear=30, read_only=True,
            ),
        ]
        rollup = aggregate_telemetry(shards)
        assert rollup["placement"]["cache_hits"] == 30
        assert rollup["placement"]["student_served"] == 7
        assert rollup["device"]["writes"] == 150
        assert rollup["device"]["write_energy_pj"] == pytest.approx(300.0)
        assert rollup["wear"]["max_segment_writes"] == 12  # max, not sum
        assert rollup["wear"]["total_segment_writes"] == 70
        assert rollup["retrain"]["started"] == 2
        # Shard state is not summed: it stays per shard.
        assert rollup["shards"] == shards
        assert [t["read_only"] for t in rollup["shards"]] == [False, True]
        assert not {"n_keys", "read_only", "model_epoch"} & set(rollup)

    def test_zero_predictions_do_not_divide_by_zero(self):
        rollup = aggregate_telemetry(
            [_shard_telemetry(0, count=0, seconds=0.0)]
        )
        assert rollup["mean_prediction_latency_us"] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(_fleets())
    def test_one_rule_sums_every_counter_leaf(self, shards):
        rollup = aggregate_telemetry(shards)
        sections = {
            key for t in shards for key, value in t.items()
            if isinstance(value, dict)
        }
        assert set(rollup) == sections | {
            "mean_prediction_latency_us", "shards"
        }
        assert rollup["shards"] == shards
        # Scalars and flags appear only per shard, never in a section.
        summed = {key: rollup[key] for key in sections}
        assert all(_is_counter(v) for _, v in _leaves(summed))
        for t in shards:
            for path, value in _leaves(
                {k: v for k, v in t.items() if k in sections}
            ):
                if not _is_counter(value):
                    continue
                if path == ("wear", "max_segment_writes"):
                    expected = max(s["wear"][path[1]] for s in shards)
                else:
                    expected = 0
                    for s in shards:
                        try:
                            expected += _at(s, path)
                        except KeyError:
                            pass  # this shard lacks the section
                assert _at(rollup, path) == pytest.approx(expected)
        count = sum(t["prediction"]["count"] for t in shards)
        seconds = sum(t["prediction"]["seconds"] for t in shards)
        assert rollup["mean_prediction_latency_us"] == pytest.approx(
            seconds / count * 1e6 if count else 0.0
        )

    def test_live_two_shard_rollup_matches_per_shard_sums(self):
        store = ShardedKVStore.create_volatile(
            2,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
        )
        store.put_many(_trace(24))
        rollup = store.telemetry()
        per_shard = rollup["shards"]
        assert rollup["prediction"]["count"] == sum(
            t["prediction"]["count"] for t in per_shard
        )
        assert rollup["placement"]["cache_misses"] == sum(
            t["placement"]["cache_misses"] for t in per_shard
        )
        assert sum(t["n_keys"] for t in per_shard) == 24
        store.close()

    @pytest.mark.parametrize(
        "backend",
        ["inprocess", pytest.param("process", marks=pytest.mark.sharding)],
    )
    def test_device_section_is_the_sum_of_each_shards_stats(self, backend):
        """The facade's ``device`` section carries every ``DeviceStats``
        field, summed over shards — on worker processes too, where each
        shard's stats cross the pipe inside its telemetry dict."""
        with ShardedKVStore.create_volatile(
            2,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
            backend=backend,
        ) as store:
            items = _trace(24)
            store.put_many(items)
            store.get_many([k for k, _ in items])
            rollup = store.telemetry()
            if backend == "inprocess":
                per_shard = [
                    store.backend.shard(s).device.stats for s in range(2)
                ]
            else:
                per_shard = [
                    DeviceStats(**t["device"]) for t in rollup["shards"]
                ]
        total = sum(per_shard, DeviceStats())
        assert rollup["device"] == asdict(total)
        assert total.writes == len(items)
        assert total.reads > 0

    def test_wear_counts_object_segments_only(self, tmp_path):
        """The catalog region is exempt from wear-out, so its writes are
        not wear: one key updated 60 times rewrites its catalog record 60
        times, but spreads its values over the object segments."""
        with ShardedKVStore.create(
            tmp_path / "store",
            1,
            segment_size=SEGMENT_SIZE,
            n_segments_per_shard=N_SEGMENTS,
            config=_config(),
            key_capacity=16,
        ) as store:
            for i in range(60):
                store.put(b"hot", b"value-%04d" % i)
            wear = store.telemetry()["wear"]
            shard = store.backend.shard(0)
            counts = shard.device.segment_write_count
            objects = counts[shard.pool.meta_segments :]
        assert counts[: shard.pool.meta_segments].max() >= 60
        assert wear == {
            "max_segment_writes": int(objects.max()),
            "total_segment_writes": int(objects.sum()),
        }
        assert wear["max_segment_writes"] < 60
