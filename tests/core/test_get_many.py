"""Batched GET: ``KVStore.get_many`` is the twin of a loop of ``get`` calls
— same values, same errors, same repairs, same device reads — while a
shard serves a whole batch with one device gather."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kvstore import CorruptValueError
from repro.nvm import DriftConfig, WearOutConfig
from repro.sharding.shard import Shard, ShardSpec
from repro.testing import FaultInjector, KVCrashHarness

from tests.conftest import assert_stats_equal

DRIFT = DriftConfig(retention_mean=10, retention_sigma=0.3, seed=3)
#: Value lengths: several per store, so a gather has lone-length rows too.
LENGTHS = (24, 40, 40, 48, 48, 48)


def fill(store, n_keys, seed):
    rng = np.random.default_rng(seed)
    oracle = {}
    for i in range(n_keys):
        key = b"g%02d" % i
        size = int(rng.choice(LENGTHS))
        oracle[key] = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        store.put(key, oracle[key])
    return oracle


@pytest.fixture(scope="module")
def plain():
    """Durable store over immortal, drift-free media: 12 live keys, 4
    deleted ones and 4 never written."""
    harness = KVCrashHarness(seed=7)
    _, _, store = harness.fresh(FaultInjector())
    written = fill(store, n_keys=16, seed=5)
    for key in list(written)[::4]:
        store.delete(key)
    return store, sorted(written) + [b"never-%d" % i for i in range(4)]


@pytest.fixture(scope="module")
def mortal():
    return KVCrashHarness(
        n_segments=48, seed=7, wearout=WearOutConfig(seed=3), drift=DRIFT
    )


class TestTwinOfAGetLoop:
    @given(picks=st.lists(st.integers(0, 19), max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_values_and_device_reads(self, plain, picks):
        store, universe = plain
        keys = [universe[i] for i in picks]  # absent, deleted, repeated
        stats = store.engine.controller.stats
        before = stats.snapshot()
        got = store.get_many(keys)
        between = stats.snapshot()
        expected = [store.get(key) for key in keys]
        assert got == expected
        assert_stats_equal(between - before, stats.snapshot() - between)

    def test_scan_gathers_the_range(self, plain):
        store, universe = plain
        stats = store.engine.controller.stats
        before = stats.snapshot()
        got = store.scan(b"g03", b"g11")
        between = stats.snapshot()
        in_range = [k for k in universe if b"g03" <= k <= b"g11"]
        expected = [(k, store.get(k)) for k in in_range]
        assert got == [(k, v) for k, v in expected if v is not None]
        assert_stats_equal(between - before, stats.snapshot() - between)


class TestCorruptAndRepairParity:
    """On mortal, drifting media a CRC-failed row takes the repair ladder
    of ``get``: the same repairs, the same ``CorruptValueError``, the same
    device work."""

    @given(
        seed=st.integers(0, 2**16),
        # Retention ~10 ticks: 3 drifts some of the values, 100 all.
        ticks=st.sampled_from([0, 3, 100]),
        scrub=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_twin_stores(self, mortal, seed, ticks, scrub):
        twins = []
        for _ in range(2):
            device, _, store = mortal.fresh(FaultInjector())
            oracle = fill(store, n_keys=8, seed=seed)
            if not scrub:
                store.scrubber = None
            device.advance_time(ticks)
            twins.append((store, device.stats.snapshot()))
        (scalar, scalar_start), (batched, batched_start) = twins
        keys = list(oracle)
        random.Random(seed).shuffle(keys)

        # The loop stops at its first unrepairable key; the batch is cut
        # there too, so both have read the same keys.
        expected, failure = [], None
        for key in keys:
            try:
                expected.append(scalar.get(key))
            except CorruptValueError as exc:
                failure = str(exc)
                break
        keys = keys[: len(expected) + (failure is not None)]
        if failure is None:
            assert batched.get_many(keys) == expected
            assert expected == [oracle[k] for k in keys]
        else:
            with pytest.raises(CorruptValueError) as info:
                batched.get_many(keys)
            assert str(info.value) == failure

        assert_stats_equal(
            batched.engine.controller.stats.snapshot() - batched_start,
            scalar.engine.controller.stats.snapshot() - scalar_start,
        )
        assert batched.corrupt_reads_detected == scalar.corrupt_reads_detected
        assert batched.read_repairs == scalar.read_repairs
        if scrub:
            assert batched.scrubber.stats == scalar.scrubber.stats

    def test_repeat_after_a_scrubber_repair_pays_one_more_reread(
        self, mortal
    ):
        """The documented difference: a key repeated after its scrubber
        repair was gathered before that repair, so its copy fails its CRC
        once more and the ECP re-read (of the now healed segment) repairs
        it — one more read, detection and repair than the loop."""
        twins = []
        for _ in range(2):
            device, _, store = mortal.fresh(FaultInjector())
            oracle = fill(store, n_keys=4, seed=5)
            device.advance_time(100)  # every value drifted past its CRC
            twins.append((store, store.engine.controller.stats.snapshot()))
        (scalar, scalar_start), (batched, batched_start) = twins
        first, second = list(oracle)[:2]
        keys = [first, second, first]

        assert [scalar.get(k) for k in keys] == [oracle[k] for k in keys]
        assert batched.get_many(keys) == [oracle[k] for k in keys]

        extra = dataclasses.replace(
            batched.engine.controller.stats.snapshot() - batched_start,
            read_energy_pj=0.0,
            read_latency_ns=0.0,
        )
        loop = dataclasses.replace(
            scalar.engine.controller.stats.snapshot() - scalar_start,
            read_energy_pj=0.0,
            read_latency_ns=0.0,
        )
        assert extra.reads == loop.reads + 1
        assert extra.bytes_read == loop.bytes_read + len(oracle[first])
        assert dataclasses.replace(
            extra, reads=loop.reads, bytes_read=loop.bytes_read
        ) == loop
        assert batched.corrupt_reads_detected == (
            scalar.corrupt_reads_detected + 1
        )
        assert batched.read_repairs == scalar.read_repairs + 1
        assert batched.scrubber.stats == scalar.scrubber.stats


class TestOneGatherPerShard:
    def test_batch_is_one_read_arrays_call(self, monkeypatch):
        device, pool, store = KVCrashHarness(seed=7).fresh(FaultInjector())
        rng = np.random.default_rng(3)
        keys = [b"b%02d" % i for i in range(16)]
        values = [
            rng.integers(0, 256, 48, dtype=np.uint8).tobytes() for _ in keys
        ]
        store.put_many(list(zip(keys, values)))
        shard = Shard(ShardSpec(0, 64, 96), store, device, pool)
        calls = {"read_array": 0, "read_arrays": 0}
        for name in calls:
            original = getattr(device, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(device, name, counted)
        got = shard.execute("get_many", (keys + [b"absent"],))
        assert calls == {"read_array": 0, "read_arrays": 1}
        assert got == values + [None]
