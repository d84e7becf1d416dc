"""A shard restart is an ``open`` of its live medium: everything the medium
carries — wear, stuck cells, ECP entries, health sets, drift planes and
clock — must come back exactly as a twin that never restarted holds it,
and every acknowledged key must read back, then and after further ops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import fast_test_config
from repro.core.kvstore import StoreReadOnlyError
from repro.nvm.device import DriftConfig, WearOutConfig
from repro.nvm.scrubber import Scrubber
from repro.sharding.shard import Shard, ShardSpec

_KEY = st.integers(0, 7).map(lambda i: b"key-%d" % i)
_VALUE = st.binary(min_size=1, max_size=40)
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEY, _VALUE),
    st.tuples(
        st.just("put_many"),
        st.lists(
            st.tuples(_KEY, _VALUE), min_size=1, max_size=4,
            unique_by=lambda item: item[0],
        ),
    ),
    st.tuples(st.just("delete"), _KEY),
    st.tuples(st.just("age"), st.integers(1, 6)),
    st.tuples(st.just("advance_time"), st.integers(1, 200)),
)


def _spec(path) -> ShardSpec:
    """Durable, mortal within a few dozen writes, drifting within a few
    hundred ticks."""
    return ShardSpec(
        shard_id=0,
        segment_size=64,
        n_segments=48,
        key_capacity=16,
        seed=7,
        config=fast_test_config(),
        path=str(path),
        wearout=WearOutConfig(endurance_mean=30, endurance_sigma=0.3, seed=2),
        drift=DriftConfig(retention_mean=300, retention_sigma=0.3, seed=4),
    )


def _build(spec: ShardSpec, mode: str, medium) -> Shard:
    shard = Shard.build(spec, mode, medium)
    # Attached, never started: reads repair drift through it in-line.
    Scrubber(shard.store, segments_per_round=spec.n_segments)
    return shard


def _apply(shard: Shard, acked: dict, op) -> None:
    kind, *args = op
    try:
        if kind == "put":
            shard.execute("put", tuple(args))
            acked[args[0]] = args[1]
        elif kind == "put_many":
            shard.execute("put_many", (args[0],))
            acked.update(args[0])
        elif kind == "delete":
            shard.execute("delete", tuple(args))
            acked.pop(args[0], None)
        elif kind == "age":
            shard.execute("age", tuple(args))
        else:
            # The scrubber outpaces retention, as the in-shard loop must.
            shard.execute("advance_time", tuple(args))
            shard.store.scrubber.scrub_round()
    except StoreReadOnlyError:
        pass  # refused whole: nothing of the op landed


def _medium(shard: Shard) -> dict:
    device = shard.device
    everything = (0, device.capacity_bytes)
    return {
        "content": device.peek(*everything),
        "wear": device.wear_count(),
        "segment_write_count": device.segment_write_count.copy(),
        "stuck": device.stuck_mask(*everything),
        "drifted": device.drift_mask(*everything),
        "last_program": device._last_program_tick.copy(),
        "clock": device.clock,
        "ecp": device.ecc.state_arrays(),
        "health": device.health.snapshot_arrays(),
    }


def _assert_reads(shard: Shard, acked: dict) -> None:
    assert sorted(shard.store.keys()) == sorted(acked)
    for key, value in acked.items():
        assert shard.store.get(key) == value, key


@settings(max_examples=40, deadline=None)
@given(before=st.lists(_OPS, max_size=40), after=st.lists(_OPS, max_size=10))
def test_a_restart_keeps_the_medium_and_every_acked_key(
    tmp_path_factory, before, after
):
    spec = _spec(tmp_path_factory.mktemp("restart") / "shard-0.npz")
    medium = bytearray(spec.block_bytes("create"))
    shard, twin = _build(spec, "create", medium), _build(spec, "create", None)
    acked, twin_acked = {}, {}
    for op in before:
        _apply(shard, acked, op)
        _apply(twin, twin_acked, op)

    shard = _build(spec, "open", medium)
    got, want = _medium(shard), _medium(twin)
    for name in want:
        np.testing.assert_equal(got[name], want[name], err_msg=name)
    assert acked == twin_acked
    # The reopened shard's sketch words, rebuilt from the medium alone,
    # are the ones the twin kept up to date write by write.
    np.testing.assert_array_equal(
        shard.engine.sketch.words, twin.engine.sketch.words
    )
    _assert_reads(shard, acked)

    for op in after:
        _apply(shard, acked, op)
        _apply(twin, twin_acked, op)
    _assert_reads(shard, acked)
    _assert_reads(twin, twin_acked)


def _seeded_ops(seed: int, n_ops: int = 40) -> list:
    """A seeded run of the property's operations (``_OPS``' ranges)."""
    rng = np.random.default_rng(seed)

    def value() -> bytes:
        return rng.bytes(int(rng.integers(1, 41)))

    ops = []
    for _ in range(n_ops):
        kind = int(rng.integers(5))
        key = b"key-%d" % rng.integers(8)
        if kind == 0:
            ops.append(("put", key, value()))
        elif kind == 1:
            keys = rng.choice(8, int(rng.integers(1, 5)), replace=False)
            ops.append(("put_many", [(b"key-%d" % k, value()) for k in keys]))
        elif kind == 2:
            ops.append(("delete", key))
        elif kind == 3:
            ops.append(("age", int(rng.integers(1, 7))))
        else:
            ops.append(("advance_time", int(rng.integers(1, 201))))
    return ops


@pytest.mark.parametrize("seed", [4, 5, 7, 8])
def test_a_cell_that_drifts_then_wears_out_keeps_acked_values(
    tmp_path, seed
):
    """Cells drift, ``age`` kills some of them in place, a scrub round
    follows every tick: every acknowledged key still reads back on a
    shard that never restarted (each seed read ``CorruptValueError``
    while a dead cell kept its drift flag)."""
    shard = _build(_spec(tmp_path / "shard-0.npz"), "create", None)
    acked = {}
    for op in _seeded_ops(seed):
        _apply(shard, acked, op)
    _assert_reads(shard, acked)
