"""Consistent-hash ring: stability, determinism, balance.

The ring is the routing contract of the sharded store: the facade in the
parent and any tooling in any other process must agree on every key's
owner, forever, from nothing but ``(n_shards, seed, vnodes)``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import HashRing
from repro.sharding import ring as ring_module

keys = st.binary(min_size=0, max_size=64)


class TestRouting:
    @given(key=keys, n_shards=st.integers(1, 16), seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_same_key_same_shard(self, key, n_shards, seed):
        ring = HashRing(n_shards, seed=seed, vnodes=16)
        first = ring.shard_of(key)
        assert 0 <= first < n_shards
        assert ring.shard_of(key) == first

    @given(key=keys, n_shards=st.integers(1, 16), seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_deterministic_across_instances(self, key, n_shards, seed):
        # Two independently built rings (fresh point tables) must agree —
        # this is what lets any process rebuild routing from the manifest.
        a = HashRing(n_shards, seed=seed, vnodes=16)
        b = HashRing(n_shards, seed=seed, vnodes=16)
        assert a.shard_of(key) == b.shard_of(key)

    @given(st.lists(keys, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_partition_matches_shard_of_and_preserves_order(self, key_list):
        ring = HashRing(4, seed=3, vnodes=32)
        groups = ring.partition(key_list)
        seen = sorted(i for idxs in groups.values() for i in idxs)
        assert seen == list(range(len(key_list)))
        for shard, idxs in groups.items():
            assert idxs == sorted(idxs)  # input order within each group
            for i in idxs:
                assert ring.shard_of(key_list[i]) == shard

    def test_single_shard_takes_everything(self):
        ring = HashRing(1, seed=9)
        assert all(
            ring.shard_of(b"key-%d" % i) == 0 for i in range(100)
        )


class TestPinnedRouting:
    """Positions and owners recorded before the ring hashed off one
    pre-keyed hasher: stores on disk must keep routing every key to the
    shard that holds it.  ``pin-252`` hashes past the last ring point and
    wraps to the first."""

    KEYS = [
        b"", b"a", b"user0000000042", bytes(range(32)), b"\xff" * 17,
        b"pin-252",
    ] + [b"pin-%d" % i for i in range(6)]
    HASHES = [
        8925204107607939296, 17866401776938812617, 15719847440761660162,
        14901966613898472208, 6687594985562762914, 18408742390219113166,
        17532957536989631351, 4366034338137758070, 4179790909600410628,
        10109028904474458644, 2623072771874338945, 8695582716038473589,
    ]

    @pytest.mark.parametrize(
        "manifest, owners, groups",
        [
            (
                {"n_shards": 3, "seed": 11, "vnodes": 16},
                [0, 1, 2, 2, 2, 0, 2, 2, 2, 1, 2, 1],
                {0: [0, 5], 1: [1, 9, 11], 2: [2, 3, 4, 6, 7, 8, 10]},
            ),
            (
                {
                    "n_shards": 3, "seed": 11, "vnodes": 16,
                    "weights": [2.0, 1.0, 0.5],
                },
                [0, 0, 0, 0, 0, 0, 1, 2, 2, 1, 0, 1],
                {0: [0, 1, 2, 3, 4, 5, 10], 1: [6, 9, 11], 2: [7, 8]},
            ),
        ],
        ids=["uniform", "weighted"],
    )
    def test_manifest_ring_routes_as_recorded(self, manifest, owners, groups):
        ring = HashRing(**manifest)
        assert [ring.hash_key(k) for k in self.KEYS] == self.HASHES
        assert [ring.shard_of(k) for k in self.KEYS] == owners
        assert ring.partition(self.KEYS) == groups
        assert ring.describe() == manifest

    def test_partition_refuses_non_bytes(self):
        with pytest.raises(TypeError):
            HashRing(2).partition([b"ok", "not-bytes"])
        with pytest.raises(TypeError):
            HashRing(2).partition([bytearray(b"mutable")])


class TestBalance:
    def test_near_uniform_distribution(self):
        # Deterministic (fixed seeds) rather than hypothesis-driven: balance
        # is a statistical property and random seeds would make it flaky.
        rng = np.random.default_rng(5)
        sample = [rng.bytes(16) for _ in range(8000)]
        for seed in (0, 1, 17):
            ring = HashRing(4, seed=seed, vnodes=128)
            counts = np.zeros(4, dtype=np.int64)
            for key in sample:
                counts[ring.shard_of(key)] += 1
            share = counts / counts.sum()
            # Every shard within 2x of fair share on both sides.
            assert share.min() > 0.125, (seed, share)
            assert share.max() < 0.5, (seed, share)

    def test_more_vnodes_do_not_break_coverage(self):
        ring = HashRing(8, seed=2, vnodes=256)
        owners = {ring.shard_of(b"k%05d" % i) for i in range(4000)}
        assert owners == set(range(8))


class TestConstruction:
    def test_describe_round_trip(self):
        ring = HashRing(5, seed=11, vnodes=64)
        twin = HashRing(**ring.describe())
        for i in range(200):
            key = b"rt-%d" % i
            assert ring.shard_of(key) == twin.shard_of(key)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)
        with pytest.raises(ValueError):
            HashRing(2, seed=-1)
        with pytest.raises(TypeError):
            HashRing(2).shard_of("not-bytes")

    def test_seed_changes_routing(self):
        a = HashRing(4, seed=0)
        b = HashRing(4, seed=1)
        sample = [b"s-%d" % i for i in range(500)]
        assert any(a.shard_of(k) != b.shard_of(k) for k in sample)


class TestWeights:
    def test_weight_skews_key_share(self):
        rng = np.random.default_rng(3)
        sample = [rng.bytes(16) for _ in range(8000)]
        ring = HashRing(3, seed=5, vnodes=64, weights=(2.0, 1.0, 1.0))
        counts = np.zeros(3, dtype=np.int64)
        for key in sample:
            counts[ring.shard_of(key)] += 1
        share = counts / counts.sum()
        # Shard 0 holds twice the weight: clearly above fair share, and
        # above both unit-weight shards.
        assert share[0] > 0.4, share
        assert share[0] > share[1] and share[0] > share[2], share

    def test_uniform_weights_identical_to_unweighted(self):
        plain = HashRing(4, seed=9, vnodes=32)
        weighted = HashRing(4, seed=9, vnodes=32, weights=(1.0, 1.0, 1.0, 1.0))
        assert plain._hashes == weighted._hashes
        assert plain._owners == weighted._owners
        # ...and the manifest shape of an unweighted ring is unchanged.
        assert plain.describe() == {"n_shards": 4, "seed": 9, "vnodes": 32}
        assert weighted.describe() == plain.describe()

    def test_describe_round_trip_with_weights(self):
        ring = HashRing(3, seed=11, vnodes=48, weights=(1.5, 1.0, 0.25))
        assert ring.describe()["weights"] == [1.5, 1.0, 0.25]
        twin = HashRing(**ring.describe())
        for i in range(300):
            key = b"wrt-%d" % i
            assert ring.shard_of(key) == twin.shard_of(key)

    def test_growing_a_weight_only_adds_points(self):
        base = HashRing(3, seed=2, vnodes=32)
        grown = base.with_weights((2.0, 1.0, 1.0))
        assert set(base._hashes) <= set(grown._hashes)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            HashRing(2, weights=(1.0,))
        with pytest.raises(ValueError):
            HashRing(2, weights=(1.0, 0.0))
        with pytest.raises(ValueError):
            HashRing(2, weights=(1.0, -2.0))
        with pytest.raises(ValueError):
            HashRing(2, weights=(1.0, float("inf")))


class TestDiff:
    def test_diff_requires_same_seed(self):
        with pytest.raises(ValueError):
            HashRing.diff(HashRing(2, seed=0), HashRing(2, seed=1))

    def test_identical_rings_empty_diff(self):
        a = HashRing(4, seed=3, vnodes=32)
        diff = HashRing.diff(a, HashRing(4, seed=3, vnodes=32))
        assert not diff
        assert diff.moved_fraction == 0.0

    def test_covers_matches_owner_change_exactly(self):
        old = HashRing(4, seed=7, vnodes=32)
        new = old.with_weights((2.0, 1.0, 0.5, 1.0))
        diff = HashRing.diff(old, new)
        rng = np.random.default_rng(11)
        for _ in range(3000):
            key = rng.bytes(12)
            moved = old.shard_of(key) != new.shard_of(key)
            assert diff.covers(key) == moved, key
        # Arc metadata agrees with the rings on both endpoints' owners.
        for arc in diff.arcs:
            assert old._owner_at(arc.hi) == arc.source
            assert new._owner_at(arc.hi) == arc.target

    @given(
        seed=st.integers(0, 2**32),
        deltas=st.lists(
            st.floats(-0.4, 0.4, allow_nan=False), min_size=3, max_size=3
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_perturbation_diff_is_exact(self, seed, deltas):
        old = HashRing(3, seed=seed, vnodes=24)
        new = old.with_weights(tuple(1.0 + d for d in deltas))
        diff = HashRing.diff(old, new)
        for i in range(400):
            key = b"hp-%d" % i
            moved = old.shard_of(key) != new.shard_of(key)
            assert diff.covers(key) == moved

    @given(seed=st.integers(0, 2**32), eps=st.floats(0.05, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_moved_fraction_shrinks_with_perturbation(self, seed, eps):
        """A smaller weight change moves no more of the hash space: vnode
        counts round, so shrinking the perturbation can only remove ring
        points from the delta."""
        old = HashRing(3, seed=seed, vnodes=24)
        big = HashRing.diff(old, old.with_weights((1.0 + eps, 1.0, 1.0)))
        small = HashRing.diff(
            old, old.with_weights((1.0 + eps / 2, 1.0, 1.0))
        )
        assert small.moved_fraction <= big.moved_fraction

    def test_wrap_arc_covers_the_ring_top(self):
        from repro.sharding import MovedArc

        arc = MovedArc(lo=2**64 - 10, hi=10, source=0, target=1)
        assert arc.wraps
        assert arc.span == 20
        assert arc.covers_hash(2**64 - 5)
        assert arc.covers_hash(5)
        assert not arc.covers_hash(2**63)


def owners_from_hash(ring: HashRing, key_list) -> list[int]:
    """Each key's owner straight from its ring position, past the memo."""
    return [ring._owner_at(ring.hash_key(k)) for k in key_list]


def groups_of(owners: list[int]) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for i, owner in enumerate(owners):
        groups.setdefault(owner, []).append(i)
    return groups


class TestOwnerMemo:
    """``shard_of`` and ``partition`` answer from a per-ring memo; it must
    route exactly as the ring's points do, cold, warm and across the
    wholesale clear at its bound."""

    @given(
        key_list=st.lists(keys, max_size=48),
        n_shards=st.integers(1, 8),
        seed=st.integers(0, 2**32),
        bound=st.sampled_from([1, 2, 5, ring_module._MEMO_KEYS]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_memoised_routing_equals_the_ring(
        self, key_list, n_shards, seed, bound, data
    ):
        weights = data.draw(
            st.none()
            | st.lists(
                st.floats(0.25, 4.0), min_size=n_shards, max_size=n_shards
            )
        )
        with mock.patch.object(ring_module, "_MEMO_KEYS", bound):
            ring = HashRing(n_shards, seed=seed, vnodes=8, weights=weights)
            expected = owners_from_hash(ring, key_list)
            cold = HashRing(n_shards, seed=seed, vnodes=8, weights=weights)
            assert cold.partition(key_list) == groups_of(expected)
            for _ in range(2):  # cold, then warm
                assert [ring.shard_of(k) for k in key_list] == expected
                assert len(ring._memo) <= bound
                assert ring.partition(key_list) == groups_of(expected)
                assert len(ring._memo) <= bound

    def test_memo_clears_wholesale_at_its_bound(self):
        with mock.patch.object(ring_module, "_MEMO_KEYS", 3):
            ring = HashRing(4, seed=7, vnodes=8)
            key_list = [b"m-%d" % i for i in range(7)]
            for n, key in enumerate(key_list, start=1):
                ring.shard_of(key)
                assert len(ring._memo) == (n - 1) % 3 + 1
            assert list(ring._memo) == key_list[6:]
            assert ring.partition(key_list) == groups_of(
                owners_from_hash(ring, key_list)
            )

    def test_with_weights_ring_keeps_its_own_memo(self):
        old = HashRing(3, seed=11, vnodes=16)
        key_list = [b"w-%d" % i for i in range(400)]
        old_owners = [old.shard_of(k) for k in key_list]
        new = old.with_weights((4.0, 1.0, 0.25))
        assert new._memo == {}
        new_owners = [new.shard_of(k) for k in key_list]
        assert new_owners == owners_from_hash(new, key_list)
        assert [old.shard_of(k) for k in key_list] == old_owners
        diff = HashRing.diff(old, new)
        moved = [a != b for a, b in zip(old_owners, new_owners)]
        assert any(moved)
        assert moved == [diff.covers(k) for k in key_list]

    @pytest.mark.parametrize(
        "bad", ["a", bytearray(b"a"), memoryview(b"a"), 97, None]
    )
    def test_non_bytes_keys_raise_on_a_warm_ring(self, bad):
        ring = HashRing(2, seed=1)
        ring.shard_of(b"a")
        ring.partition([b"a"])
        with pytest.raises(TypeError):
            ring.shard_of(bad)
        with pytest.raises(TypeError):
            ring.partition([b"a", bad])
        assert list(ring._memo) == [b"a"]
