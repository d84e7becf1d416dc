"""Seeded consistent-hash ring mapping keys to shards.

The ring must behave identically in every process that consults it — the
facade routes in the parent while each shard validates in its worker — so
hashing is built on :func:`hashlib.blake2b` keyed by the ring seed, never on
Python's per-process salted ``hash()``.

Consistent hashing (rather than ``crc32(key) % N``) keeps the door open for
shard-count changes: adding a shard moves only the keys whose ring arc it
claims, roughly ``1/N`` of the space, instead of reshuffling almost
everything.  Each shard owns ``vnodes`` points on the ring so arc lengths —
and with them the per-shard key share — stay near-uniform.

**Weights.** A shard's point count scales with its weight
(``max(1, round(vnodes * weight))``), so a shard weighted ``2.0`` owns
roughly twice the key share of a shard weighted ``1.0`` — the knob the
rebalancer turns to steer traffic away from worn channels.  Replica labels
are unchanged (``shard:<id>:<replica>``), so growing a weight only *adds*
points: the shard keeps every arc it already owned and claims new ones,
which is what keeps weight changes incremental instead of a reshuffle.

**Diffs.** :meth:`HashRing.diff` compares two same-seed rings and
enumerates exactly the moved arcs — the half-open hash intervals
``(lo, hi]`` whose owner differs between the rings.  A key changes owner
iff its hash falls in a moved arc (:meth:`RingDiff.covers`), which is the
property the rebalancer (and its Hypothesis test) is built on.

**Owner memo.** Hashing a key costs a blake2b copy, update and digest
plus a ``bisect``; every routed key pays it, and a working set asks for
the same keys again and again.  Each ring keeps a ``key -> owner`` dict
that :meth:`HashRing.shard_of` and :meth:`HashRing.partition` consult
first, bounded by :data:`_MEMO_KEYS` and cleared wholesale when full.
Rings are immutable (``with_weights`` builds a new one), so a memo is
never invalidated: the two rings of a rebalance each keep their own.
Threads may share a ring unlocked: every entry is its key's one owner,
so a race can only over- or under-fill the memo, never misroute.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import struct
from dataclasses import dataclass

_POINT = struct.Struct("<Q")

_SPACE = 2**64

#: Keys one ring's owner memo holds before it is cleared wholesale.
_MEMO_KEYS = 4096


def _hash64(data: bytes, seed: int) -> int:
    """Stable 64-bit hash of ``data`` under ``seed`` (process-independent)."""
    digest = hashlib.blake2b(
        data, digest_size=8, key=seed.to_bytes(8, "little", signed=False)
    ).digest()
    return _POINT.unpack(digest)[0]


@dataclass(frozen=True)
class MovedArc:
    """One hash interval ``(lo, hi]`` whose owner changed between rings.

    ``wraps`` marks the arc crossing the top of the ring: it covers
    ``(lo, 2^64) ∪ [0, hi]``.  ``source`` is the old owner (keys there
    must drain away), ``target`` the new one.
    """

    lo: int
    hi: int
    source: int
    target: int

    @property
    def wraps(self) -> bool:
        return self.lo >= self.hi

    @property
    def span(self) -> int:
        """Number of hash values the arc covers."""
        if self.wraps:
            return _SPACE - self.lo + self.hi
        return self.hi - self.lo

    def covers_hash(self, h: int) -> bool:
        if self.wraps:
            return h > self.lo or h <= self.hi
        return self.lo < h <= self.hi


class RingDiff:
    """The exact set of arcs that change owner between two rings.

    Built by :meth:`HashRing.diff`.  ``covers(key)`` is equivalent to
    ``old.shard_of(key) != new.shard_of(key)`` — the moved arcs *are* the
    ownership change, not an approximation of it.
    """

    def __init__(self, arcs: list[MovedArc]) -> None:
        self.arcs = list(arcs)
        self._wrap = next((a for a in self.arcs if a.wraps), None)
        self._plain = sorted(
            (a for a in self.arcs if not a.wraps), key=lambda a: a.hi
        )
        self._his = [a.hi for a in self._plain]
        self.seed: int | None = None

    def covers_hash(self, h: int) -> bool:
        if self._wrap is not None and self._wrap.covers_hash(h):
            return True
        i = bisect.bisect_left(self._his, h)
        return i < len(self._plain) and self._plain[i].covers_hash(h)

    def covers(self, key: bytes) -> bool:
        """Whether ``key`` changes owner (its hash lies in a moved arc)."""
        if self.seed is None:
            raise ValueError("diff carries no seed; use covers_hash")
        return self.covers_hash(_hash64(key, self.seed))

    @property
    def pairs(self) -> set[tuple[int, int]]:
        """Distinct ``(source, target)`` shard pairs with keys in motion."""
        return {(a.source, a.target) for a in self.arcs}

    @property
    def sources(self) -> set[int]:
        return {a.source for a in self.arcs}

    @property
    def moved_fraction(self) -> float:
        """Fraction of the hash space that changed owner."""
        return sum(a.span for a in self.arcs) / _SPACE

    def __len__(self) -> int:
        return len(self.arcs)

    def __bool__(self) -> bool:
        return bool(self.arcs)


class HashRing:
    """Consistent-hash ring over byte keys.

    Args:
        n_shards: number of shards; keys map to ``0 .. n_shards - 1``.
        seed: ring seed.  Two rings built with the same ``(n_shards, seed,
            vnodes, weights)`` make identical routing decisions in any
            process.
        vnodes: virtual nodes per unit of weight; more points mean more
            uniform per-shard key shares at slightly larger ring state.
        weights: optional per-shard weights (positive, finite; length
            ``n_shards``).  A shard owns ``max(1, round(vnodes * weight))``
            ring points, so its expected key share scales with its weight.
            ``None`` means uniform ``1.0`` — identical to the unweighted
            ring, point for point.
    """

    def __init__(
        self,
        n_shards: int,
        seed: int = 0,
        vnodes: int = 128,
        weights=None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if weights is None:
            weights = (1.0,) * n_shards
        else:
            weights = tuple(float(w) for w in weights)
            if len(weights) != n_shards:
                raise ValueError(
                    f"weights has {len(weights)} entries for {n_shards} shards"
                )
            if any(not math.isfinite(w) or w <= 0.0 for w in weights):
                raise ValueError("weights must be positive and finite")
        self.n_shards = n_shards
        self.seed = seed
        self.vnodes = vnodes
        self.weights = weights
        # Keying blake2b costs a compression of the key block: keys are
        # hashed on a ``.copy()`` of this pre-keyed hasher, which gives the
        # digests of :func:`_hash64` at a fraction of the cost.
        self._hasher = hashlib.blake2b(
            digest_size=8, key=seed.to_bytes(8, "little", signed=False)
        )
        points: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(self.vnodes_of(shard)):
                label = b"shard:%d:%d" % (shard, replica)
                points.append((_hash64(label, seed), shard))
        points.sort()
        # Ties (two vnodes hashing identically) would make the owner depend
        # on sort stability of the insertion order; the sort on the (hash,
        # shard) pair resolves them deterministically to the lowest shard.
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]
        self._memo: dict[bytes, int] = {}

    def vnodes_of(self, shard: int) -> int:
        """Ring points owned by ``shard`` under its weight."""
        return max(1, round(self.vnodes * self.weights[shard]))

    def hash_key(self, key: bytes) -> int:
        """The key's 64-bit ring position (exposed for diff/arc tooling)."""
        if not isinstance(key, bytes):
            raise TypeError("keys must be bytes")
        hasher = self._hasher.copy()
        hasher.update(key)
        return _POINT.unpack(hasher.digest())[0]

    def _owner_at(self, h: int) -> int:
        """Owner of hash position ``h``: the first ring point at or after
        it, wrapping past the top of the ring."""
        i = bisect.bisect_left(self._hashes, h)
        if i == len(self._hashes):
            i = 0
        return self._owners[i]

    def _learn(self, key: bytes) -> int:
        """Owner of ``key`` from its hash, remembered in the memo."""
        owner = self._owner_at(self.hash_key(key))
        if len(self._memo) >= _MEMO_KEYS:
            self._memo.clear()
        self._memo[key] = owner
        return owner

    def shard_of(self, key: bytes) -> int:
        """Owning shard of ``key``."""
        owner = self._memo.get(key)
        # A memoryview equal to a memoised key would hit: the type check
        # sends it to ``hash_key``, which refuses it.
        if owner is None or type(key) is not bytes:
            owner = self._learn(key)
        return owner

    def partition(self, keys) -> dict[int, list[int]]:
        """Group key *indices* by owning shard, preserving input order
        within each group — the facade's batch-routing primitive.

        The memo lookup of :meth:`shard_of` is inlined: a batch is one
        call, not one per key."""
        groups: dict[int, list[int]] = {}
        memo = self._memo
        for i, key in enumerate(keys):
            owner = memo.get(key)
            if owner is None or type(key) is not bytes:
                owner = self._learn(key)
            groups.setdefault(owner, []).append(i)
        return groups

    def with_weights(self, weights) -> "HashRing":
        """A new ring with the same shard count/seed/vnodes and the given
        weights — the rebalancer's plan primitive."""
        return HashRing(
            self.n_shards, seed=self.seed, vnodes=self.vnodes, weights=weights
        )

    def describe(self) -> dict:
        """Ring parameters for the manifest (rebuild with ``HashRing(**d)``).

        ``weights`` is emitted only when non-uniform, so manifests of
        unweighted stores — including every pre-weights manifest on disk —
        keep their exact shape and round-trip unchanged."""
        out = {
            "n_shards": self.n_shards,
            "seed": self.seed,
            "vnodes": self.vnodes,
        }
        if any(w != 1.0 for w in self.weights):
            out["weights"] = list(self.weights)
        return out

    @staticmethod
    def diff(old: "HashRing", new: "HashRing") -> RingDiff:
        """Enumerate exactly the arcs whose owner differs between two
        same-seed rings.

        The union of both rings' points splits the hash space into
        elementary arcs on which both ownership functions are constant;
        each arc where they disagree becomes a :class:`MovedArc` (adjacent
        arcs moving between the same pair coalesce).  A key changes owner
        iff its hash lies in a moved arc — exactly, not approximately.
        """
        if old.seed != new.seed:
            raise ValueError(
                "rings hash with different seeds; their positions are not "
                "comparable"
            )
        bounds = sorted(set(old._hashes) | set(new._hashes))
        arcs: list[MovedArc] = []
        for i, hi in enumerate(bounds):
            # i == 0 pairs with bounds[-1]: the wrap arc over the ring top.
            lo = bounds[i - 1]
            source = old._owner_at(hi)
            target = new._owner_at(hi)
            if source == target:
                continue
            if (
                arcs
                and arcs[-1].hi == lo
                and arcs[-1].source == source
                and arcs[-1].target == target
            ):
                arcs[-1] = MovedArc(
                    lo=arcs[-1].lo, hi=hi, source=source, target=target
                )
            else:
                arcs.append(MovedArc(lo=lo, hi=hi, source=source, target=target))
        diff = RingDiff(arcs)
        diff.seed = old.seed
        return diff
