"""`ShardedKVStore`: one KV facade over N independent shard slices.

The facade owns a :class:`~repro.sharding.ring.HashRing` and an execution
backend (in-process or per-shard worker processes) and presents the same
surface as a single :class:`~repro.core.kvstore.KVStore`:

- Point ops route by the ring to exactly one shard.
- Batch ops (``put_many``/``get_many``) partition their keys by shard and
  issue **one engine call per shard** — batched inference inside each
  shard is preserved, and with the process backend the per-shard
  sub-batches run concurrently on real cores.
- Epoch-bumping events (``retrain()``) broadcast per shard; each shard
  bumps its own model epoch under its own lock — there is no global lock
  to convoy on.
- Telemetry aggregates across shards with counter-correct semantics: plain
  counters sum, latencies are re-derived from summed ``(seconds, count)``
  pairs (weighted by count — never an average of per-shard means).

Shard faults degrade per policy instead of poisoning the whole facade.
``degraded`` picks what happens when a shard is unavailable (crashed,
hung, or breaker-open — see :mod:`repro.sharding.supervisor`):

- ``"fail_fast"`` (default, PR-8 behaviour): raise immediately; batch
  survivors' results still ride on the exception (``partial_results``).
- ``"partial"``: ``put_many``/``get_many`` return a :class:`BatchReport`
  — a list of results with an explicit per-key ``outcomes`` report
  (``"ok"`` / ``"crashed"`` / ``"hung"`` / ``"breaker_open"``) — so
  survivors' committed work is *used*, not discarded.  Reads routed at a
  breaker-open shard are answered as misses without touching it.

Durable stores live in a directory: one device snapshot per shard plus a
JSON manifest recording the shard count, ring parameters and per-shard
geometry/paths, so ``open()`` rebuilds the identical ring (same routing)
and recovers shard by shard — in parallel under the process backend.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from pathlib import Path

from repro.core.config import E2NVMConfig
from repro.sharding.backends import (
    DEFAULT_CLOSE_GRACE_S,
    DEFAULT_DEADLINE_S,
    ShardBackend,
    ShardUnavailableError,
)
from repro.sharding.rebalance import (
    RebalanceError,
    RebalanceInProgressError,
    RebalanceJournal,
    Rebalancer,
)
from repro.sharding.ring import HashRing
from repro.sharding.shard import ShardSpec
from repro.sharding.supervisor import ShardCircuitOpenError

DEGRADED_MODES = ("fail_fast", "partial")

MANIFEST_NAME = "manifest.json"
#: 3: every shard's catalog record keeps two self-checking slots and
#: there is no undo log (:mod:`repro.pmem.catalog`).
MANIFEST_VERSION = 3


def check_manifest_version(manifest: dict) -> None:
    """Refuse a manifest of another version: the one rule
    :meth:`ShardedKVStore.open` and the offline checker share.  Versions
    1 and 2 put an undo log in front of a one-version catalog; read with
    this layout, a crashed shard's half-applied transaction would never
    be rolled back.

    Raises:
        ValueError: naming the version and the layout this code reads.
    """
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"manifest version {version} not supported: this code reads "
            f"version {MANIFEST_VERSION}, whose shards keep two "
            "self-checking slots per catalog record and no log (version 2 "
            "kept an undo log, its flag behind the sequence at byte 8); "
            "recreate the store and reload"
        )

def _sum_counters(sections: list[dict]) -> dict:
    """Leaf-wise sum of ``sections``: numeric, non-bool leaves add, nested
    dicts recurse, and any other leaf (a flag, a name, an error) is left
    out."""
    out: dict = {}
    for section in sections:
        for key, value in section.items():
            if isinstance(value, dict):
                out[key] = _sum_counters([out.get(key, {}), value])
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                out[key] = out.get(key, 0) + value
    return out


def aggregate_telemetry(shard_telemetries: list[dict]) -> dict:
    """Roll per-shard telemetry dicts (from ``Shard._op_telemetry``) into
    one store-level view by one rule: every top-level dict of a shard is a
    counter section, summed across shards by :func:`_sum_counters`;
    top-level scalars and lists are the shard's own state and appear only
    under ``"shards"``.

    Two values are derived after the sum.  ``mean_prediction_latency_us``
    comes from the summed ``prediction`` ``(seconds, count)`` pair, which
    weights each shard by its prediction count: averaging the per-shard
    means instead would let an idle shard (3 predictions) drag the number
    as hard as a busy one (30k).  ``wear.max_segment_writes`` is the
    hottest object segment of any shard, a max rather than a sum.
    """
    shards = list(shard_telemetries)
    out = _sum_counters(
        [{k: v for k, v in t.items() if isinstance(v, dict)} for t in shards]
    )
    prediction = out["prediction"]
    out["mean_prediction_latency_us"] = (
        prediction["seconds"] / prediction["count"] * 1e6
        if prediction["count"]
        else 0.0
    )
    out["wear"]["max_segment_writes"] = max(
        t["wear"]["max_segment_writes"] for t in shards
    )
    out["shards"] = shards
    return out


def _per_shard(
    template: ShardSpec, n_shards: int, base_seed: int, root: Path | None
) -> list[ShardSpec]:
    """One spec per shard from ``template``.  Seeds are distinct: each
    channel's free media starts with its own content mix, so per-shard
    models cluster independently."""
    return [
        replace(
            template,
            shard_id=shard_id,
            seed=base_seed + shard_id,
            path=(
                str(root / f"shard-{shard_id}.npz")
                if root is not None
                else None
            ),
        )
        for shard_id in range(n_shards)
    ]


class BatchReport(list):
    """Result of a degraded-mode batch op: a plain list of per-item
    results (``== [...]`` with a list still holds) plus an explicit
    per-item outcome report.

    ``outcomes[i]`` is ``"ok"`` when ``self[i]`` is a real result, else
    the reason that item's shard did not answer: ``"crashed"``,
    ``"hung"``, ``"breaker_open"`` or ``"error"``.  Failed items hold
    ``None`` — for GET indistinguishable from a miss by value, which is
    exactly why the outcome report exists."""

    def __init__(self, results, outcomes: list[str]) -> None:
        super().__init__(results)
        self.outcomes = outcomes

    @property
    def ok(self) -> bool:
        """Every item answered by a live shard."""
        return all(o == "ok" for o in self.outcomes)


class ShardedKVStore:
    """N independent shard slices behind one KV facade.

    Build with :meth:`create` (durable, directory-backed),
    :meth:`create_volatile` (benchmark/CI stores with no snapshot files)
    or :meth:`open` (recover an existing directory).  Addresses returned
    by PUT are *shard-local* device addresses; with one shard they match a
    plain :class:`KVStore` byte for byte.
    """

    def __init__(
        self,
        specs: list[ShardSpec],
        mode: str,
        ring: HashRing,
        root: Path | None,
        backend: str,
        degraded: str,
        deadline_s: float | None,
    ) -> None:
        """``create``, ``create_volatile`` and ``open`` differ only in
        where the specs and the ring come from; ``mode`` is
        :meth:`Shard.build`'s."""
        if degraded not in DEGRADED_MODES:
            raise ValueError(
                f"unknown degraded mode {degraded!r}; pick from "
                f"{DEGRADED_MODES}"
            )
        self.backend = ShardBackend(specs, mode, backend, deadline_s)
        self.ring = ring
        self.specs = list(specs)
        self.root = root
        self.backend_name = backend
        self.degraded = degraded
        #: Attached :class:`~repro.sharding.supervisor.ShardSupervisor`
        #: (degraded routing consults its breakers; ``None`` = none).
        self.supervisor = None
        #: Active :class:`~repro.sharding.rebalance.Rebalancer` (``None``
        #: outside a live rebalance).  While set, ``self.ring`` is already
        #: the *new* ring (writes route there) and ``self._old_ring``
        #: holds the previous routing for read fallback.
        self.rebalancer = None
        self._old_ring: HashRing | None = None
        # Serialises foreground deletes against rebalancer move batches —
        # a delete interleaving inside a key's copy window could have its
        # tombstone overwritten by the stale source copy.
        self._rebalance_lock = threading.Lock()
        self._closed = False

    def attach_supervisor(self, supervisor) -> None:
        """Register a :class:`ShardSupervisor` (called by its
        constructor) so degraded-mode routing can skip breaker-open
        shards."""
        self.supervisor = supervisor

    # ----------------------------------------------------------- construction

    @classmethod
    def create(
        cls,
        root: str | Path,
        n_shards: int,
        *,
        segment_size: int = 64,
        n_segments_per_shard: int = 128,
        config: E2NVMConfig | None = None,
        backend: str = "inprocess",
        ring_seed: int = 0,
        vnodes: int = 128,
        weights=None,
        log_segments: int | None = None,
        key_capacity: int = 16,
        scrubber: bool = False,
        compactor: bool = False,
        base_seed: int = 7,
        maintenance: bool = False,
        scrub_interval_s: float = 0.05,
        retrain_interval_s: float = 0.0,
        wearout=None,
        drift=None,
        degraded: str = "fail_fast",
        deadline_s: float | None = DEFAULT_DEADLINE_S,
    ) -> "ShardedKVStore":
        """Create a durable sharded store under directory ``root``.

        Formats ``n_shards`` fresh shard slices (each trains its own
        engine — in parallel under the process backend) and writes the
        manifest.  Device snapshot files appear on :meth:`close`.
        ``deadline_s`` is the per-call response budget (see
        :class:`~repro.sharding.backends.ShardBackend`).
        ``log_segments`` is accepted and ignored: stores have no log, and
        the frozen end-to-end benchmark still passes it.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        # A fresh store must not inherit a previous store's migration
        # intent; creating over a reused directory discards any journal.
        RebalanceJournal(root=root, old_ring={}, new_ring={}).remove()
        ring = HashRing(n_shards, seed=ring_seed, vnodes=vnodes, weights=weights)
        template = ShardSpec(
            shard_id=0,
            segment_size=segment_size,
            n_segments=n_segments_per_shard,
            key_capacity=key_capacity,
            config=config if config is not None else E2NVMConfig(),
            scrubber=scrubber,
            compactor=compactor,
            maintenance=maintenance,
            scrub_interval_s=scrub_interval_s,
            retrain_interval_s=retrain_interval_s,
            wearout=wearout,
            drift=drift,
        )
        store = cls(
            _per_shard(template, n_shards, base_seed, root), "create", ring,
            root, backend, degraded, deadline_s,
        )
        store._write_manifest()
        return store

    @classmethod
    def create_volatile(
        cls,
        n_shards: int,
        *,
        segment_size: int = 64,
        n_segments_per_shard: int = 128,
        config: E2NVMConfig | None = None,
        backend: str = "inprocess",
        base_seed: int = 7,
        degraded: str = "fail_fast",
        deadline_s: float | None = DEFAULT_DEADLINE_S,
    ) -> "ShardedKVStore":
        """Create a volatile sharded store (no pool/catalog, no manifest,
        no maintenance loops, the default ring) — the benchmark
        configuration."""
        template = ShardSpec(
            shard_id=0,
            segment_size=segment_size,
            n_segments=n_segments_per_shard,
            durable=False,
            key_capacity=0,
            config=config if config is not None else E2NVMConfig(),
        )
        return cls(
            _per_shard(template, n_shards, base_seed, None), "create",
            HashRing(n_shards), None, backend, degraded, deadline_s,
        )

    @classmethod
    def open(
        cls,
        root: str | Path,
        *,
        config: E2NVMConfig | None = None,
        backend: str | None = None,
        maintenance: bool | None = None,
        wearout=None,
        drift=None,
        degraded: str = "fail_fast",
        deadline_s: float | None = DEFAULT_DEADLINE_S,
    ) -> "ShardedKVStore":
        """Reopen the store at ``root`` from its manifest: identical ring
        (same routing for every key) and full per-shard recovery —
        catalog resolve, DAP re-adoption — shard by shard, in
        parallel under the process backend.

        ``backend`` overrides the manifest's backend (a store created
        in-process can reopen under workers and vice versa); ``config``
        applies to every shard, like ``KVStore.open``'s config argument —
        as do ``wearout``/``drift``, whose *state* rides in the device
        snapshots.  ``maintenance`` overrides the manifest's flag
        (``None`` keeps it)."""
        root = Path(root)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        check_manifest_version(manifest)
        ring = HashRing(**manifest["ring"])
        code_carried = {
            "config": config if config is not None else E2NVMConfig(),
            "wearout": wearout,
            "drift": drift,
        }
        specs = []
        for entry in manifest["shards"]:
            # An unknown key raises: ``ShardSpec`` refuses it.
            if maintenance is not None:
                entry["maintenance"] = maintenance
            specs.append(ShardSpec(**entry, **code_carried))
        if len(specs) != ring.n_shards:
            raise ValueError(
                f"manifest lists {len(specs)} shards but the ring expects "
                f"{ring.n_shards}"
            )
        store = cls(
            specs, "open", ring, root,
            backend or manifest.get("backend", "inprocess"),
            degraded, deadline_s,
        )
        store._resume_rebalance()
        return store

    def _resume_rebalance(self) -> None:
        """Roll an unfinished ``rebalance.json`` forward on open.

        ``flipped``/``done`` journals crashed after the point of no
        return: finish the flip here (rewrite the manifest with the new
        ring, drop the journal) — every moved key already sits on its new
        owner, so no draining is needed.  ``planned``/``draining``
        journals resume as a live rebalance: dual routing is reinstalled
        and ``self.rebalancer`` is ready to ``drain_until_done`` +
        ``finalize`` (re-copy is safe, delete is last, so resuming
        mid-batch is idempotent)."""
        journal = RebalanceJournal.load(self.root)
        if journal is None:
            return
        new_ring = HashRing(**journal.new_ring)
        if new_ring.n_shards != self.ring.n_shards:
            raise ValueError(
                f"rebalance journal expects {new_ring.n_shards} shards; "
                f"the manifest has {self.ring.n_shards}"
            )
        if journal.state == "done":
            journal.remove()
            return
        if journal.state == "flipped":
            self.ring = new_ring
            self._write_manifest()
            journal.remove()
            return
        # planned/draining: a crash between the plan and the first drain
        # batch is indistinguishable from one mid-drain; both roll forward
        # into draining (writes may or may not have reached new owners —
        # dual-routed reads cover either placement).
        if journal.state == "planned":
            journal.advance("draining")
        self._install_rebalance(Rebalancer(self, journal))

    def _write_manifest(self) -> None:
        manifest = {
            "version": MANIFEST_VERSION,
            "ring": self.ring.describe(),
            "backend": self.backend_name,
            "shards": [spec.manifest_entry() for spec in self.specs],
        }
        path = self.root / MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        tmp.replace(path)

    # ------------------------------------------------------------------- ops

    @property
    def n_shards(self) -> int:
        return self.ring.n_shards

    def shard_of(self, key: bytes) -> int:
        """The shard that owns ``key`` (exposed for tests and tooling)."""
        return self.ring.shard_of(key)

    # ------------------------------------------------------------ rebalancing

    @property
    def rebalance_active(self) -> bool:
        """A rebalance journal is live: writes route by the new ring,
        reads fall back to the old owner, deletes hit both."""
        return self.rebalancer is not None and self._old_ring is not None

    def begin_rebalance(
        self,
        *,
        weights=None,
        batch_size: int = 32,
    ) -> Rebalancer:
        """Plan a rebalance to a re-weighted ring and enter dual routing.

        Writes the ``rebalance.json`` intent journal (atomically) next to
        the manifest and flips the facade into dual routing; the returned
        :class:`Rebalancer` is ready to ``drain`` /``drain_until_done``
        and ``finalize``.  Operator workflow::

            reb = store.begin_rebalance(weights=[2.0, 1.0, 1.0])  # plan
            reb.drain_until_done()                                # drain
            reb.finalize()                                        # flip

        Only the ring's weights change — the shard count is fixed (growing
        the fleet is a different operation: it needs new media, not just
        new routing).  Durable stores only: the journal is what makes a
        mid-migration crash recoverable."""
        if self.root is None:
            raise RebalanceError(
                "volatile stores cannot rebalance (no directory to journal "
                "the migration in)"
            )
        if self.rebalancer is not None:
            raise RebalanceInProgressError(
                "a rebalance is already in flight; finalize it first"
            )
        new_ring = self.ring.with_weights(weights)
        if new_ring.describe() == self.ring.describe():
            raise RebalanceError(
                "new ring routes identically to the current one; nothing "
                "to rebalance"
            )
        journal = RebalanceJournal(
            root=self.root,
            old_ring=self.ring.describe(),
            new_ring=new_ring.describe(),
        )
        journal.write()  # state "planned": the intent is durable
        rebalancer = Rebalancer(self, journal, batch_size=batch_size)
        self._install_rebalance(rebalancer)
        journal.advance("draining")
        return rebalancer

    def _install_rebalance(self, rebalancer: Rebalancer) -> None:
        """Enter dual routing for ``rebalancer`` (fresh plan or resumed
        journal): the new ring takes over ``self.ring`` — ``partition()``
        and every write route by it — while the old ring stays as the
        read-fallback."""
        self._old_ring = rebalancer.old_ring
        self.ring = rebalancer.new_ring
        self.rebalancer = rebalancer

    def _complete_rebalance(self) -> None:
        """Drop dual routing (called by ``Rebalancer.finalize``)."""
        self._old_ring = None
        self.rebalancer = None

    def _breaker_open(self, shard_id: int) -> bool:
        return self.supervisor is not None and self.supervisor.breaker_open(
            shard_id
        )

    def _point_call(self, shard_id: int, op: str, args: tuple):
        """Point-op routing under the degraded policy.

        ``partial`` answers a GET routed at a breaker-open shard as a
        miss (the documented lie of that policy — the outcome report of
        the batch path is how callers see the difference); any *write*
        at an open breaker raises, never silently drops.
        """
        if self._breaker_open(shard_id):
            if self.degraded == "partial" and op == "get":
                return None
            raise ShardCircuitOpenError([shard_id])
        return self.backend.call(shard_id, op, args)

    def put(self, key: bytes, value: bytes) -> int:
        # During a rebalance writes go to the NEW owner only (self.ring is
        # already the new ring) — the drain never copies a key backwards,
        # so a new-owner write can never be shadowed by a stale source copy.
        return self._point_call(self.ring.shard_of(key), "put", (key, value))

    def get(self, key: bytes) -> bytes | None:
        """Point GET; during a live rebalance, new-owner-then-old-owner.

        A miss at the new owner falls back to the previous owner (the key
        may not have drained yet).  Under the ``partial`` policy a
        breaker-open new owner is answered as a miss by ``_point_call``,
        which the same fallback turns into a read from the old owner —
        how moving keys stay readable while one endpoint is down."""
        shard = self.ring.shard_of(key)
        value = self._point_call(shard, "get", (key,))
        if value is None and self.rebalance_active:
            old_shard = self._old_ring.shard_of(key)
            if old_shard != shard:
                value = self._point_call(old_shard, "get", (key,))
        return value

    def delete(self, key: bytes) -> bool:
        """Point DELETE; during a live rebalance it must hit *both*
        owners, atomically with respect to drain batches — otherwise a
        key deleted at the new owner while its source copy is still in a
        batch's copy window would be resurrected by the copy."""
        if not self.rebalance_active:
            return self._point_call(self.ring.shard_of(key), "delete", (key,))
        shard = self.ring.shard_of(key)
        old_shard = self._old_ring.shard_of(key)
        with self._rebalance_lock:
            deleted = self._point_call(shard, "delete", (key,))
            if old_shard != shard:
                deleted = (
                    self._point_call(old_shard, "delete", (key,)) or deleted
                )
        return deleted

    def _fan_out(
        self, op: str, groups: dict[int, list[int]], payload_of, n_items: int
    ) -> BatchReport:
        """Scatter one ``op`` sub-batch per shard and gather per the
        degraded policy.

        ``fail_fast`` raises on the first unavailable shard (survivors'
        results ride on the exception).  ``partial`` skips breaker-open
        shards outright, and unavailable shards' items get ``None`` + an
        outcome tag.
        """
        out: list = [None] * n_items
        outcomes = ["ok"] * n_items
        shards = sorted(groups)
        open_now = [s for s in shards if self._breaker_open(s)]
        if open_now:
            if self.degraded == "fail_fast":
                raise ShardCircuitOpenError(open_now)
            for s in open_now:
                for i in groups[s]:
                    outcomes[i] = "breaker_open"
        run_now = [s for s in shards if s not in open_now]
        if not run_now:
            return BatchReport(out, outcomes)
        requests = [(s, op, (payload_of(s),)) for s in run_now]
        try:
            per_shard = self.backend.call_many(requests)
            statuses = dict.fromkeys(run_now, "ok")
        except ShardUnavailableError as exc:
            if self.degraded == "fail_fast":
                raise
            statuses = exc.shard_status
            per_shard = exc.partial_results or [None] * len(run_now)
        for s, results in zip(run_now, per_shard):
            status = statuses.get(s, "error")
            if status == "ok" and results is not None:
                for i, r in zip(groups[s], results):
                    out[i] = r
            else:
                for i in groups[s]:
                    outcomes[i] = status
        return BatchReport(out, outcomes)

    def put_many(self, items: list[tuple[bytes, bytes]]) -> list[int]:
        """Batched PUT: partition by shard, one ``put_many`` engine call
        per shard (batched inference preserved inside each), results
        scattered back to input order.  Returns a :class:`BatchReport`
        (a list of addresses; under the ``partial`` degraded mode its
        ``outcomes`` tell which items a downed shard dropped)."""
        groups = self.ring.partition([key for key, _ in items])
        return self._fan_out(
            "put_many",
            groups,
            lambda s: [items[i] for i in groups[s]],
            len(items),
        )

    def get_many(self, keys: list[bytes]) -> list[bytes | None]:
        groups = self.ring.partition(keys)
        report = self._fan_out(
            "get_many",
            groups,
            lambda s: [keys[i] for i in groups[s]],
            len(keys),
        )
        if not self.rebalance_active:
            return report
        # Old-owner fallback for misses whose routing changed: one more
        # fan-out over just those keys, partitioned by the OLD ring.  A
        # fallback hit overrides the primary miss; a fallback failure
        # (shard down under ``partial``) must not mask a primary "ok" —
        # the worse outcome tag wins only where the primary also failed.
        pending = [
            i
            for i, v in enumerate(report)
            if v is None
            and self._old_ring.shard_of(keys[i]) != self.ring.shard_of(keys[i])
        ]
        if not pending:
            return report
        sub_keys = [keys[i] for i in pending]
        sub_groups = self._old_ring.partition(sub_keys)
        fallback = self._fan_out(
            "get_many",
            sub_groups,
            lambda s: [sub_keys[j] for j in sub_groups[s]],
            len(sub_keys),
        )
        for j, i in enumerate(pending):
            if fallback[j] is not None:
                report[i] = fallback[j]
                report.outcomes[i] = "ok"
            elif report.outcomes[i] == "ok" and fallback.outcomes[j] != "ok":
                report.outcomes[i] = fallback.outcomes[j]
        return report

    def _broadcast(self, op: str, *args, deadline: float | None = ...) -> list:
        """Run ``op(*args)`` on every shard; results in shard order."""
        return self.backend.call_many(
            [(s, op, args) for s in range(self.n_shards)],
            deadline=deadline,
        )

    def __len__(self) -> int:
        if self.rebalance_active:
            # Mid-drain a key can sit on both owners; count distinct keys.
            return len(self.keys())
        return sum(self._broadcast("len"))

    def keys(self) -> list[bytes]:
        """All keys across shards, sorted (each shard yields its own in
        order; the facade merges).  During a rebalance a key may appear
        on both its old and new owner mid-batch; the merge dedupes."""
        per_shard = self._broadcast("keys")
        out: list[bytes] = []
        for ks in per_shard:
            out.extend(ks)
        if self.rebalance_active:
            return sorted(set(out))
        out.sort()
        return out

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------ epoch events

    def retrain(self) -> list[bool]:
        """Broadcast an epoch-bumping retrain to every shard.  Each shard
        starts its own single-flight background retrain under its own
        locks — no cross-shard barrier, no global lock.  Returns which
        shards actually started one (``False`` = already retraining)."""
        return self._broadcast("retrain")

    def wait_for_retrain(self, timeout: float | None = None) -> list[bool]:
        return self._broadcast("wait_retrain", timeout)

    def advance_time(self, ticks: int = 1) -> list[int]:
        """Advance every shard's retention clock (drift model) by
        ``ticks``; returns newly drifted cells per shard."""
        return self._broadcast("advance_time", ticks)

    def age(self, cycles: int = 1) -> list[int]:
        """Accelerated media aging (wearout model) on every shard;
        returns newly dead cells per shard."""
        return self._broadcast("age", cycles)

    # ------------------------------------------------------------- maintenance

    def drain_relocations(self, budget: int | None = None) -> int:
        return sum(self._broadcast("drain_relocations", budget))

    # --------------------------------------------------------------- telemetry

    def telemetry(self) -> dict:
        """Aggregated telemetry across all shards (see
        :func:`aggregate_telemetry` for the rollup semantics); with a
        supervisor attached, its restart/breaker/recovery counters ride
        along under ``"supervisor"``."""
        out = aggregate_telemetry(self._broadcast("telemetry"))
        if self.supervisor is not None:
            out["supervisor"] = self.supervisor.telemetry()
        return out

    def recovery_reports(self) -> list:
        """Per-shard :class:`RecoveryReport` (``None`` for shards built
        fresh rather than recovered)."""
        return self._broadcast("recovery_report")

    # ---------------------------------------------------------------- lifecycle

    def reopen_shard(self, shard_id: int) -> None:
        """Recover one crashed shard (under the process backend a fresh
        worker re-attaches to the surviving shared-memory media and runs
        normal recovery there).  Other shards are untouched throughout."""
        self.backend.reopen_shard(shard_id)

    def shard_alive(self, shard_id: int) -> bool:
        return self.backend.shard_alive(shard_id)

    def save(self, *, deadline: float | None = ...) -> None:
        """Snapshot every durable shard's device to its manifest path.
        ``deadline`` overrides the per-op RPC budget (process backend)."""
        if self.root is None:
            raise ValueError("volatile sharded store has no snapshot paths")
        self._broadcast("save", deadline=deadline)

    def close(self) -> None:
        """Snapshot durable shards, then shut the backend down (worker
        processes joined, shared memory released).

        The snapshot is best-effort: a shard that is dead or hung at
        close time cannot be saved — survivors still snapshot (the
        backend drains them before raising), and the missing shard's
        story is the recovery path on the next ``open``.  The wait per
        shard is bounded by the backend's close grace, not the full op
        budget, so a SIGSTOP'd worker cannot stall teardown."""
        if self._closed:
            return
        # The supervisor must stop before teardown begins, or it would
        # fight close() by reopening the very workers being shut down.
        if self.supervisor is not None:
            self.supervisor.stop()
        try:
            if self.root is not None:
                try:
                    self.save(deadline=DEFAULT_CLOSE_GRACE_S)
                except ShardUnavailableError:
                    pass  # dead/hung shards can't snapshot; recovery covers them
        finally:
            self.backend.close()
            self._closed = True

    def __enter__(self) -> "ShardedKVStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
