"""The E2-NVM placement engine (Algorithms 1 and 2).

``E2NVM`` owns the trained prediction pipeline and the Dynamic Address Pool
and exposes the write path of Algorithm 1:

1. ``predict`` the incoming value's cluster — first through the fast
   placement layer (:mod:`repro.core.fastpath`), a memo cache keyed on the
   value's bytes, and only for novel content the full VAE encoder +
   K-means (with padding when the value is shorter than a segment);
2. pop a free address of that cluster from the DAP;
3. write the value there — the controller's DCW scheme programs only the
   bits that differ from the (similar) old content;

and the recycle path of Algorithm 2: a freed segment returns to the free
list its *current content* encodes to — for a value that filled its
segment, the cluster it was placed under (:meth:`E2NVM.release_many`).

Retraining is *resilient* and *lazy* (§5.3):

- every (re)training is transactional — a fresh candidate pipeline is
  fitted off to the side, and the model plus a freshly relabelled pool are
  swapped in atomically only on success.  The DAP is snapshotted, never
  drained up front: any failure (a crashing fit, a failing relabel)
  restores it byte-for-byte and the old model keeps serving writes;
- ``maybe_retrain()`` (the ``auto_retrain`` path) never blocks ``write()``
  and never fails a PUT.  It schedules a single-flight background worker;
  when fewer than ``n_clusters`` segments are free the retrain is
  *deferred* and retried on a later write, while placement degrades
  gracefully to the pool's first-fit fallback;
- every outcome is counted on ``engine.retrain_stats``
  (started/succeeded/failed/deferred, pool restores, wall-clock).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

import numpy as np

from repro.core.address_pool import DynamicAddressPool, PoolExhaustedError
from repro.core.config import E2NVMConfig
from repro.core.fastpath import FastPlacementLayer
from repro.core.pipeline import EncoderPipeline
from repro.core.retraining import RetrainDecision, RetrainPolicy, RetrainStats
from repro.nvm.controller import MemoryController
from repro.nvm.device import WriteResult
from repro.nvm.health import SegmentRetiredError
from repro.util.rng import rng_from_seed

#: Lock-free placement retries after a model swap lands mid-prediction
#: before the engine predicts *under* the swap lock — bounding writer
#: latency against a hostile retrain cadence instead of starving.
PLACE_EPOCH_RETRIES = 8


class E2NVM:
    """Memory-aware write placement over a :class:`MemoryController`.

    Args:
        controller: the NVM front-end the engine places writes on.
        config: hyperparameters; see :class:`E2NVMConfig`.
        faults: optional :class:`repro.testing.faults.FaultInjector`.  When
            set, the engine fires the ``"train.fit"``, ``"train.relabel"``
            and ``"device.write"`` sites (and candidate pipelines fire
            ``"pipeline.fit"``), letting tests force training failures,
            slow fits, and device write errors.
        reserved_segments: leading segments the engine must never place
            values in (a :class:`~repro.pmem.pool.PersistentPool`'s
            catalog region); training, the DAP and placement all
            operate on the remaining *object* segments only.
    """

    def __init__(
        self,
        controller: MemoryController,
        config: E2NVMConfig | None = None,
        faults=None,
        reserved_segments: int = 0,
    ) -> None:
        if not 0 <= reserved_segments < controller.n_segments:
            raise ValueError("reserved_segments must leave placeable space")
        self.controller = controller
        self.config = config or E2NVMConfig()
        self.faults = faults
        self.reserved_segments = reserved_segments
        self.segment_size = controller.segment_size
        self.input_bits = self.segment_size * 8
        self.pipeline = EncoderPipeline(self.input_bits, self.config, faults)
        # The memo cache in front of the pipeline; (re)installed — cache
        # invalidated wholesale — at every model swap, keyed by
        # ``_model_epoch``.
        self.fast = FastPlacementLayer(self.config.fastpath_cache_size)
        self.dap = DynamicAddressPool(self.config.n_clusters)
        self.policy = RetrainPolicy(
            min_free_per_cluster=self.config.retrain_threshold,
            cooldown_writes=self.config.retrain_cooldown_writes,
        )
        self.retrain_stats = RetrainStats()
        self.last_retrain_error: BaseException | None = None
        self.failed_writes = 0
        # Claimed address → label of its full-width value (release_many).
        self._allocated: dict[int, tuple[int, int] | None] = {}
        self._rng = rng_from_seed(self.config.seed)
        # The RNG is shared between the write path and the retrain worker.
        self._rng_lock = threading.Lock()
        # Serialises DAP claims/recycles against background model swaps.
        # Inference runs OUTSIDE this lock: the write path predicts with a
        # pipeline reference captured beforehand and re-validates
        # ``_model_epoch`` under the lock before claiming, retrying if a
        # swap landed mid-flight.
        self._swap_lock = threading.RLock()
        # Bumped (under the swap lock) every time a new model/pool pair is
        # installed; lets lock-free inference detect a concurrent swap.
        self._model_epoch = 0
        # Guards retrain scheduling state and stats counters.
        self._retrain_admin_lock = threading.Lock()
        self._retrain_thread: threading.Thread | None = None
        self._retrain_in_flight = False
        self._retrain_pending = False

    # ------------------------------------------------------------- training

    @property
    def health(self):
        """The controller's health manager (``None`` without wear-out)."""
        return getattr(self.controller, "health_manager", None)

    def free_addresses(self) -> list[int]:
        """Addresses of all placeable segments not currently allocated
        (quarantined segments — retired, retiring or reserved spares —
        are not placeable)."""
        quarantined = self.dap.quarantined()
        return [
            addr
            for i in range(self.reserved_segments, self.controller.n_segments)
            if (addr := self.controller.segment_address(i))
            not in self._allocated
            and addr not in quarantined
        ]

    def train(
        self, verbose: bool = False, addresses: list[int] | None = None
    ) -> dict:
        """(Re)train the model on free-segment contents and rebuild the DAP.

        Transactional: the current pool is only snapshotted while the
        candidate model fits, and the model/pool swap happens atomically at
        the end.  If anything raises, the DAP is left byte-identical to its
        pre-call state and the previous model keeps serving.

        Args:
            addresses: optional subset of free addresses to index — the
                "dynamic incremental approach" of §4.1.4 starts by indexing
                a portion of memory; add the rest later with
                :meth:`add_addresses`.

        Returns the training history (loss curves) of the pipeline.
        """
        if addresses is not None:
            fit_set = self._check_free(addresses)
            swap_addresses: list[int] | None = fit_set
        elif self.pipeline.trained:
            fit_set = self.dap.snapshot_addresses()
            swap_addresses = None
            if not fit_set:
                fit_set = self.free_addresses()
                swap_addresses = fit_set
        else:
            fit_set = self.free_addresses()
            swap_addresses = fit_set
        if len(fit_set) < self.config.n_clusters:
            raise RuntimeError(
                f"cannot train on {len(fit_set)} free segments with "
                f"n_clusters={self.config.n_clusters}"
            )
        return self._run_training(fit_set, swap_addresses, verbose=verbose)

    def add_addresses(self, addresses: list[int]) -> None:
        """Incrementally index more free segments into the DAP (§4.1.4).

        Each address is classified with the current model and appended to
        its cluster's free list; no retraining happens.
        """
        self._require_trained()
        addresses = self._check_free(addresses)
        if not addresses:
            return
        labels = self.pipeline.predict_segments(self._segment_bits(addresses))
        with self._swap_lock:
            self.dap.populate(labels, addresses)

    def adopt(
        self, pipeline: EncoderPipeline, free_addresses: list[int]
    ) -> None:
        """Install an already-trained pipeline and rebuild the DAP.

        The recovery path: after a restart the media alone says which
        segments are free, and a previously trained (e.g. deserialised)
        model re-encodes their contents to reconstruct the cluster pools —
        the same re-cluster path DELETE takes, just in bulk.  No training
        happens.
        """
        if not pipeline.trained:
            raise ValueError("adopt() needs a trained pipeline")
        if pipeline.input_bits != self.input_bits:
            raise ValueError(
                f"pipeline width {pipeline.input_bits} does not match the "
                f"device's {self.input_bits} bits per segment"
            )
        self._swap_in(pipeline, self._check_free(free_addresses))

    def mark_allocated(self, addr: int) -> None:
        """Register ``addr`` as live without going through :meth:`place`.

        Used by recovery to restore allocator state derived from the
        persistent catalog; the address must not sit in the DAP.
        """
        self._check_segment_address(addr)
        self._allocated[addr] = None

    def train_async(self) -> threading.Thread:
        """Retrain lazily in the background and swap models atomically.

        The paper stresses that "the writing process does not have to be
        stopped because the retraining is done in the background lazily"
        (§5.3): writes keep using the old model; when the new model is
        ready, the pipeline is swapped and the free pool re-clustered under
        the swap lock.  Retrains are single-flight: if one is already in
        progress its thread is returned instead of starting another.

        A training failure inside the worker never escapes the thread: it
        is recorded on :attr:`retrain_stats` / :attr:`last_retrain_error`,
        the DAP is left untouched, and the old model keeps serving.

        Returns the worker thread (join it — or call
        :meth:`wait_for_retrain` — to wait for the swap).
        """
        self._require_trained()
        if self._schedule_retrain():
            return self._retrain_thread
        with self._retrain_admin_lock:
            thread = self._retrain_thread
            in_flight = self._retrain_in_flight
        if in_flight and thread is not None:
            return thread
        raise RuntimeError("not enough free segments to retrain on")

    def wait_for_retrain(self, timeout: float | None = None) -> bool:
        """Block until no background retrain is in flight.

        Returns True when quiescent (also when none was running).
        """
        with self._retrain_admin_lock:
            thread = self._retrain_thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    # ------------------------------------------------------------ operations

    def place(self, value: bytes | np.ndarray) -> int:
        """Algorithm 1, lines 1–4: claim the best free address for a value.

        Prediction consults the memo cache first and only runs the full
        model forward pass on novel content.  Both run *outside* the swap
        lock — concurrent writers only serialise on the DAP pop — and the
        model epoch is re-validated under the lock before claiming
        (covering cached predictions too);
        see :meth:`_with_valid_epoch` for the bounded retry when a
        background retrain swaps the model mid-prediction.

        When the predicted cluster is empty the pool falls back first-fit
        to the nearest non-empty cluster, so placement degrades gracefully
        instead of failing while a retrain is deferred or in flight.
        """
        return self.place_many([value])[0]

    def place_many(self, values: list[bytes | np.ndarray]) -> list[int]:
        """Claim addresses for a whole batch with one forward pass (for the
        cache-miss remainder) and one (short) swap-lock acquisition.

        Cluster assignments are identical to per-value :meth:`place` calls
        barring exact ties between two centroids (``predict_batch``'s
        labels do not depend on how values are batched, though its latent
        may move in the last bits, and the memo cache replays exactly the
        installed model's earlier answer for identical content); the DAP
        pop is all-or-nothing, so a pool-exhaustion failure leaves the
        pool untouched.

        See :meth:`place` for the epoch re-validation and bounded-retry
        contract.
        """
        return self._claim(values)[0]

    def _claim(self, values: list) -> tuple[list[int], list[tuple[int, int]]]:
        """:meth:`place_many`, plus each value's ``(cluster, epoch)``."""
        self._require_trained()
        if not values:
            return [], []

        def claim(clusters, pipeline):
            addrs = self.dap.get_many(clusters, centroids=pipeline.centroids)
            self._allocated.update(dict.fromkeys(addrs))
            return addrs, [(c, self._model_epoch) for c in clusters.tolist()]

        return self._with_valid_epoch(values, claim)

    def _with_valid_epoch(self, contents: list, commit):
        """Predict ``contents`` lock-free, then run ``commit(clusters,
        pipeline)`` under the swap lock once the model epoch validates.

        A swap that landed mid-prediction means the labels belong to a
        retired model: re-predict, at most :data:`PLACE_EPOCH_RETRIES`
        times.  The final attempt predicts *under* the swap lock, where no
        swap can interleave — slower (the swap worker blocks on us), but a
        hostile retrain cadence delays a caller by at most N forward
        passes instead of starving it.
        """
        for _ in range(PLACE_EPOCH_RETRIES):
            pipeline = self.pipeline
            epoch = self._model_epoch
            clusters = self.fast.predict(contents, pipeline, epoch)
            with self._swap_lock:
                if epoch == self._model_epoch:
                    return commit(clusters, pipeline)
        with self._swap_lock:
            pipeline = self.pipeline
            clusters = self.fast.predict(
                contents, pipeline, self._model_epoch
            )
            return commit(clusters, pipeline)

    def write(self, value: bytes) -> tuple[int, WriteResult]:
        """Algorithm 1 end-to-end for one value; see :meth:`write_many`."""
        return self.write_many([value])[0]

    def write_many(
        self, values: list[bytes]
    ) -> list[tuple[int, WriteResult]]:
        """Algorithm 1 for a whole batch: one forward pass, one short DAP
        claim, one batched differential write with vectorised accounting
        and (on mortal media) one batched verify-after-write.

        Only each value's own ``len(value)`` bytes are written — padded
        bits used for prediction never reach the media (§4.1).  Placement
        is identical to per-value :meth:`write` calls.  The ``auto_retrain``
        hook never raises: retrain trouble is deferred and recorded, not
        propagated into the PUT.

        See :meth:`place_and_write` for the failure contract.
        """
        addrs, results = self.place_and_write(values)
        self.record_committed_writes(len(addrs))
        return list(zip(addrs, results))

    def place_and_write(
        self, values: list[bytes]
    ) -> tuple[list[int], Sequence[WriteResult]]:
        """Place and write a batch without counting it as committed (the
        durable KV store counts once the catalog transaction commits).

        Returns ``(addresses, results)``.  A row whose segment
        verify-after-write retired is handled *inside* the engine: the dead
        address is quarantined, a reserved spare — when available — joins
        the pool in its place, and only that row is re-placed and retried;
        rows that verified stay written.
        Any other failure, pool exhaustion included, is all-or-nothing: it
        un-claims every address of the batch (re-clustered back into the
        DAP) before propagating, so nothing is half-committed.  Once all
        rows are written, each full-width bytes value labels its address
        with the cluster it was placed under (see :meth:`release_many`).
        """
        values = list(values)
        if not values:
            return [], []
        self._check_value(max(values, key=len))
        addrs, labels = self._place_with_spares(values)
        try:
            results, todo = self._write_claimed(addrs, values)
            while todo:
                for i in todo:
                    addrs[i] = None
                retry = [values[i] for i in todo]
                replaced, relabels = self._place_with_spares(retry)
                for i, addr, label in zip(todo, replaced, relabels):
                    addrs[i], labels[i] = addr, label
                written, failed = self._write_claimed(replaced, retry)
                for i, result in zip(todo, written):
                    results[i] = result
                todo = [todo[row] for row in failed]
        except BaseException:
            # Also KeyboardInterrupt/SystemExit: claimed addresses would leak.
            self.release_many([addr for addr in addrs if addr is not None])
            raise
        for addr, value, label in zip(addrs, values, labels):
            if isinstance(value, bytes) and len(value) == self.segment_size:
                self._allocated[addr] = label
        return addrs, results

    def _place_with_spares(self, values: list[bytes]) -> tuple[list, list]:
        """:meth:`_claim`, pulling in reserved spares one by one while
        free capacity runs dry."""
        while True:
            try:
                return self._claim(values)
            except PoolExhaustedError:
                if self.adopt_spare() is None:
                    raise

    def _write_claimed(
        self, addrs: list[int], values: list[bytes]
    ) -> tuple[Sequence[WriteResult | None], list[int]]:
        """Differential-write ``values`` at claimed ``addrs`` with one
        ``controller.write_many``.  Returns the per-row results and the
        rows whose segment retired — those addresses are already
        quarantined and a spare adopted for each, their results ``None``.
        Any other error propagates with every address still claimed."""
        try:
            if self.faults is not None:
                for _ in values:
                    self.faults.fire("device.write")
            return self.controller.write_many(addrs, values), []
        except SegmentRetiredError as exc:
            self.failed_writes += len(exc.rows)
            for row in exc.rows:
                self.quarantine_address(addrs[row])
                self.adopt_spare()
            return exc.results, exc.rows
        except Exception:
            self.failed_writes += len(values)
            raise

    def claim_address(self, addr: int) -> bool:
        """Claim a *specific* free address out of the DAP (directed
        placement — the compactor's wear-leveling swaps choose their
        target segment by wear, not by content cluster).

        Returns False when the address is quarantined, allocated or
        otherwise not free; the DAP is left untouched in that case.
        """
        self._check_segment_address(addr)
        with self._swap_lock:
            if not self.dap.take(addr):
                return False
            self._allocated[addr] = None
            return True

    def write_at(self, addr: int, value: bytes) -> WriteResult:
        """Differential-write ``value`` at an already-claimed address (the
        directed-migration path; claim with :meth:`claim_address`).  Like
        :meth:`place_and_write` it does not count the write as committed.

        Same error contract as :meth:`write`, minus placement: on
        :class:`SegmentRetiredError` the address is quarantined (a spare
        adopted in its place) before the error propagates — the caller
        re-targets; on any other failure it is released back into the DAP.
        """
        self._check_value(value)
        if addr not in self._allocated:
            raise KeyError(f"address {addr} is not claimed")
        self._allocated[addr] = None  # a directed write carries no label
        try:
            (result,), failed = self._write_claimed([addr], [value])
        except BaseException:
            # Also KeyboardInterrupt/SystemExit: un-claim the address.
            self.release(addr)
            raise
        if failed:
            raise SegmentRetiredError(addr // self.segment_size)
        return result

    def record_committed_writes(self, count: int) -> None:
        """Post-write bookkeeping for ``count`` committed writes: retrain
        cooldown, then the never-failing ``auto_retrain`` hook once.

        Shared by :meth:`write_many` and the KV store, which calls it once
        a batch is installed (in durable mode: once its catalog
        transaction has committed)."""
        if count <= 0:
            return
        self.policy.record_write(count)
        if self.config.auto_retrain:
            try:
                self.maybe_retrain()
            except Exception as exc:  # defensive: a PUT must never fail here
                with self._retrain_admin_lock:
                    self.retrain_stats.failed += 1
                    self._retrain_pending = True
                self.last_retrain_error = exc

    def release(self, addr: int) -> None:
        """Algorithm 2, lines 3–4: re-cluster a freed address into the DAP."""
        self.release_many([addr])

    def release_many(self, addrs: list[int]) -> None:
        """Batch recycle: every address re-pools under the cluster its
        content encodes to, in one :meth:`_repool`, in the caller's order.

        A full-width value's content *is* the value, so an address
        :meth:`place_and_write` labelled under the installed model re-pools
        under that label: no read, no prediction.  The rest — unlabelled,
        labelled by an older model, or any address while the medium has
        drifted cells — are re-encoded from their content in one pass
        through the same fast layer as placement.

        Like :meth:`place`, the re-encoding runs outside the swap lock
        under the same bounded epoch-validated retry (the recycled
        addresses must be labelled by the *installed* model, or they would
        pollute the freshly relabelled pool); a swap after the labels were
        read re-encodes every address under the lock.

        A freed address whose segment has been retired (or is retiring)
        is quarantined instead of re-pooled — its media is dead (or
        dying) and must never be handed out again.
        """
        self._require_trained()
        addrs = list(addrs)
        for addr in addrs:
            if addr not in self._allocated:
                raise KeyError(f"address {addr} is not allocated")
        if not addrs:
            return
        epoch, size = self._model_epoch, self.segment_size
        drifted = self.controller.device.drifted_cell_count()
        labels = [None if drifted else self._allocated[a] for a in addrs]
        todo = [i for i, label in enumerate(labels)
                if label is None or label[1] != epoch]

        def contents(rows):
            return [bytes(self.controller.peek(addrs[i], size)) for i in rows]

        def commit(predicted, pipeline):
            rows = todo
            if len(todo) < len(addrs) and self._model_epoch != epoch:
                rows = range(len(addrs))  # the labels name a retired model
                predicted = self.fast.predict(
                    contents(rows), pipeline, self._model_epoch
                )
            clusters = [label[0] if label else None for label in labels]
            for i, cluster in zip(rows, predicted.tolist()):
                clusters[i] = cluster
            self._repool(addrs, clusters)

        self._with_valid_epoch(contents(todo), commit)

    def _repool(self, addrs: list[int], clusters) -> None:
        """Return freed addresses to the DAP (or quarantine dying ones);
        the caller holds the swap lock with a validated epoch."""
        health = self.health
        labels, healthy = [], []
        for addr, cluster in zip(addrs, clusters):
            self._allocated.pop(addr, None)
            if health is not None and health.is_unplaceable(
                addr // self.segment_size
            ):
                self.dap.quarantine(addr)
            else:
                labels.append(cluster)
                healthy.append(addr)
        self.dap.populate(labels, healthy)

    def maybe_retrain(self) -> bool:
        """Run the retrain policy; starts a *background* retrain on FIRE.

        Never blocks the write path and never raises.  When the policy
        wants a retrain but fewer than ``n_clusters`` segments are free,
        the retrain is deferred (``retrain_stats.deferred``) and retried on
        a later call once capacity returns; writes meanwhile keep
        succeeding through the DAP's first-fit fallback.

        Returns True when a background retrain was started.
        """
        with self._retrain_admin_lock:
            if self._retrain_in_flight:
                return False
            pending = self._retrain_pending
        decision = self.policy.decide(
            self.dap.min_cluster_free(),
            self.dap.free_count(),
            self.config.n_clusters,
            pending=pending,
        )
        if decision is RetrainDecision.SKIP:
            return False
        if decision is RetrainDecision.DEFER:
            self._defer_retrain()
            return False
        return self._schedule_retrain()

    # ------------------------------------------------------ endurance health

    def quarantine_address(self, addr: int) -> None:
        """Take ``addr`` out of circulation permanently (retired media):
        un-claim it if allocated and bar the DAP from ever re-pooling it."""
        self._check_segment_address(addr)
        with self._swap_lock:
            self._allocated.pop(addr, None)
            self.dap.quarantine(addr)

    def adopt_spare(self) -> int | None:
        """Activate one reserved spare segment, if any: lift its
        quarantine and index it into the DAP.  Returns the activated
        address, or ``None`` when no spares (or no health manager) remain.
        """
        health = self.health
        if health is None:
            return None
        spare = health.take_spare()
        if spare is None:
            return None
        self.dap.unquarantine(spare)
        self.add_addresses([spare])
        return spare

    def reserve_spares(self, count: int) -> list[int]:
        """Withhold ``count`` free segments from placement as spare
        capacity; each later segment retirement activates one via
        :meth:`adopt_spare`, keeping usable capacity constant until the
        spares run out.

        The highest free addresses are chosen (deterministic, and the
        segments the incremental-indexing path would add last).
        """
        self._require_trained()
        health = self.health
        if health is None:
            raise RuntimeError(
                "reserve_spares needs verify-after-write enabled"
            )
        if count <= 0:
            return []
        with self._swap_lock:
            free = sorted(self.dap.snapshot_addresses(), reverse=True)[:count]
            if len(free) < count:
                raise RuntimeError(
                    "not enough free segments to reserve as spares"
                )
            for addr in free:
                self.dap.quarantine(addr)
        spares = sorted(free)
        health.add_spares(spares)
        return spares

    # ------------------------------------------------------------ inspection

    @property
    def stats(self):
        """The underlying device's cumulative counters."""
        return self.controller.stats

    def is_allocated(self, addr: int) -> bool:
        """Whether ``addr`` is currently claimed (placed or live)."""
        return addr in self._allocated

    @property
    def allocated_count(self) -> int:
        """Number of segments currently claimed by live values."""
        return len(self._allocated)

    def memory_footprint_bytes(self) -> int:
        """DRAM footprint of the DAP (the Figure 7 metric)."""
        return self.dap.memory_footprint_bytes()

    # -------------------------------------------------------------- internals

    def _schedule_retrain(self) -> bool:
        """Start the single-flight background retrain worker.

        Returns False when one is already in flight or when fewer than
        ``n_clusters`` segments are free (the attempt is then deferred).
        """
        with self._retrain_admin_lock:
            if self._retrain_in_flight:
                return False
            fit_set = self.dap.snapshot_addresses()
            if len(fit_set) < self.config.n_clusters:
                self._defer_retrain_locked()
                return False
            self._retrain_pending = False
            self._retrain_in_flight = True
            thread = threading.Thread(
                target=self._retrain_worker,
                args=(fit_set,),
                daemon=True,
                name="e2nvm-retrain",
            )
            self._retrain_thread = thread
        thread.start()
        return True

    def _retrain_worker(self, fit_set: list[int]) -> None:
        try:
            self._run_training(fit_set, swap_addresses=None)
        except Exception as exc:
            # Recorded, never propagated: the old model keeps serving and
            # the attempt is retried after the cooldown backs off.
            self.last_retrain_error = exc
            with self._retrain_admin_lock:
                self._retrain_pending = True
        finally:
            with self._retrain_admin_lock:
                self._retrain_in_flight = False

    def _defer_retrain(self) -> None:
        with self._retrain_admin_lock:
            self._defer_retrain_locked()

    def _defer_retrain_locked(self) -> None:
        if not self._retrain_pending:
            self._retrain_pending = True
            self.retrain_stats.deferred += 1

    def _run_training(
        self,
        fit_set: list[int],
        swap_addresses: list[int] | None,
        verbose: bool = False,
    ) -> dict:
        """Fit a candidate pipeline on ``fit_set`` and swap it in atomically.

        ``swap_addresses`` replaces the pool wholesale when given (initial
        or explicit-subset training); ``None`` relabels whatever is free at
        swap time (the retrain path, where concurrent writes may have
        consumed part of the fit set).  On any failure the DAP is restored
        byte-identically and the exception propagates to the caller.
        """
        was_retrain = self.pipeline.trained
        if was_retrain:
            with self._retrain_admin_lock:
                self.retrain_stats.started += 1
        start = time.perf_counter()
        try:
            pipeline, history = self._fit_candidate(fit_set, verbose)
            self._swap_in(pipeline, swap_addresses)
        except BaseException:
            # Also KeyboardInterrupt/SystemExit: started == succeeded + failed.
            if was_retrain:
                with self._retrain_admin_lock:
                    self.retrain_stats.failed += 1
            self.policy.record_retrain()  # back-off before any retry
            raise
        duration = time.perf_counter() - start
        with self._retrain_admin_lock:
            if was_retrain:
                self.retrain_stats.succeeded += 1
                self.retrain_stats.total_duration_s += duration
            self._retrain_pending = False
        self.policy.record_retrain()
        return history

    def _fit_candidate(
        self, fit_set: list[int], verbose: bool = False
    ) -> tuple[EncoderPipeline, dict]:
        """Fit a fresh pipeline on ``fit_set`` contents, off to the side,
        before the swap, so the write path never waits on it."""
        sample = self._segment_bits(fit_set)
        if len(fit_set) > self.config.train_sample_limit:
            with self._rng_lock:
                pick = self._rng.choice(
                    len(fit_set), size=self.config.train_sample_limit,
                    replace=False,
                )
            sample = sample[pick]
        if self.faults is not None:
            self.faults.fire("train.fit")
        pipeline = EncoderPipeline(self.input_bits, self.config, self.faults)
        history = pipeline.fit(sample, verbose=verbose)
        return pipeline, history

    def placement_telemetry(self) -> dict:
        """Fast placement layer counters (cache hits/misses/evictions,
        teacher fallbacks)."""
        return self.fast.stats()

    def _swap_in(
        self, pipeline: EncoderPipeline, addresses: list[int] | None
    ) -> None:
        """Atomically install ``pipeline`` and a relabelled pool.

        Under the swap lock: snapshot the pool, relabel the free set with
        the new model, and swap both — the fast placement layer adopts the
        new epoch at the same point (memo cache invalidated wholesale).
        Any exception restores the snapshot byte-for-byte (counted as a
        pool restore) and re-raises.
        """
        with self._swap_lock:
            saved = self.dap.snapshot()
            quarantined = self.dap.quarantined()
            free_now = self.dap.drain()
            if addresses is not None:
                free_now = [a for a in addresses if a not in quarantined]
            try:
                if self.faults is not None:
                    self.faults.fire("train.relabel")
                new_dap = DynamicAddressPool(self.config.n_clusters)
                new_dap.adopt_quarantine(quarantined)
                if free_now:
                    new_dap.populate(
                        pipeline.predict_segments(
                            self._segment_bits(free_now)
                        ),
                        free_now,
                    )
                self.pipeline = pipeline
                self.dap = new_dap
                self._model_epoch += 1
                self.fast.install(self._model_epoch)
            except BaseException:
                # Also KeyboardInterrupt/SystemExit: no half-relabelled pool.
                self.dap.restore(saved)
                with self._retrain_admin_lock:
                    self.retrain_stats.pool_restores += 1
                raise

    def _segment_bits(self, addresses) -> np.ndarray:
        packed = np.empty((len(addresses), self.segment_size), dtype=np.uint8)
        for i, addr in enumerate(addresses):
            packed[i] = self.controller.peek(addr, self.segment_size)
        return np.unpackbits(packed, axis=1).astype(np.float64)

    def _check_free(self, addresses) -> list[int]:
        """``addresses`` as a list of placeable, unallocated segments."""
        addresses = list(addresses)
        for addr in addresses:
            self._check_segment_address(addr)
            if addr in self._allocated:
                raise ValueError(f"address {addr} is allocated")
        return addresses

    def _check_segment_address(self, addr: int) -> None:
        if addr % self.segment_size:
            raise ValueError(f"address {addr} is not segment-aligned")
        if not 0 <= addr < self.controller.n_segments * self.segment_size:
            raise IndexError(f"address {addr} out of range")
        if addr < self.reserved_segments * self.segment_size:
            raise ValueError(
                f"address {addr} is inside the {self.reserved_segments} "
                "reserved (log/catalog) segments"
            )

    def _check_value(self, value: bytes) -> None:
        if len(value) > self.segment_size:
            raise ValueError(
                f"value of {len(value)} bytes exceeds segment size "
                f"{self.segment_size}"
            )

    def _require_trained(self) -> None:
        if not self.pipeline.trained:
            raise RuntimeError("E2NVM.train() must be called before operations")
