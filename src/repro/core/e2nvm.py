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

import numpy as np

from repro.core.address_pool import DynamicAddressPool
from repro.core.config import E2NVMConfig
from repro.core.engine import PlacementEngine
from repro.core.fastpath import FastPlacementLayer
from repro.core.pipeline import EncoderPipeline
from repro.core.retraining import RetrainDecision, RetrainPolicy, RetrainStats
from repro.nvm.controller import MemoryController
from repro.util.rng import rng_from_seed

#: Lock-free placement retries after a model swap lands mid-prediction
#: before the engine predicts *under* the swap lock — bounding writer
#: latency against a hostile retrain cadence instead of starving.
PLACE_EPOCH_RETRIES = 8


class E2NVM(PlacementEngine):
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
        super().__init__(controller, config, faults, reserved_segments)
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

    # The e2e tracer wraps ``E2NVM.__dict__`` entries, so the shared write
    # path is bound in this class body too.
    place = PlacementEngine.place
    place_many = PlacementEngine.place_many
    write = PlacementEngine.write
    write_many = PlacementEngine.write_many
    write_at = PlacementEngine.write_at
    release = PlacementEngine.release

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

    def _written(self, addrs, values, labels) -> None:
        """Each full-width bytes value labels its address with the cluster
        it was placed under (see :meth:`release_many`)."""
        for addr, value, label in zip(addrs, values, labels):
            if isinstance(value, bytes) and len(value) == self.segment_size:
                self._allocated[addr] = label

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
        if not todo:  # nothing to predict: no retry loop either
            with self._swap_lock:
                if self._model_epoch == epoch:
                    return self._repool(addrs, [lab[0] for lab in labels])

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

    # ------------------------------------------------------------- free set

    def _take(self, addr: int) -> bool:
        with self._swap_lock:
            return self.dap.take(addr)

    def _bar(self, addr: int) -> None:
        with self._swap_lock:
            self.dap.quarantine(addr)

    def _pool_spare(self, addr: int) -> None:
        self.dap.unquarantine(addr)
        self.add_addresses([addr])

    def _pooled(self) -> list[int]:
        self._require_trained()
        return self.dap.snapshot_addresses()

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

    def _require_trained(self) -> None:
        if not self.pipeline.trained:
            raise RuntimeError("E2NVM.train() must be called before operations")
