"""Execution backends: where a shard's vertical slice actually runs.

Two interchangeable backends serve the facade:

- :class:`InProcessBackend` — N :class:`~repro.sharding.shard.Shard`
  objects in this process, one lock per shard.  The correctness baseline
  (and the fallback where ``fork`` + shared memory are unavailable): every
  behaviour of the sharded store is defined by this backend, and the
  process backend must match it.  Crash and hang cannot happen for real
  here, so the backend carries *simulation hooks*
  (:meth:`InProcessBackend.inject_crash` and friends) with the same
  observable surface — supervisor and circuit-breaker logic is testable
  in tier-1 without spawning a single process.
- :class:`ProcessBackend` — one worker *process* per shard, talking over a
  request/response pipe, with the shard's device content array backed by a
  ``multiprocessing.shared_memory.SharedMemory`` block the parent owns.
  Shards place, encode and write concurrently on real cores — the forward
  pass, DAP claim and media write of shard 2 never serialise behind shard
  0's GIL — so aggregate ops/s multiplies with the core count.

The shared-memory media is the crash story: a worker process dying
mid-operation (simulated power loss on one channel) takes its DRAM state
with it but not the media bytes.  :meth:`ProcessBackend.reopen_shard`
spawns a fresh worker that re-attaches to the same block and runs ordinary
catalog recovery — only that shard's in-flight batch is trimmed to a
prefix; every other shard never notices.

The pipe carries one frame per message: ``send_bytes`` of a plain
``pickle.dumps`` at the highest protocol, ``pickle.loads`` of
``recv_bytes`` (:func:`_encode` / :func:`_decode`, used at both ends).
Nothing that crosses it needs ``multiprocessing``'s reducers — ops take
and return bytes, ints, lists, dicts, dataclasses and exceptions — and
both ends run the same interpreter.  Every message is encoded *before*
anything is written, so a frame is either fully on the wire or never
started: a value that will not pickle fails its own request (or, in a
worker, becomes an error reply) and can never leave a half-spoken
conversation behind.

Liveness is supervised, not assumed:

- Every RPC has a **deadline**: the response wait is a ``select.poll``
  registered once per worker on the parent's pipe end, never a bare
  ``recv_bytes()``.  A worker that does not answer in time is *hung* —
  after a deadline the pipe is desynchronised (a late reply could pair
  with the wrong request), so the only safe recovery is to kill the
  worker and raise :class:`ShardHungError`; a fresh worker then
  re-attaches to the media.  The process backend is POSIX-only (``fork``,
  SIGSTOP drills), and ``select.poll`` is its one wait.
- Every worker ships a **heartbeat**: a background thread stamping a
  monotonic timestamp into a shared value ~10×/s.  A SIGSTOP'd or
  wedged worker stops beating long before any RPC deadline expires, and
  the :class:`~repro.sharding.supervisor.ShardSupervisor` watchdog kills
  it from outside — which closes the pipe and wakes any in-flight wait
  immediately (POLLHUP, then EOF).
- **Teardown is bounded**: ``close()`` and ``reopen_shard()`` never issue
  an unbounded ``join()``/``recv()``; a worker that does not exit within
  its grace period is SIGTERM'd, then SIGKILL'd (SIGKILL also reaps
  SIGSTOP'd workers, which ignore SIGTERM while stopped).

Both backends speak the same protocol: ``call(shard_id, op, args)`` for one
shard, ``call_many(requests)`` to fan a batch out (the process backend
sends every request before collecting any response, which is where the
parallelism comes from).  When shards die mid-``call_many``, survivors'
results are **not** discarded: the raised error carries
``partial_results`` (aligned to the request list) and a per-shard
``shard_status`` map, so callers — and the facade's degraded mode — can
keep the committed work.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import signal
import threading
import time
from functools import partial
from multiprocessing import shared_memory
from multiprocessing.sharedctypes import RawValue
from threading import RLock

from repro.sharding.shard import Shard, ShardSpec
from repro.testing.faults import CrashError

#: Exit status a worker uses for a simulated crash (power loss on the
#: channel): no pipe response, no cleanup, media left as-is in shared
#: memory.
_CRASH_EXIT_STATUS = 17

#: Default per-op response deadline (seconds).
DEFAULT_DEADLINE_S = 60.0

#: Ops whose duration is caller-controlled or legitimately long: their
#: deadline is this entry (``None`` = unbounded; the heartbeat watchdog
#: still covers a wedged worker) instead of the backend's ``deadline_s``.
DEFAULT_OP_DEADLINES: dict[str, float | None] = {
    "wait_retrain": None,
}

#: Seconds a worker gets to exit after SIGTERM before SIGKILL.
DEFAULT_KILL_GRACE_S = 1.0

#: Seconds a worker gets to answer ``__shutdown__`` and exit on close.
DEFAULT_CLOSE_GRACE_S = 5.0

#: Seconds a fresh worker gets to boot (build/recover its shard — model
#: training included, hence generous).
DEFAULT_BOOT_DEADLINE_S = 300.0

#: Worker heartbeat stamp period (seconds).
HEARTBEAT_INTERVAL_S = 0.05

#: The pipe's wire format, one frame per message at both ends:
#: ``conn.send_bytes(_encode(msg))`` and ``_decode(conn.recv_bytes())``.
_encode = partial(pickle.dumps, protocol=pickle.HIGHEST_PROTOCOL)
_decode = pickle.loads


class ShardUnavailableError(RuntimeError):
    """A shard cannot serve right now (dead worker, hung worker, or an
    open circuit breaker).

    Attributes:
        shard_ids: the affected shards, sorted.
        partial_results: set by ``call_many`` — results aligned to the
            request list, ``None`` for requests the unavailable shards
            owned.  Survivors' committed work is never discarded.
        shard_status: set by ``call_many`` — ``shard_id -> "ok" |
            "crashed" | "hung" | "error"`` for every shard in the batch.
    """

    def __init__(self, shard_ids: list[int], message: str) -> None:
        self.shard_ids = sorted(shard_ids)
        self.partial_results: list | None = None
        self.shard_status: dict[int, str] = {}
        super().__init__(message)


class ShardCrashedError(ShardUnavailableError):
    """A shard's worker process died mid-operation.

    The facade's data on every *other* shard is unaffected; call
    ``ShardedKVStore.reopen_shard(shard_id)`` (or let the
    :class:`~repro.sharding.supervisor.ShardSupervisor` do it) to recover
    the crashed one from its surviving shared-memory media (its in-flight
    batch trimmed by catalog recovery).
    """

    def __init__(self, shard_ids: list[int]) -> None:
        super().__init__(
            shard_ids,
            f"shard worker(s) {sorted(shard_ids)} died mid-operation; "
            "reopen_shard() recovers them from the surviving media",
        )


class ShardHungError(ShardCrashedError):
    """A shard's worker missed its response deadline (or its heartbeat
    went stale) and was killed.

    Subclasses :class:`ShardCrashedError` because after the kill the
    worker *is* dead and recovery is identical: a fresh worker re-attaches
    to the surviving media and rolls back the in-flight transaction.
    """

    def __init__(self, shard_ids: list[int], deadline_s: float | None) -> None:
        ShardUnavailableError.__init__(
            self,
            shard_ids,
            f"shard worker(s) {sorted(shard_ids)} missed their response "
            f"deadline ({deadline_s}s) and were killed; reopen_shard() "
            "recovers them from the surviving media",
        )
        self.deadline_s = deadline_s


def _gather(attempts, hung_deadline_s: float | None) -> list:
    """The ``call_many`` contract both backends share.

    ``attempts`` yields one ``(shard_id, attempt)`` pair per request, in
    request order; ``attempt()`` returns that request's result or raises.
    Every attempt runs — a dead shard never stops the survivors — and the
    results come back request-aligned.  If any shard was unavailable, one
    :class:`ShardCrashedError` (:class:`ShardHungError` when every failure
    was a hang) naming all of them is raised with ``partial_results``
    (``None`` at failed requests) and the per-shard ``shard_status`` map
    attached; otherwise the first ordinary error, deferred until every
    attempt has run, is re-raised."""
    results: list = []
    status: dict[int, str] = {}
    first_error: Exception | None = None
    for shard_id, attempt in attempts:
        try:
            results.append(attempt())
            status.setdefault(shard_id, "ok")
            continue
        except ShardHungError:
            status[shard_id] = "hung"
        except ShardCrashedError:
            status[shard_id] = "crashed"
        except Exception as exc:  # noqa: BLE001 - re-raised below
            status[shard_id] = "error"
            first_error = first_error or exc
        results.append(None)
    bad = sorted(s for s, st in status.items() if st in ("crashed", "hung"))
    if bad:
        if all(status[s] == "hung" for s in bad):
            exc = ShardHungError(bad, hung_deadline_s)
        else:
            exc = ShardCrashedError(bad)
        exc.partial_results = results
        exc.shard_status = status
        raise exc
    if first_error is not None:
        raise first_error
    return results


def _raise(exc: BaseException):
    """An attempt that failed before :func:`_gather` ran it."""
    raise exc


class InProcessBackend:
    """All shards in this process; one lock per shard (per-shard lock
    domains — never a global one).

    Fault *simulation* hooks give this backend the same unavailability
    surface as the process backend, so supervisor/breaker/degraded-mode
    logic runs in tier-1:

    - :meth:`inject_crash` — subsequent calls raise
      :class:`ShardCrashedError` until :meth:`reopen_shard`.
    - :meth:`inject_hang` — the next call "misses its deadline": the
      shard is killed (marked crashed) and :class:`ShardHungError` is
      raised; the heartbeat age grows from the injection instant so a
      watchdog can also detect it without calling.
    - :meth:`inject_reopen_failures` — the next N ``reopen_shard`` calls
      raise, exercising restart-budget exhaustion.

    The simulation is *routing-level*: the shard object and its media are
    untouched (nothing actually dies in-process), which is exactly what
    supervisor logic needs — media-level crash fidelity lives in the
    process backend and the crash sweeps.  A real :class:`CrashError`
    escaping a shard op is converted to the same crashed state for
    parity.
    """

    def __init__(self, specs: list[ShardSpec], mode: str) -> None:
        self.specs = list(specs)
        self._shards = [Shard.build(spec, mode) for spec in specs]
        self._locks = [RLock() for _ in specs]
        self._crashed = [False] * len(specs)
        self._hung = [False] * len(specs)
        self._hang_since: list[float | None] = [None] * len(specs)
        self._reopen_failures = [0] * len(specs)
        self.kills = [0] * len(specs)
        self.reopens = [0] * len(specs)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard(self, shard_id: int) -> Shard:
        """Direct access for tests (twin-object comparisons)."""
        return self._shards[shard_id]

    # ------------------------------------------------------- fault simulation

    def inject_crash(self, shard_id: int) -> None:
        """Simulate the shard's worker dying: calls raise
        :class:`ShardCrashedError` until :meth:`reopen_shard`."""
        self._crashed[shard_id] = True

    def inject_hang(self, shard_id: int) -> None:
        """Simulate the shard's worker wedging: its heartbeat goes stale
        now, and the next call to it times out (killing it)."""
        self._hung[shard_id] = True
        self._hang_since[shard_id] = time.monotonic()

    def inject_reopen_failures(self, shard_id: int, times: int) -> None:
        """Make the next ``times`` reopen attempts of ``shard_id`` fail —
        the restart-budget-exhaustion drill."""
        self._reopen_failures[shard_id] = times

    # ----------------------------------------------------------------- calls

    def _check_available(self, shard_id: int) -> None:
        if self._hung[shard_id]:
            # The simulated deadline expires: kill the "worker" exactly as
            # the process backend would, then surface the hang.
            self.kill_shard(shard_id, hung=True)
            raise ShardHungError([shard_id], DEFAULT_DEADLINE_S)
        if self._crashed[shard_id]:
            raise ShardCrashedError([shard_id])

    def call(self, shard_id: int, op: str, args: tuple = (), kwargs=None):
        self._check_available(shard_id)
        with self._locks[shard_id]:
            try:
                return self._shards[shard_id].execute(op, args, kwargs)
            except CrashError:
                # Parity with a worker's os._exit: the shard is gone until
                # reopened.  (Routing-level only — in-process state is not
                # discarded; media-fidelity crashes live in the process
                # backend.)
                self._crashed[shard_id] = True
                raise ShardCrashedError([shard_id]) from None

    def call_many(
        self,
        requests: list[tuple[int, str, tuple, dict | None]],
        *,
        deadline: float | None = ...,
    ):
        """Execute ``(shard_id, op, args, kwargs)`` requests; results in
        request order.  Sequential here — the in-process backend is the
        semantics baseline, not the fast path — with the failure semantics
        of :func:`_gather`, like the process backend.  ``deadline`` is
        accepted for interface parity and ignored (calls run on the
        caller's thread)."""
        return _gather(
            (
                (shard_id, partial(self.call, shard_id, op, args, kwargs))
                for shard_id, op, args, kwargs in requests
            ),
            DEFAULT_DEADLINE_S,
        )

    # ------------------------------------------------------------- liveness

    def shard_alive(self, shard_id: int) -> bool:
        # A hung shard still counts as alive — exactly like a SIGSTOP'd
        # worker process, which the OS reports alive until the watchdog
        # (reading its stale heartbeat) kills it.
        return 0 <= shard_id < len(self._shards) and not self._crashed[
            shard_id
        ]

    def worker_pid(self, shard_id: int) -> int | None:
        """Interface parity with :class:`ProcessBackend`; in-process
        shards have no worker of their own."""
        return None

    def heartbeat_age(self, shard_id: int) -> float:
        """Seconds since the shard's last (simulated) heartbeat: 0 while
        healthy, growing from the :meth:`inject_hang` instant."""
        since = self._hang_since[shard_id]
        return 0.0 if since is None else time.monotonic() - since

    def kill_shard(self, shard_id: int, *, hung: bool = False) -> None:
        """Simulated SIGTERM→SIGKILL: the shard is crashed afterwards."""
        self._hung[shard_id] = False
        self._hang_since[shard_id] = None
        self._crashed[shard_id] = True
        self.kills[shard_id] += 1

    def reopen_shard(self, shard_id: int) -> None:
        """Recover a (simulated-)crashed shard: clear the fault flags.

        Raises while the shard is alive (parity with the process
        backend), and honours :meth:`inject_reopen_failures`."""
        if self.shard_alive(shard_id):
            raise RuntimeError(
                f"shard {shard_id} is alive; reopen is for crashed shards"
            )
        if self._reopen_failures[shard_id] > 0:
            self._reopen_failures[shard_id] -= 1
            raise RuntimeError(
                f"injected reopen failure on shard {shard_id}"
            )
        self._crashed[shard_id] = False
        self._hung[shard_id] = False
        self._hang_since[shard_id] = None
        self.reopens[shard_id] += 1

    def close(self) -> None:
        for shard in self._shards:
            shard.stop_maintenance()
        self._shards = []


def _send_error(conn, exc: BaseException) -> None:
    """Ship an exception to the parent, degrading to a picklable stand-in
    when the original will not survive the pipe."""
    try:
        frame = _encode(("err", exc))
    except Exception:
        frame = _encode(
            ("err", RuntimeError(f"{type(exc).__name__}: {exc}"))
        )
    conn.send_bytes(frame)


def _beat(heartbeat, stop: threading.Event) -> None:
    """Heartbeat loop: stamp a monotonic timestamp ~10×/s.  Runs as a
    daemon thread in the worker; a SIGSTOP freezes it (with every other
    thread), which is exactly the signal the watchdog reads."""
    while not stop.wait(HEARTBEAT_INTERVAL_S):
        heartbeat.value = time.monotonic()


def _shard_worker(conn, shm_name: str, spec: ShardSpec, mode: str, heartbeat) -> None:
    """Worker main: build the shard over the shared media, then serve the
    request/response loop until shutdown (or simulated crash).

    The heartbeat thread starts *before* the build so a worker stuck in
    model training still reads as alive; maintenance workers (scrubber /
    compactor / retrain ticker) are stopped on clean shutdown."""
    shm = shared_memory.SharedMemory(name=shm_name)
    heartbeat.value = time.monotonic()
    beat_stop = threading.Event()
    threading.Thread(
        target=_beat, args=(heartbeat, beat_stop), daemon=True,
        name=f"shard-{spec.shard_id}-heartbeat",
    ).start()
    shard = None
    try:
        try:
            shard = Shard.build(spec, mode, content_buffer=shm.buf)
        except BaseException as exc:
            # Also KeyboardInterrupt/SystemExit: _await_ready must hear why.
            _send_error(conn, exc)
            return
        conn.send_bytes(_encode(("ready", spec.shard_id)))
        while True:
            try:
                op, args, kwargs = _decode(conn.recv_bytes())
            except EOFError:
                return  # parent went away; nothing to serve
            if op == "__shutdown__":
                shard.stop_maintenance()
                conn.send_bytes(_encode(("ok", None)))
                return
            try:
                # Encoded inside the try: a result that will not pickle is
                # answered as an error, and the worker keeps serving.
                reply = _encode(("ok", shard.execute(op, args, kwargs)))
            except CrashError:
                # Simulated power loss on this channel: die without a
                # response or any cleanup.  The media bytes live in the
                # parent's shared-memory block and survive verbatim.
                os._exit(_CRASH_EXIT_STATUS)
            except BaseException as exc:
                # Also KeyboardInterrupt/SystemExit: every request gets its
                # reply (the parent re-raises a non-Exception payload at once).
                _send_error(conn, exc)
            else:
                conn.send_bytes(reply)
    finally:
        beat_stop.set()
        # Release our view of the media: the device's content array is
        # the only export of ``shm.buf``, and it must be gone before
        # ``close()`` (or ``SharedMemory.__del__`` prints a BufferError).
        if shard is not None:
            shard.device.detach_buffer()
        try:
            shm.close()
        except BufferError:
            pass  # a shard that failed mid-build may still hold its view


class _WorkerHandle:
    """Parent-side state of one shard worker.

    ``lock`` serialises the send→recv conversation (and reopen) per
    shard; ``kill_shard`` deliberately does *not* take it — an os-level
    kill closes the worker's pipe end, which wakes any in-flight
    ``poller.poll`` immediately with EOF.  ``poller`` is registered on
    ``conn`` once per spawn, so every wait reuses it."""

    def __init__(self, spec: ShardSpec, shm) -> None:
        self.spec = spec
        self.shm = shm
        self.process = None
        self.conn = None
        self.poller = None
        self.crashed = False
        self.hung = False
        self.lock = RLock()
        self.heartbeat = RawValue("d", 0.0)
        self.spawned_at = 0.0


class ProcessBackend:
    """One worker process per shard over shared-memory media.

    Args:
        specs: one :class:`ShardSpec` per shard.
        mode: forwarded to :meth:`Shard.build` in each worker
            (``"create"`` or ``"open"``).  Workers build — including model
            training and recovery — **in parallel**: a sharded store
            recovers shard-by-shard on real cores.
        deadline_s: default per-RPC response deadline; a worker that
            does not answer in time is killed and the call raises
            :class:`ShardHungError`.  ``None`` disables deadlines (the
            heartbeat watchdog still covers wedged workers).  Ops listed
            in :data:`DEFAULT_OP_DEADLINES` use their entry instead.

    Workers start by ``fork`` where the platform has it (cheap, inherits
    the imported stack) and by the platform default elsewhere; the
    SIGTERM→SIGKILL, shutdown and boot budgets are the module's
    ``DEFAULT_*_S`` constants.
    """

    def __init__(
        self,
        specs: list[ShardSpec],
        mode: str,
        *,
        deadline_s: float | None = DEFAULT_DEADLINE_S,
    ) -> None:
        self.specs = list(specs)
        self.deadline_s = deadline_s
        self.kills = [0] * len(specs)
        self.reopens = [0] * len(specs)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._handles: list[_WorkerHandle] = []
        try:
            for spec in specs:
                shm = shared_memory.SharedMemory(
                    create=True, size=spec.capacity_bytes
                )
                self._handles.append(_WorkerHandle(spec, shm))
            for handle in self._handles:
                self._spawn(handle, mode)
            # All workers boot concurrently; collect readiness afterwards.
            for handle in self._handles:
                self._await_ready(handle)
        except BaseException:
            # Also KeyboardInterrupt/SystemExit: reap spawned workers + shm.
            self.close()
            raise

    @property
    def n_shards(self) -> int:
        return len(self._handles)

    def _deadline_for(self, op: str) -> float | None:
        return DEFAULT_OP_DEADLINES.get(op, self.deadline_s)

    def _spawn(self, handle: _WorkerHandle, mode: str) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        handle.spawned_at = time.monotonic()
        handle.heartbeat.value = handle.spawned_at
        process = self._ctx.Process(
            target=_shard_worker,
            args=(
                child_conn, handle.shm.name, handle.spec, mode,
                handle.heartbeat,
            ),
            daemon=True,
            name=f"shard-{handle.spec.shard_id}",
        )
        process.start()
        child_conn.close()
        poller = select.poll()
        poller.register(parent_conn, select.POLLIN)
        handle.process = process
        handle.conn = parent_conn
        handle.poller = poller
        handle.crashed = False
        handle.hung = False

    def _await_ready(self, handle: _WorkerHandle) -> None:
        status, payload = self._recv(handle, DEFAULT_BOOT_DEADLINE_S)
        if status != "ready":
            raise payload

    def _recv(self, handle: _WorkerHandle, deadline: float | None):
        """Bounded response wait on the handle's poller (the deadline in
        ms; ``None`` blocks in ``recv_bytes``), then decode one frame.

        A missed deadline means the pipe is desynchronised (a late reply
        would pair with the wrong request), so the worker is killed and
        the call raises :class:`ShardHungError`.  A closed pipe (worker
        died, or the watchdog killed it from outside) wakes the poll with
        POLLHUP and ``recv_bytes`` raises EOF: that is
        :class:`ShardCrashedError`/:class:`ShardHungError` at once — the
        RPC never outlives the worker."""
        try:
            if deadline is not None and not handle.poller.poll(
                deadline * 1000.0
            ):
                self.kill_shard(handle.spec.shard_id, hung=True)
                raise ShardHungError([handle.spec.shard_id], deadline)
            frame = handle.conn.recv_bytes()
        except (EOFError, OSError):
            was_hung = handle.hung
            handle.crashed = True
            self._join_bounded(handle.process, DEFAULT_KILL_GRACE_S)
            if was_hung:
                raise ShardHungError(
                    [handle.spec.shard_id], deadline
                ) from None
            raise ShardCrashedError([handle.spec.shard_id]) from None
        return _decode(frame)

    def _send(self, handle: _WorkerHandle, frame: bytes) -> None:
        if handle.crashed:
            if handle.hung:
                raise ShardHungError([handle.spec.shard_id], None)
            raise ShardCrashedError([handle.spec.shard_id])
        try:
            handle.conn.send_bytes(frame)
        except (BrokenPipeError, OSError):
            handle.crashed = True
            self._join_bounded(handle.process, DEFAULT_KILL_GRACE_S)
            raise ShardCrashedError([handle.spec.shard_id]) from None

    @staticmethod
    def _join_bounded(process, timeout: float) -> None:
        if process is not None:
            process.join(timeout)

    def call(
        self,
        shard_id: int,
        op: str,
        args: tuple = (),
        kwargs=None,
        *,
        deadline: float | None = ...,
    ):
        handle = self._handles[shard_id]
        if deadline is ...:
            deadline = self._deadline_for(op)
        frame = _encode((op, args, kwargs))
        with handle.lock:
            self._send(handle, frame)
            status, payload = self._recv(handle, deadline)
        if status == "err":
            raise payload
        return payload

    def call_many(
        self,
        requests: list[tuple[int, str, tuple, dict | None]],
        *,
        deadline: float | None = ...,
    ):
        """Fan out: send every request before collecting any response, so
        the workers run concurrently.  At most one in-flight request per
        shard (the facade groups batches by shard before calling).
        ``deadline`` overrides the per-op defaults for every request in
        the batch (``None`` waits unbounded) — the close path uses this
        to keep a best-effort snapshot from waiting out a long op budget
        on a hung worker.

        Every request is encoded before any is sent: one that will not
        pickle fails only its own attempt, without touching its shard's
        pipe or lock, while the others run and are collected as usual.
        If any worker dies or hangs mid-batch, the surviving shards'
        responses are still drained (their sub-batches commit normally);
        see :func:`_gather` for what is raised and what rides on it."""
        frames = []
        for _, op, args, kwargs in requests:
            try:
                frames.append(_encode((op, args, kwargs)))
            except Exception as exc:  # noqa: BLE001 - _gather re-raises it
                frames.append(exc)
        attempts = []
        for (shard_id, op, _, _), frame in zip(requests, frames):
            if isinstance(frame, Exception):
                attempts.append((shard_id, partial(_raise, frame)))
                continue
            handle = self._handles[shard_id]
            handle.lock.acquire()
            try:
                self._send(handle, frame)
            except ShardCrashedError as exc:
                handle.lock.release()
                attempts.append((shard_id, partial(_raise, exc)))
            else:
                if deadline is ...:
                    op_deadline = self._deadline_for(op)
                else:
                    op_deadline = deadline
                attempts.append(
                    (shard_id, partial(self._collect, handle, op_deadline))
                )
        return _gather(attempts, self.deadline_s)

    def _collect(self, handle: _WorkerHandle, deadline: float | None):
        """Second half of a fanned-out request: await the reply and
        release the shard's conversation lock."""
        try:
            status, payload = self._recv(handle, deadline)
        finally:
            handle.lock.release()
        if status == "err":
            raise payload
        return payload

    # ------------------------------------------------------------- liveness

    def shard_alive(self, shard_id: int) -> bool:
        handle = self._handles[shard_id]
        return not handle.crashed and handle.process.is_alive()

    def worker_pid(self, shard_id: int) -> int | None:
        return self._handles[shard_id].process.pid

    def heartbeat_age(self, shard_id: int) -> float:
        """Seconds since the worker's last heartbeat stamp.  A SIGSTOP'd
        or wedged worker's age grows without bound; a healthy one stays
        around :data:`HEARTBEAT_INTERVAL_S`."""
        handle = self._handles[shard_id]
        last = max(handle.heartbeat.value, handle.spawned_at)
        return time.monotonic() - last

    def kill_shard(self, shard_id: int, *, hung: bool = False) -> None:
        """Forcibly end a worker: SIGTERM, bounded join, then SIGKILL.

        Deliberately lock-free: killing closes the worker's pipe end,
        which wakes any in-flight ``poll`` on this shard with EOF — a
        hung worker never blocks an RPC past the watchdog.  SIGKILL also
        reaps SIGSTOP'd workers (they ignore SIGTERM while stopped)."""
        handle = self._handles[shard_id]
        handle.hung = hung or handle.hung
        handle.crashed = True
        self.kills[shard_id] += 1
        process = handle.process
        if process is None or not process.is_alive():
            self._join_bounded(process, DEFAULT_KILL_GRACE_S)
            return
        process.terminate()
        process.join(DEFAULT_KILL_GRACE_S)
        if process.is_alive():
            process.kill()
            process.join(DEFAULT_KILL_GRACE_S)

    def reopen_shard(self, shard_id: int) -> None:
        """Recover a crashed or hung shard: spawn a fresh worker
        re-attached to the surviving shared-memory media and run normal
        recovery (catalog resolve + DAP rebuild) there.

        Bounded: a still-running (hung) worker is killed first, every
        join carries a timeout, and the fresh worker's readiness wait is
        capped by :data:`DEFAULT_BOOT_DEADLINE_S`."""
        handle = self._handles[shard_id]
        with handle.lock:
            if not handle.crashed and handle.process.is_alive():
                raise RuntimeError(
                    f"shard {shard_id} is alive; reopen is for crashed "
                    "shards"
                )
            if handle.process is not None and handle.process.is_alive():
                # Marked crashed/hung but the OS process survives (e.g. a
                # SIGSTOP'd worker nobody killed yet): end it for real.
                self.kill_shard(shard_id, hung=handle.hung)
            handle.conn.close()
            self._join_bounded(handle.process, DEFAULT_KILL_GRACE_S)
            self._spawn(handle, "attach")
            self._await_ready(handle)
            self.reopens[shard_id] += 1

    def close(self) -> None:
        """Shut every worker down with bounded grace: a polite
        ``__shutdown__`` round first, then SIGTERM→SIGKILL for stragglers.
        Teardown can never hang the parent."""
        for handle in self._handles:
            if handle.conn is None:
                continue
            with handle.lock:
                if not handle.crashed and handle.process.is_alive():
                    try:
                        handle.conn.send_bytes(
                            _encode(("__shutdown__", (), None))
                        )
                        if handle.poller.poll(DEFAULT_CLOSE_GRACE_S * 1000.0):
                            handle.conn.recv_bytes()
                    except (EOFError, OSError, BrokenPipeError):
                        pass
                handle.conn.close()
            if handle.process is not None:
                handle.process.join(DEFAULT_CLOSE_GRACE_S)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(DEFAULT_KILL_GRACE_S)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(DEFAULT_KILL_GRACE_S)
        for handle in self._handles:
            try:
                handle.shm.close()
                handle.shm.unlink()
            except (BufferError, FileNotFoundError):
                pass
        self._handles = []


# Re-exported for callers that want to SIGSTOP a worker in drills.
SIGSTOP = getattr(signal, "SIGSTOP", None)
