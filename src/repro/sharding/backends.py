"""Execution backend: where a shard's vertical slice actually runs.

:class:`ShardBackend` holds each shard's parent-side state once — the
conversation lock, the crashed and hung flags, ``kills`` / ``reopens``,
the "alive ⇒ refuse reopen" guard, deadline resolution — and states
``call``, ``call_many``, ``kill_shard``, ``reopen_shard`` and ``close``
over it.  What differs lives in a per-shard *transport*, picked by the
store's ``backend=`` choice:

- ``"inprocess"`` — the **direct** transport runs :meth:`Shard.execute`
  on the caller's thread: the correctness baseline, and it works
  everywhere.  A :class:`CrashError` escaping an op reads as the shard's
  death.
- ``"process"`` — the **pipe** transport: one worker process per shard
  over two raw ``os.pipe()`` pairs (requests down one, replies up the
  other), its medium in a ``SharedMemory`` block the parent owns, so
  shards place, encode and write concurrently on real cores.

Either way the parent side owns each shard's medium block, and a
restart is :meth:`Shard.build`'s ``"open"`` over it: a shard that dies
(simulated power loss on one channel) loses its DRAM state, not its
medium — wear, stuck cells, ECP, health and drift state included — and
:meth:`ShardBackend.reopen_shard` rebuilds it over the block with
ordinary catalog recovery, trimming only that shard's in-flight batch.

A transport encodes, sends and receives — raising :class:`DeadlineMissed`
or :class:`TransportLost`, which the backend turns into
:class:`ShardHungError` / :class:`ShardCrashedError` — and reports
liveness and heartbeat age, kills, reaps, restarts and closes.  Tests
simulate faults by wrapping one (:mod:`repro.testing.transport`).

The pipes carry one frame per message each way
(:func:`_write_frame` / :func:`_read_frame`, both ends): a 4-byte
big-endian length, then a plain ``pickle.dumps`` at the highest protocol
(:func:`_encode` / :func:`_decode`; ops take and return bytes, ints,
lists, dicts, dataclasses and exceptions).  Every message is encoded
*before* anything is written, so a value that will not pickle fails its
own request (in a worker, it becomes an error reply) and never leaves a
half-spoken conversation behind.  Raw fds are not closed by GC, so their
ownership is explicit: the parent closes a worker's ends once it has
started and its own two on restart and close, and a worker closes every
other transport's fds that ``fork`` copied into it.  The pipe transport
is POSIX-only and requires ``fork``: raw fds survive no other start
method.

Liveness is supervised, not assumed:

- Every call has a **deadline**.  The pipe waits on a ``select.poll``
  registered once per worker on its reply pipe, never a bare blocking
  read (SIGSTOP drills rely on it).  A missed deadline
  desynchronises the conversation (a late reply could pair with the
  wrong request), so the shard is killed and the call raises
  :class:`ShardHungError`.  A call on the caller's thread cannot be timed
  out: there the deadline only names the budget a simulated hang missed.
- Every worker ships a **heartbeat**, a monotonic stamp written ~10×/s by
  a daemon thread.  A SIGSTOP'd or wedged worker stops beating long
  before a deadline expires, and the
  :class:`~repro.sharding.supervisor.ShardSupervisor` watchdog kills it
  from outside, which wakes any in-flight wait at once (POLLHUP, then
  EOF) and fails any write still blocked on a full request pipe (EPIPE).
- **Teardown is bounded**: no unbounded ``join()``/``recv()``; a worker
  that outstays its grace is SIGTERM'd, then SIGKILL'd (which also reaps
  a SIGSTOP'd worker).

``call_many`` sends every request before collecting any reply (the pipe's
parallelism).  When shards die mid-batch, survivors' results are kept:
the raised error carries ``partial_results`` (request-aligned) and a
per-shard ``shard_status`` map, for callers and the facade's degraded
mode.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import pickle
import select
import struct
import threading
import time
from collections import deque
from functools import partial
from multiprocessing import shared_memory
from multiprocessing.sharedctypes import RawValue
from threading import RLock

import numpy as np

from repro.sharding.shard import Shard, ShardSpec
from repro.testing.faults import CrashError

#: Exit status a worker uses for a simulated crash (power loss on the
#: channel): no pipe response, no cleanup, media left as-is in shared
#: memory.
_CRASH_EXIT_STATUS = 17

#: Default per-op response deadline (seconds).
DEFAULT_DEADLINE_S = 60.0

#: Seconds a worker gets to exit after SIGTERM before SIGKILL.
DEFAULT_KILL_GRACE_S = 1.0

#: Seconds a worker gets to answer ``__shutdown__`` and exit on close.
DEFAULT_CLOSE_GRACE_S = 5.0

#: Seconds a fresh worker gets to boot (build/recover its shard; generous).
DEFAULT_BOOT_DEADLINE_S = 300.0

#: Worker heartbeat stamp period (seconds).
HEARTBEAT_INTERVAL_S = 0.05

#: A message's payload, the same at both ends: plain pickle.
_encode = partial(pickle.dumps, protocol=pickle.HIGHEST_PROTOCOL)
_decode = pickle.loads

#: A frame's length prefix: 4 bytes, big-endian.
_HEADER = struct.Struct(">I")

#: One ``os.read`` of this size holds any scalar frame whole; only a
#: longer frame takes further reads.
_READ_SIZE = 64 * 1024

#: Raw fds survive only ``fork``.
_CTX = multiprocessing.get_context("fork")

#: A worker's handle on its shard's medium block (see :func:`_shard_worker`).
_WORKER_MEDIUM: list = []

#: Every pipe fd this process holds for some transport.  A forked worker
#: closes all of them but its own two, so no shard's EOF ever waits on
#: another shard's worker.
_PIPE_FDS: set[int] = set()


def _write_frame(fd: int, frame: bytes) -> None:
    """Write one frame — its length, then ``frame`` — with one
    ``os.write``, looping only on a partial write.  A pipe whose reader
    is gone raises ``OSError`` (EPIPE)."""
    data = _HEADER.pack(len(frame)) + frame
    written = os.write(fd, data)
    if written < len(data):
        view = memoryview(data)
        while written < len(data):
            written += os.write(fd, view[written:])


def _read_exact(fd: int, n: int) -> bytes:
    parts = []
    while n:
        part = os.read(fd, n)
        if not part:
            raise EOFError
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _read_frame(fd: int) -> bytes:
    """Read one frame's payload: one ``os.read``, then exact-count reads
    only for whatever of a longer frame it missed.  One frame at most is
    in flight each way, so a read never reaches into the next one.  EOF
    anywhere — before, inside the header or inside the payload — raises
    ``EOFError``."""
    data = os.read(fd, _READ_SIZE)
    if len(data) < _HEADER.size:
        if not data:
            raise EOFError
        data += _read_exact(fd, _HEADER.size - len(data))
    end = _HEADER.size + _HEADER.unpack_from(data)[0]
    if len(data) < end:
        data += _read_exact(fd, end - len(data))
    return data[_HEADER.size:]


def _pipe() -> tuple[int, int]:
    fds = os.pipe()
    _PIPE_FDS.update(fds)
    return fds


def _close_fd(fd: int) -> None:
    # Forgotten before it is closed: a worker forked in between keeps a
    # stray copy rather than closing whatever reuses the number.
    _PIPE_FDS.discard(fd)
    os.close(fd)


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
    worker *is* dead and recovery is identical: a fresh worker adopts
    the surviving media and rolls back the in-flight transaction.
    ``deadline_s`` is the budget that expired (``None`` when the shard was
    already down as hung before the call).
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


class DeadlineMissed(Exception):
    """Raised by a transport's ``recv``: no reply within the deadline."""


class TransportLost(Exception):
    """Raised by a transport's ``send`` or ``recv``: the shard went away
    under the call (worker exit, closed pipe, or a :class:`CrashError` on
    the caller's thread)."""


def _gather(requests, sent, collect) -> list:
    """The ``call_many`` contract.  ``sent[i]`` is request ``i``'s reply
    deadline once it went out under its shard's lock, or the exception it
    failed with before that; ``collect(shard_id, deadline)`` awaits a
    reply and releases the lock.  Every request is collected — a dead
    shard never stops the survivors — and results come back
    request-aligned.  If any shard was unavailable, one
    :class:`ShardCrashedError` (:class:`ShardHungError` carrying the first
    caught hang's deadline when every failure was a hang) naming all of
    them is raised with ``partial_results`` (``None`` at failed requests)
    and the ``shard_status`` map, built only then, attached; otherwise the
    first ordinary error is re-raised once every request was collected."""
    results: list = []
    failed: dict[int, str] = {}
    first_error: Exception | None = None
    first_hang: ShardHungError | None = None
    for (shard_id, _, _), deadline in zip(requests, sent):
        try:
            if isinstance(deadline, Exception):
                raise deadline
            results.append(collect(shard_id, deadline))
            continue
        except ShardHungError as exc:
            failed[shard_id] = "hung"
            first_hang = first_hang or exc
        except ShardCrashedError:
            failed[shard_id] = "crashed"
        except Exception as exc:  # noqa: BLE001 - re-raised below
            failed[shard_id] = "error"
            first_error = first_error or exc
        results.append(None)
    if not failed:
        return results
    bad = sorted(s for s, st in failed.items() if st != "error")
    if bad:
        if all(failed[s] == "hung" for s in bad):
            exc = ShardHungError(bad, first_hang.deadline_s)
        else:
            exc = ShardCrashedError(bad)
        exc.partial_results = results
        exc.shard_status = dict.fromkeys((s for s, _, _ in requests), "ok")
        exc.shard_status.update(failed)
        raise exc
    raise first_error


class ShardBackend:
    """N shards behind one call surface, each through its own transport.

    Args:
        specs: one :class:`ShardSpec` per shard.
        mode: forwarded to :meth:`Shard.build` (``"create"``/``"open"``).
        backend: ``"inprocess"`` (direct transports) or ``"process"``
            (pipe transports; workers build — recovery included — **in
            parallel**).
        deadline_s: default per-call response deadline; a shard that does
            not answer in time is killed and the call raises
            :class:`ShardHungError`.  ``None`` disables deadlines (the
            heartbeat watchdog still covers wedged workers).

    A shard's lock serialises its request→reply conversation (and
    reopen); ``kill_shard`` deliberately does *not* take it.
    ``transports`` is the per-shard list a test wrapper may replace an
    entry of.
    """

    def __init__(
        self,
        specs: list[ShardSpec],
        mode: str,
        backend: str,
        deadline_s: float | None,
    ) -> None:
        self.deadline_s = deadline_s
        self.kills = [0] * len(specs)
        self.reopens = [0] * len(specs)
        self._locks = [RLock() for _ in specs]
        self._crashed = [False] * len(specs)
        self._hung = [False] * len(specs)
        self.transports: list = []
        if backend == "inprocess":
            self.transports = [_DirectTransport(spec, mode) for spec in specs]
        elif backend == "process":
            try:
                for spec in specs:
                    self.transports.append(_PipeTransport(spec, mode))
                    self.transports[-1].spawn(mode)
                # All workers boot concurrently; collect readiness after.
                for transport in self.transports:
                    transport.await_ready()
            except BaseException:
                # Also KeyboardInterrupt/SystemExit: reap spawned workers + shm.
                self.close()
                raise
        else:
            raise ValueError(f"unknown backend {backend!r}")

    @property
    def n_shards(self) -> int:
        return len(self.transports)

    def shard(self, shard_id: int) -> Shard:
        """The :class:`Shard` object itself — direct transport only (for
        tests and in-process introspection)."""
        return self.transports[shard_id].shard

    # ----------------------------------------------------------------- calls

    def call(
        self,
        shard_id: int,
        op: str,
        args: tuple = (),
        *,
        deadline: float | None = ...,
    ):
        """Run one op on one shard and return its result (or raise its
        error).  ``deadline`` (seconds; ``None`` waits unbounded)
        overrides the op's default budget."""
        if deadline is ...:
            deadline = self.deadline_s
        transport = self.transports[shard_id]
        request = transport.encode((op, args))
        with self._locks[shard_id]:
            self._send(shard_id, transport, request)
            return self._recv(shard_id, transport, deadline)

    def call_many(
        self,
        requests: list[tuple[int, str, tuple]],
        *,
        deadline: float | None = ...,
    ):
        """Execute ``(shard_id, op, args)`` requests; results in
        request order.  Every request is encoded, then every one is sent,
        before any reply is collected, so worker processes run
        concurrently (the direct transport runs each request as its reply
        is collected).  ``deadline`` overrides the per-op defaults for
        every request in the batch (``None`` waits unbounded) — the close
        path uses this to keep a best-effort snapshot from waiting out a
        long op budget on a hung worker.

        A request that will not encode fails only its own attempt,
        without touching its shard's pipe or lock.  If any shard dies or
        hangs mid-batch, the surviving shards' responses are still
        collected (their sub-batches commit normally); see
        :func:`_gather` for what is raised and what rides on it."""
        encoded = []
        for shard_id, op, args in requests:
            try:
                encoded.append(self.transports[shard_id].encode((op, args)))
            except Exception as exc:  # noqa: BLE001 - _gather re-raises it
                encoded.append(exc)
        sent = []
        for (shard_id, op, _), request in zip(requests, encoded):
            if isinstance(request, Exception):
                sent.append(request)
                continue
            lock = self._locks[shard_id]
            lock.acquire()
            try:
                self._send(shard_id, self.transports[shard_id], request)
            except ShardCrashedError as exc:
                lock.release()
                sent.append(exc)
                continue
            if deadline is ...:
                sent.append(self.deadline_s)
            else:
                sent.append(deadline)
        return _gather(requests, sent, self._collect)

    def _collect(self, shard_id: int, deadline: float | None):
        """Second half of a fanned-out request: await the reply and
        release the shard's conversation lock."""
        try:
            return self._recv(shard_id, self.transports[shard_id], deadline)
        finally:
            self._locks[shard_id].release()

    def _send(self, shard_id: int, transport, request) -> None:
        if self._crashed[shard_id]:
            raise self._down(shard_id, None)
        try:
            transport.send(request)
        except TransportLost:
            raise self._lost(shard_id, None) from None

    def _recv(self, shard_id: int, transport, deadline: float | None):
        try:
            return transport.recv(deadline)
        except DeadlineMissed:
            # The conversation is desynchronised (a late reply would pair
            # with the wrong request): kill the shard, surface the hang.
            self.kill_shard(shard_id, hung=True)
            raise ShardHungError([shard_id], deadline) from None
        except TransportLost:
            raise self._lost(shard_id, deadline) from None

    def _lost(self, shard_id: int, deadline: float | None) -> ShardCrashedError:
        """The shard went away under a call (or the watchdog killed it):
        mark it crashed, reap it within the kill grace, and return the
        error to raise — a hang if it was killed as hung."""
        self._crashed[shard_id] = True
        self.transports[shard_id].reap()
        return self._down(shard_id, deadline)

    def _down(self, shard_id: int, deadline: float | None) -> ShardCrashedError:
        if self._hung[shard_id]:
            return ShardHungError([shard_id], deadline)
        return ShardCrashedError([shard_id])

    # ------------------------------------------------------------- liveness

    def shard_alive(self, shard_id: int) -> bool:
        """False from a crash or kill until :meth:`reopen_shard`.  A hung
        shard still counts as alive — exactly like a SIGSTOP'd worker,
        which the OS reports alive until the watchdog (reading its stale
        heartbeat) kills it."""
        return not self._crashed[shard_id] and self.transports[
            shard_id
        ].alive()

    def worker_pid(self, shard_id: int) -> int | None:
        """The shard's worker PID (``None`` on the direct transport)."""
        return self.transports[shard_id].pid

    def heartbeat_age(self, shard_id: int) -> float:
        """Seconds since the shard's last heartbeat stamp.  A SIGSTOP'd
        or wedged worker's age grows without bound; a healthy one stays
        around :data:`HEARTBEAT_INTERVAL_S` (0 on the direct transport)."""
        return self.transports[shard_id].heartbeat_age()

    def kill_shard(self, shard_id: int, *, hung: bool = False) -> None:
        """Forcibly end a shard; it is crashed until :meth:`reopen_shard`.

        Deliberately lock-free: on the pipe transport the kill
        (SIGTERM, bounded join, then SIGKILL) closes the worker's pipe
        end, which wakes any in-flight ``poll`` on this shard with EOF — a
        hung worker never blocks a call past the watchdog."""
        self._hung[shard_id] = hung or self._hung[shard_id]
        self._crashed[shard_id] = True
        self.kills[shard_id] += 1
        self.transports[shard_id].kill()

    def reopen_shard(self, shard_id: int) -> None:
        """Recover a crashed or hung shard.

        The shard is rebuilt over its surviving medium block, which runs
        normal recovery (catalog resolve + sketch rebuild).  The pipe
        transport spawns a fresh worker for it; a worker the OS still
        runs is killed first, every join is bounded, and the boot wait is
        capped by :data:`DEFAULT_BOOT_DEADLINE_S`.  Raises
        ``RuntimeError`` while the shard is alive."""
        with self._locks[shard_id]:
            if self.shard_alive(shard_id):
                raise RuntimeError(
                    f"shard {shard_id} is alive; reopen is for crashed "
                    "shards"
                )
            self.transports[shard_id].restart()
            self._crashed[shard_id] = self._hung[shard_id] = False
            self.reopens[shard_id] += 1

    def close(self) -> None:
        """Shut every shard down; teardown can never hang the parent."""
        for lock, transport in zip(self._locks, self.transports):
            with lock:
                transport.close()
        self.transports = []


#: The one backend class under the name the e2e benchmark's tracer wraps.
InProcessBackend = ShardBackend


class _DirectTransport:
    """One shard on the caller's thread: ``recv`` runs what ``send``
    queued.  A kill drops the queue, so a call caught in flight reads as
    the shard's loss; a restart rebuilds the shard over its medium."""

    pid = None
    #: A request crosses no boundary: ``tuple`` of a tuple is the tuple.
    encode = staticmethod(tuple)

    def __init__(self, spec: ShardSpec, mode: str) -> None:
        self.spec = spec
        self.medium = np.zeros(spec.block_bytes(mode), dtype=np.uint8)
        self.shard = Shard.build(spec, mode, self.medium)
        self._queued: deque = deque()
        self.send = self._queued.append

    def recv(self, deadline: float | None):
        if not self._queued:
            raise TransportLost  # killed with this request in flight
        op, args = self._queued.popleft()
        try:
            return self.shard.execute(op, args)
        except CrashError:
            self._queued.clear()
            raise TransportLost from None

    def alive(self) -> bool:
        return True

    def heartbeat_age(self) -> float:
        return 0.0

    def kill(self) -> None:
        self._queued.clear()

    def reap(self) -> None:
        """Nothing to reap: no process runs the shard."""

    def restart(self) -> None:
        self.shard.stop_maintenance()
        self.shard = Shard.build(self.spec, "open", self.medium)

    def close(self) -> None:
        self.shard.stop_maintenance()


def _error_frame(exc: BaseException) -> bytes:
    """An exception's reply frame, degrading to a picklable stand-in when
    the original will not survive the pipe."""
    try:
        return _encode(("err", exc))
    except Exception:
        return _encode(("err", RuntimeError(f"{type(exc).__name__}: {exc}")))


def _openblas():
    """The OpenBLAS this process has loaded (found in
    ``/proc/self/maps``), or ``None``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = [
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in maps)
                if len(fields) == 6 and "openblas" in fields[5]
            ]
    except OSError:
        return None
    return ctypes.CDLL(paths[0]) if paths else None


def _bound_blas_threads() -> None:
    """Run this worker's BLAS on one thread.  A worker is one shard's
    single-threaded loop; an unbound OpenBLAS pool starts a thread per
    CPU in every worker, and on two vCPUs they fight each other's model
    training (a process store's setup takes 1.5–2.3 s, not 0.38 s).
    NumPy's wheels ship ``libscipy_openblas64_``; a plain OpenBLAS names
    the setter without prefix or suffix."""
    lib = _openblas()
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None) or (
        getattr(lib, "openblas_set_num_threads", None)
    )
    if setter is None:
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(1)
    # After a fork the setter first restarts the pool it is shrinking; a
    # one-thread OpenBLAS never starts it again once it is shut down.
    shutdown = getattr(lib, "blas_thread_shutdown_", None)
    if shutdown is not None:
        shutdown.argtypes, shutdown.restype = [], ctypes.c_int
        shutdown()


def _beat(heartbeat, stop: threading.Event) -> None:
    """Heartbeat loop: stamp a monotonic timestamp ~10×/s.  Runs as a
    daemon thread in the worker; a SIGSTOP freezes it (with every other
    thread), which is exactly the signal the watchdog reads."""
    while not stop.wait(HEARTBEAT_INTERVAL_S):
        heartbeat.value = time.monotonic()


def _shard_worker(
    request_fd: int, reply_fd: int, shm_name: str, spec: ShardSpec,
    mode: str, heartbeat,
) -> None:
    """Worker main: build the shard over the shared media, then serve the
    request/response loop until shutdown (or simulated crash).  EOF on
    the request pipe or EPIPE on the reply pipe means the parent is gone:
    the worker returns quietly.

    The heartbeat thread starts *before* the build so a worker in a long
    build or recovery still reads as alive; maintenance workers
    (scrubber / compactor) are stopped on clean shutdown.  The medium's handle is
    never closed: the device's planes are views into it (closing under
    them raises ``BufferError``), and the mapping ends with the process."""
    for fd in _PIPE_FDS - {request_fd, reply_fd}:
        os.close(fd)
    _bound_blas_threads()
    shm = shared_memory.SharedMemory(name=shm_name)
    _WORKER_MEDIUM.append(shm)  # outlives this frame: see above
    heartbeat.value = time.monotonic()
    beat_stop = threading.Event()
    threading.Thread(
        target=_beat, args=(heartbeat, beat_stop), daemon=True,
        name=f"shard-{spec.shard_id}-heartbeat",
    ).start()
    try:
        try:
            shard = Shard.build(spec, mode, content_buffer=shm.buf)
        except BaseException as exc:
            # Also KeyboardInterrupt/SystemExit: await_ready must hear why.
            _write_frame(reply_fd, _error_frame(exc))
            return
        _write_frame(reply_fd, _encode(("ready", spec.shard_id)))
        while True:
            op, args = _decode(_read_frame(request_fd))
            if op == "__shutdown__":
                shard.stop_maintenance()
                _write_frame(reply_fd, _encode(("ok", None)))
                return
            try:
                # Encoded inside the try: a result that will not pickle is
                # answered as an error, and the worker keeps serving.
                reply = _encode(("ok", shard.execute(op, args)))
            except CrashError:
                # Simulated power loss on this channel: die without a
                # response or any cleanup.  The media bytes live in the
                # parent's shared-memory block and survive verbatim.
                os._exit(_CRASH_EXIT_STATUS)
            except BaseException as exc:
                # Also KeyboardInterrupt/SystemExit: every request gets its
                # reply (the parent re-raises a non-Exception payload at once).
                reply = _error_frame(exc)
            _write_frame(reply_fd, reply)
    except (EOFError, OSError):
        pass  # the parent went away: nothing to serve, nobody to answer
    finally:
        beat_stop.set()


class _PipeTransport:
    """One shard's worker process, reached over two pipes, with its media
    in a shared-memory block this side owns (so the media outlives every
    worker).  ``request_fd`` and ``reply_fd`` are this side's ends;
    ``poller`` is registered on ``reply_fd`` once per spawn, so every
    wait reuses it."""

    encode = staticmethod(_encode)

    def __init__(self, spec: ShardSpec, mode: str) -> None:
        self.spec = spec
        self.process = None
        self.request_fd = self.reply_fd = None
        self.poller = None
        self.heartbeat = RawValue("d", 0.0)
        self.spawned_at = 0.0
        self.shm = shared_memory.SharedMemory(
            create=True, size=spec.block_bytes(mode)
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def spawn(self, mode: str) -> None:
        request_r, request_w = _pipe()
        reply_r, reply_w = _pipe()
        self.spawned_at = time.monotonic()
        self.heartbeat.value = self.spawned_at
        process = _CTX.Process(
            target=_shard_worker,
            args=(
                request_r, reply_w, self.shm.name, self.spec, mode,
                self.heartbeat,
            ),
            daemon=True,
            name=f"shard-{self.spec.shard_id}",
        )
        try:
            process.start()
        except BaseException:
            # Also KeyboardInterrupt/SystemExit: no worker will own the
            # parent's pipe ends, so close them before re-raising.
            _close_fd(request_w)
            _close_fd(reply_r)
            raise
        finally:
            # The worker's ends are its own now: its exit is our EOF.
            _close_fd(request_r)
            _close_fd(reply_w)
        poller = select.poll()
        poller.register(reply_r, select.POLLIN)
        self.process = process
        self.request_fd, self.reply_fd = request_w, reply_r
        self.poller = poller

    def await_ready(self) -> None:
        """Wait for the fresh worker's build (bounded by
        :data:`DEFAULT_BOOT_DEADLINE_S`); a build error is re-raised."""
        shard_id = self.spec.shard_id
        try:
            self.recv(DEFAULT_BOOT_DEADLINE_S)
        except DeadlineMissed:
            self.kill()
            raise ShardHungError([shard_id], DEFAULT_BOOT_DEADLINE_S) from None
        except TransportLost:
            self.reap()
            raise ShardCrashedError([shard_id]) from None

    def send(self, frame: bytes) -> None:
        try:
            _write_frame(self.request_fd, frame)
        except OSError:
            raise TransportLost from None

    def recv(self, deadline: float | None):
        """Bounded reply wait on the registered poller (the deadline in
        ms; ``None`` blocks in the read), then decode one frame.  A
        worker's exit (its own, or a kill from outside) wakes the poll
        with POLLHUP and the read sees EOF: the call never outlives the
        worker."""
        try:
            if deadline is not None and not self.poller.poll(
                deadline * 1000.0
            ):
                raise DeadlineMissed
            frame = _read_frame(self.reply_fd)
        except (EOFError, OSError):
            raise TransportLost from None
        status, payload = _decode(frame)
        if status == "err":
            raise payload
        return payload

    def alive(self) -> bool:
        # Read without the shard lock (the watchdog must not wait behind
        # a call), so a reopen may be releasing this worker meanwhile.
        process = self.process
        try:
            return process is not None and process.is_alive()
        except ValueError:  # closed by that reopen's ``_release``
            return False

    def heartbeat_age(self) -> float:
        return time.monotonic() - max(self.heartbeat.value, self.spawned_at)

    def kill(self) -> None:
        """SIGTERM, bounded join, then SIGKILL — which also reaps a
        SIGSTOP'd worker (it ignores SIGTERM while stopped)."""
        process = self.process
        if process is None or not process.is_alive():
            self.reap()
            return
        process.terminate()
        process.join(DEFAULT_KILL_GRACE_S)
        if process.is_alive():
            process.kill()
            process.join(DEFAULT_KILL_GRACE_S)

    def reap(self) -> None:
        if self.process is not None:
            self.process.join(DEFAULT_KILL_GRACE_S)

    def _release(self) -> None:
        """Close this side's two pipe ends and the dead worker's
        ``Process`` (its sentinel is a pipe too) now, not at collection:
        each exactly once, and nothing when a failed spawn left none."""
        if self.reply_fd is None:
            return
        _close_fd(self.request_fd)
        _close_fd(self.reply_fd)
        self.request_fd = self.reply_fd = None
        if self.process.exitcode is not None:
            self.process.close()
        self.process = None

    def restart(self) -> None:
        # A worker the OS still runs (a SIGSTOP'd one nobody killed yet)
        # ends for real before a fresh one adopts the medium.
        self.kill()
        self._release()
        self.spawn("open")
        self.await_ready()

    def close(self) -> None:
        """A polite ``__shutdown__`` round with bounded grace, then
        SIGTERM→SIGKILL for a straggler; the media block goes last."""
        if self.reply_fd is not None:
            if self.process.is_alive():
                try:
                    _write_frame(
                        self.request_fd, _encode(("__shutdown__", ()))
                    )
                    if self.poller.poll(DEFAULT_CLOSE_GRACE_S * 1000.0):
                        _read_frame(self.reply_fd)
                except (EOFError, OSError):
                    pass
            self.process.join(DEFAULT_CLOSE_GRACE_S)
            self.kill()
            self._release()
        try:
            self.shm.close()
            self.shm.unlink()
        except (BufferError, FileNotFoundError):
            pass
