"""The pipe transport: one length-framed pickle per message each way over
two raw pipes, every message encoded before anything is written.

Pipe-transport cases are marked ``sharding`` (they spawn workers).  The
frame codec runs in tier-1 over in-process pipes, and so does the
direct-transport twin of the unpicklable-batch scenario: it is the
behaviour the pipe transport must match.
"""

from __future__ import annotations

import ctypes
import gc
import os
import random
import select
import signal
import threading

import pytest

from repro.core.config import fast_test_config
from repro.sharding import ShardedKVStore, ShardHungError, backends
from repro.sharding.backends import (
    TransportLost,
    _encode,
    _HEADER,
    _PipeTransport,
    _read_frame,
    _write_frame,
)
from repro.sharding.shard import Shard

BACKENDS = ["inprocess", pytest.param("process", marks=pytest.mark.sharding)]


def _create(tmp_path, backend: str) -> ShardedKVStore:
    return ShardedKVStore.create(
        tmp_path / "store",
        2,
        segment_size=64,
        n_segments_per_shard=64,
        config=fast_test_config(),
        backend=backend,
        key_capacity=16,
    )


def _key_on(store: ShardedKVStore, shard_id: int) -> bytes:
    return next(
        key
        for key in (b"key-%04d" % i for i in range(1000))
        if store.shard_of(key) == shard_id
    )


def _from_another_thread(fn):
    """Run ``fn`` on a fresh thread (a conversation lock leaked by this
    thread is reentrant here, not there) and return or raise its
    outcome; a call still blocked after 30 s fails the test."""
    out: dict = {}

    def run():
        try:
            out["result"] = fn()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(30.0)
    assert not thread.is_alive(), "call still blocked after 30 s"
    if "error" in out:
        raise out["error"]
    return out["result"]


@pytest.fixture
def pipe():
    """An in-process ``(read_fd, write_fd)`` pipe; whichever end a test
    leaves open is closed after it."""
    fds = os.pipe()
    yield fds
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


def _bare_transport(request_fd: int, reply_fd: int) -> _PipeTransport:
    """A pipe transport over the given fds with no worker behind it: just
    enough state for ``send`` and ``recv``."""
    transport = object.__new__(_PipeTransport)
    transport.request_fd, transport.reply_fd = request_fd, reply_fd
    transport.poller = select.poll()
    transport.poller.register(reply_fd, select.POLLIN)
    return transport


class TestFrameCodec:
    @pytest.mark.parametrize(
        "size",
        # 65 532: header plus payload fill exactly one 64-KiB read.
        # 200 KiB outgrows the pipe buffer, so the write needs a reader.
        [0, 1, 65_532, 200 * 1024],
    )
    def test_round_trip(self, pipe, size):
        read_fd, write_fd = pipe
        payload = random.Random(size).randbytes(size)
        writer = threading.Thread(target=_write_frame, args=(write_fd, payload))
        writer.start()
        assert _read_frame(read_fd) == payload
        writer.join(10.0)
        os.close(write_fd)
        assert os.read(read_fd, 1) == b""  # the frame, all of it, no more

    @pytest.mark.parametrize(
        "partial",
        [b"", _HEADER.pack(10)[:2], _HEADER.pack(10) + b"abc"],
        ids=["before-header", "mid-header", "mid-payload"],
    )
    def test_eof_anywhere_in_a_frame(self, pipe, partial):
        read_fd, write_fd = pipe
        os.write(write_fd, partial)
        os.close(write_fd)
        with pytest.raises(EOFError):
            _read_frame(read_fd)

    def test_write_to_a_closed_reader_raises(self, pipe):
        read_fd, write_fd = pipe
        os.close(read_fd)
        with pytest.raises(OSError):
            _write_frame(write_fd, b"x")

    def test_transport_maps_eof_and_epipe_to_lost(self):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        transport = _bare_transport(request_w, reply_r)
        try:
            transport.send(b"hello")
            assert _read_frame(request_r) == b"hello"
            _write_frame(reply_w, _encode(("ok", 7)))
            assert transport.recv(1.0) == 7
            os.write(reply_w, _HEADER.pack(10) + b"abc")
            os.close(reply_w)
            for deadline in (1.0, None):  # POLLHUP, then the read sees EOF
                with pytest.raises(TransportLost):
                    transport.recv(deadline)
            os.close(request_r)
            with pytest.raises(TransportLost):
                transport.send(b"hello")
        finally:
            for fd in (request_w, reply_r):
                os.close(fd)


class TestLivenessDuringReopen:
    def test_a_released_worker_reads_as_dead(self):
        """``shard_alive`` reads liveness without the shard lock, so a
        concurrent reopen may have released the worker: no process, or a
        closed one, is not alive (the rebalance storm once raised
        ``AttributeError`` here)."""
        transport = object.__new__(_PipeTransport)
        transport.process = None
        assert not transport.alive()
        closed = backends._CTX.Process(target=int)  # never started
        closed.close()
        transport.process = closed
        assert not transport.alive()


class _PollSpy:
    """Records each wait on a transport's registered poller."""

    def __init__(self, poller, calls: list) -> None:
        self._poller = poller
        self._calls = calls

    def poll(self, *args):
        self._calls.append("poll")
        return self._poller.poll(*args)


class TestEncodeBeforeSend:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpicklable_item_fails_its_batch_without_desync(
        self, tmp_path, backend
    ):
        """Shard 0 holds ``k0``; a ``put_many`` whose shard-1 item cannot
        cross a pipe raises ``TypeError`` after shard 0's sub-batch has
        committed, and no stale reply or held lock is left behind."""
        store = _create(tmp_path, backend)
        try:
            k0, k1 = _key_on(store, 0), _key_on(store, 1)
            store.put(k0, b"A" * 40)
            with pytest.raises(TypeError):
                store.put_many([(k0, b"B" * 40), (k1, threading.Lock())])
            assert store.get(k0) == b"B" * 40
            assert _from_another_thread(lambda: store.get(k1)) is None
            assert [store.backend.call(s, "len") for s in (0, 1)] == [1, 0]
            store.put(k1, b"C" * 40)
            assert store.get_many([k0, k1]) == [b"B" * 40, b"C" * 40]
        finally:
            store.close()


@pytest.mark.sharding
class TestPipeTransport:
    def test_unpicklable_reply_is_an_error_reply(self, tmp_path, monkeypatch):
        """A result that will not pickle is answered through the error
        path; the worker survives and serves the next call."""
        monkeypatch.setattr(
            Shard, "_op_unpicklable", lambda self: threading.Lock(),
            raising=False,
        )
        store = _create(tmp_path, "process")
        try:
            with pytest.raises(TypeError, match="pickle"):
                store.backend.call(0, "unpicklable")
            assert store.shard_alive(0)
            k0 = _key_on(store, 0)
            store.put(k0, b"A" * 40)
            assert store.get(k0) == b"A" * 40
        finally:
            store.close()

    def test_scalar_call_is_one_frame_each_way(self, tmp_path, monkeypatch):
        """The parent's syscalls on one shard's pipes for a scalar call:
        one write of the request, one poll, one read of the reply."""
        store = _create(tmp_path, "process")
        try:
            transport = store.backend.transports[0]
            ours = (transport.request_fd, transport.reply_fd)
            calls: list = []

            def spy(name, real):
                def syscall(fd, *args):
                    if fd in ours:
                        calls.append((name, fd))
                    return real(fd, *args)

                return syscall

            with monkeypatch.context() as patch:
                patch.setattr(backends.os, "write", spy("write", os.write))
                patch.setattr(backends.os, "read", spy("read", os.read))
                patch.setattr(
                    transport, "poller", _PollSpy(transport.poller, calls)
                )
                assert store.backend.call(0, "len") == 0
            assert calls == [
                ("write", transport.request_fd),
                "poll",
                ("read", transport.reply_fd),
            ]
        finally:
            store.close()

    def test_wait_follows_the_reopened_pipe(self, tmp_path):
        """After a reopen the call is served, and a deadline still fires
        against the fresh worker — the wait polls the new pipe, not the
        closed one."""
        store = _create(tmp_path, "process")
        try:
            k0 = _key_on(store, 0)
            store.put(k0, b"A" * 40)
            store.backend.kill_shard(0)
            store.reopen_shard(0)
            assert store.get(k0) == b"A" * 40
            os.kill(store.backend.worker_pid(0), signal.SIGSTOP)
            with pytest.raises(ShardHungError):
                _from_another_thread(
                    lambda: store.backend.call(0, "len", deadline=0.5)
                )
        finally:
            store.close()


def _fds(pid="self") -> dict[int, str]:
    """A process's open fds, each mapped to what it names.  Garbage left
    by earlier tests is collected first, so its finalizers cannot close
    fds while this test compares snapshots."""
    gc.collect()
    out = {}
    for name in os.listdir(f"/proc/{pid}/fd"):
        try:
            out[int(name)] = os.readlink(f"/proc/{pid}/fd/{name}")
        except FileNotFoundError:
            pass  # the listing's own directory fd, closed since
    return out


def _pipe_inodes(fds) -> set[int]:
    return {os.fstat(fd).st_ino for fd in fds}


@pytest.mark.sharding
class TestWorkerHygiene:
    def test_pipe_fds_are_owned(self, tmp_path):
        """Every pipe fd a store opens is closed again, across reopens
        and on close, and no worker holds another shard's pipes (so a
        shard's EOF never waits on another shard's worker)."""
        # The first store of a process starts multiprocessing's resource
        # tracker and heap arena, which outlive it.
        _create(tmp_path / "warm-up", "process").close()
        before = set(_fds())
        store = _create(tmp_path, "process")
        try:
            started = set(_fds())
            for _ in range(3):
                store.backend.kill_shard(1)
                store.reopen_shard(1)
            assert set(_fds()) == started
            transports = store.backend.transports
            inodes = [
                _pipe_inodes((t.request_fd, t.reply_fd)) for t in transports
            ]
            for shard_id, transport in enumerate(transports):
                held = {
                    int(link[len("pipe:["):-1])
                    for link in _fds(transport.pid).values()
                    if link.startswith("pipe:[")
                }
                assert inodes[shard_id] <= held  # its own two pipes
                for other, foreign in enumerate(inodes):
                    if other != shard_id:
                        assert not held & foreign, (shard_id, other)
        finally:
            store.close()
        assert set(_fds()) == before

    def test_worker_blas_runs_on_one_thread(self, tmp_path):
        """A worker binds its BLAS to one thread before it trains: after a
        build whose products are large enough for OpenBLAS to go parallel,
        it runs its main thread and its heartbeat, nothing more — even
        when the parent's BLAS is unbound (as with OPENBLAS_NUM_THREADS
        unset on a multi-core box)."""
        lib = backends._openblas()
        if lib is None:
            pytest.skip("no OpenBLAS loaded")
        prefix, suffix = (
            ("scipy_", "64_")
            if hasattr(lib, "scipy_openblas_get_num_threads64_")
            else ("", "")
        )
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
        set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        threads = get()
        set_(max(threads, 2))
        try:
            store = ShardedKVStore.create(
                tmp_path / "store",
                2,
                segment_size=64,
                n_segments_per_shard=64,
                config=fast_test_config(hidden=(64,), batch_size=64),
                backend="process",
                key_capacity=16,
            )
        finally:
            set_(threads)
        try:
            for shard_id in range(2):
                pid = store.backend.worker_pid(shard_id)
                assert len(os.listdir(f"/proc/{pid}/task")) <= 2
        finally:
            store.close()
