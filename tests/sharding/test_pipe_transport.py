"""The pipe transport: one pickled frame per message each way, every
message encoded before anything is written.

Pipe-transport cases are marked ``sharding`` (they spawn workers).  The
direct-transport twin of the unpicklable-batch scenario runs in tier-1:
it is the behaviour the pipe transport must match.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.core.config import fast_test_config
from repro.sharding import ShardedKVStore, ShardHungError
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


class _ConnSpy:
    """Records every method the parent uses on a worker's connection."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self.calls: list[str] = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._conn, name)


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

    def test_scalar_call_is_one_frame_each_way(self, tmp_path):
        store = _create(tmp_path, "process")
        try:
            transport = store.backend.transports[0]
            real = transport.conn
            transport.conn = spy = _ConnSpy(real)
            try:
                assert store.backend.call(0, "len") == 0
            finally:
                transport.conn = real
            assert spy.calls == ["send_bytes", "recv_bytes"]
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
