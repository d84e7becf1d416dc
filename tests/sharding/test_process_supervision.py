"""Process-backend supervision: real signals, real deadlines, real media.

Marked ``sharding`` (excluded from tier-1): every test spawns worker
processes.  These are the fidelity twins of ``test_supervisor.py`` —
the SIGSTOP here is a real signal against a real PID, the deadline is a
real ``select.poll`` timeout on the worker's pipe, and recovery
re-attaches real shared-memory media.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core.config import fast_test_config
from repro.nvm.device import DriftConfig
from repro.sharding import supervisor as supervisor_module
from repro.sharding import (
    ShardedKVStore,
    ShardHungError,
    ShardSupervisor,
)
from repro.sharding.backends import (
    DEFAULT_CLOSE_GRACE_S,
    DEFAULT_KILL_GRACE_S,
)
from repro.testing.transport import FaultyTransport

pytestmark = pytest.mark.sharding

SEGMENT_SIZE = 64
N_SEGMENTS = 64
KEY_CAPACITY = 16


def _items(n, seed=13):
    rng = np.random.default_rng(seed)
    return [
        (
            b"key-%04d" % i,
            rng.integers(0, 256, 40, dtype=np.uint8).tobytes(),
        )
        for i in range(n)
    ]


def _create(tmp_path, **kwargs):
    kwargs.setdefault("config", fast_test_config())
    return ShardedKVStore.create(
        tmp_path / "store",
        3,
        segment_size=SEGMENT_SIZE,
        n_segments_per_shard=N_SEGMENTS,
        backend="process",
        key_capacity=KEY_CAPACITY,
        **kwargs,
    )


class TestWatchdog:
    def test_sigstop_detected_by_heartbeat_and_restarted(self, tmp_path):
        """A SIGSTOP'd worker answers no RPC and ignores SIGTERM; only its
        stale heartbeat betrays it.  The watchdog must kill (SIGKILL path)
        and the supervisor reopen it — with the data intact."""
        with _create(tmp_path) as store:
            sup = ShardSupervisor(
                store, heartbeat_timeout_s=0.4, restart_budget=3
            )
            items = _items(24)
            store.put_many(items)
            pid = store.backend.worker_pid(1)
            os.kill(pid, signal.SIGSTOP)
            time.sleep(0.6)
            assert store.backend.heartbeat_age(1) > 0.4
            assert store.shard_alive(1)  # OS still reports it alive
            assert sup.await_healthy(timeout=30.0)
            tel = sup.telemetry()
            assert tel["watchdog_kills"] == 1
            assert tel["restarts"] == 1
            assert store.backend.worker_pid(1) != pid  # fresh worker
            assert store.get_many([k for k, _ in items]) == [
                v for _, v in items
            ]

    def test_hung_worker_never_blocks_rpc_past_deadline(self, tmp_path):
        """The regression the tentpole demands: an RPC to a SIGSTOP'd
        worker raises within its deadline plus the bounded kill grace —
        never an unbounded ``recv``."""
        with _create(tmp_path) as store:
            pid = store.backend.worker_pid(2)
            os.kill(pid, signal.SIGSTOP)
            deadline = 0.5
            t0 = time.monotonic()
            with pytest.raises(ShardHungError):
                store.backend.call(2, "get", (b"k",), deadline=deadline)
            elapsed = time.monotonic() - t0
            # deadline + SIGTERM grace + SIGKILL grace, with slack.
            bound = deadline + 2 * DEFAULT_KILL_GRACE_S + 1.0
            assert elapsed < bound
            # The shard is killed (pipe desynchronised ⇒ unusable) and
            # reopen recovers it from the surviving media.
            assert not store.shard_alive(2)
            store.reopen_shard(2)
            assert store.shard_alive(2)

    def test_call_many_hang_reports_the_deadline_that_expired(
        self, tmp_path
    ):
        """A batch's hang names the deadline the batch ran under, not the
        backend default."""
        with _create(tmp_path) as store:
            os.kill(store.backend.worker_pid(0), signal.SIGSTOP)
            with pytest.raises(ShardHungError) as excinfo:
                store.backend.call_many([(0, "len", ())], deadline=0.3)
            assert excinfo.value.deadline_s == 0.3
            assert "(0.3s)" in str(excinfo.value)
            assert excinfo.value.shard_status == {0: "hung"}

    def test_watchdog_kill_wakes_inflight_rpc(self, tmp_path):
        """kill_shard is lock-free: killing a hung worker closes its pipe
        and wakes an RPC blocked in poll() long before its own deadline."""
        import threading

        with _create(tmp_path) as store:
            pid = store.backend.worker_pid(0)
            os.kill(pid, signal.SIGSTOP)
            result: dict = {}

            def rpc():
                t0 = time.monotonic()
                try:
                    store.backend.call(0, "get", (b"k",), deadline=30.0)
                except ShardHungError:
                    result["elapsed"] = time.monotonic() - t0

            thread = threading.Thread(target=rpc)
            thread.start()
            time.sleep(0.3)  # let the RPC block in poll()
            store.backend.kill_shard(0, hung=True)
            thread.join(10.0)
            assert not thread.is_alive()
            # Woken by the closed pipe, not the 30 s deadline.
            assert result["elapsed"] < 10.0


class TestCircuitBreakerOnWorkers:
    def test_budget_exhaustion_trips_breaker_and_reset_heals(
        self, tmp_path, monkeypatch
    ):
        """``TestCircuitBreaker`` against real workers: failed restarts
        exhaust the budget and open the breaker, which then burns no
        attempts; ``reset`` closes it and a fresh worker re-attaches to
        the media with every acked write readable."""
        monkeypatch.setattr(supervisor_module, "BACKOFF_BASE_S", 0.0)
        with _create(tmp_path) as store:
            sup = ShardSupervisor(store, restart_budget=2, auto_start=False)
            items = _items(24)
            store.put_many(items)
            pid = store.backend.worker_pid(1)
            store.backend.kill_shard(1)
            FaultyTransport.install(store, 1).fail_restarts(2)
            for _ in range(4):
                sup.run_once()
            assert sup.breaker_open(1)
            assert sup.open_breakers() == [1]
            assert sup.telemetry()["breaker_trips"] == 1
            attempts = sup.health[1].attempts
            sup.run_once()
            assert sup.health[1].attempts == attempts
            assert not store.shard_alive(1)
            sup.reset(1)
            assert not sup.breaker_open(1)
            assert store.shard_alive(1)
            assert sup.healthy()
            assert store.backend.worker_pid(1) != pid
            assert store.get_many([k for k, _ in items]) == [
                v for _, v in items
            ]


class TestDegradedProcess:
    def test_partial_put_many_under_dead_shard(self, tmp_path):
        """Satellite: one dead shard, ``partial`` policy — survivors'
        sub-batches commit and are reported, the dead shard's items carry
        an explicit outcome, and after reopen a retry completes."""
        with _create(tmp_path, degraded="partial") as store:
            items = _items(24)
            first = store.put_many(items)
            assert first.ok
            store.backend.kill_shard(1)
            report = store.put_many(_items(24, seed=29))
            assert not report.ok
            dead = [i for i, o in enumerate(report.outcomes) if o != "ok"]
            assert dead and all(
                report.outcomes[i] in ("crashed", "hung") for i in dead
            )
            survivors = [i for i in range(len(items)) if i not in dead]
            assert survivors and all(
                report[i] is not None for i in survivors
            )
            store.reopen_shard(1)
            retry = store.put_many(_items(24, seed=29))
            assert retry.ok
            final = store.get_many([k for k, _ in items])
            assert final.ok
            assert list(final) == [
                v for _, v in _items(24, seed=29)
            ]


class TestInWorkerMaintenance:
    def test_scrubber_heals_drift_on_worker_cadence(self, tmp_path):
        """Satellite: drift accumulates, and the *in-worker* scrubber
        heals it on its own cadence — the facade issues no scrub calls,
        only the clock advance and the final reads."""
        with _create(
            tmp_path,
            scrubber=True,
            compactor=True,
            maintenance=True,
            scrub_interval_s=0.02,
            drift=DriftConfig(retention_mean=5_000.0),
        ) as store:
            items = _items(24)
            store.put_many(items)
            drifted = sum(store.advance_time(20_000))
            assert drifted > 0
            deadline = time.monotonic() + 30.0
            healed = False
            while time.monotonic() < deadline:
                tel = store.telemetry()
                if tel["scrub"]["bits_healed"] > 0:
                    healed = True
                    break
                time.sleep(0.1)
            assert healed, "in-worker scrubber never healed a bit"
            assert store.get_many([k for k, _ in items]) == [
                v for _, v in items
            ]
            tel = store.telemetry()
            assert all(
                any(
                    w["name"] == "scrubber" and w["running"]
                    for w in t["maintenance"]
                )
                for t in tel["shards"]
            )

    def test_maintenance_survives_reopen(self, tmp_path):
        """A reopened worker rebuilds its maintenance loops from the spec
        — supervision config travels in the manifest entry."""
        with _create(
            tmp_path,
            scrubber=True,
            maintenance=True,
        ) as store:
            store.put_many(_items(12))
            store.backend.kill_shard(0)
            store.reopen_shard(0)
            info = store.telemetry()["shards"][0]["maintenance"]
            assert any(
                w["name"] == "scrubber" and w["running"] for w in info
            )


class TestBoundedTeardown:
    def test_close_with_sigstopped_worker_is_bounded(self, tmp_path):
        """Satellite: close() must escalate SIGTERM→SIGKILL instead of
        joining a stopped worker forever."""
        store = _create(tmp_path)
        grace = DEFAULT_CLOSE_GRACE_S + 2 * DEFAULT_KILL_GRACE_S
        store.put_many(_items(12))
        os.kill(store.backend.worker_pid(1), signal.SIGSTOP)
        t0 = time.monotonic()
        store.close()
        # One stopped worker: shutdown poll + term/kill grace, with slack
        # for the two healthy workers' snapshot writes.
        assert time.monotonic() - t0 < grace + 10.0

    def test_reopen_kills_still_running_hung_worker(self, tmp_path):
        """reopen_shard on a SIGSTOP'd (OS-alive but marked hung) worker
        must kill it for real before re-attaching the media."""
        with _create(tmp_path) as store:
            items = _items(24)
            store.put_many(items)
            pid = store.backend.worker_pid(2)
            os.kill(pid, signal.SIGSTOP)
            store.backend.kill_shard(2, hung=True)  # watchdog's move
            store.reopen_shard(2)
            assert store.shard_alive(2)
            with pytest.raises(OSError):
                os.kill(pid, 0)  # old worker truly reaped
            assert store.get_many([k for k, _ in items]) == [
                v for _, v in items
            ]
