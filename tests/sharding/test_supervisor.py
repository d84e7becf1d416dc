"""Supervisor, circuit breaker and degraded-mode routing — tier-1.

Everything here runs on the direct transport: crashes are
``backend.kill_shard``, and hangs and failed reopens come from
:class:`~repro.testing.transport.FaultyTransport` installed over a
shard's transport.  The supervisor is backend-agnostic by design — it
only consumes ``shard_alive`` / ``heartbeat_age`` / ``kill_shard`` /
``reopen_shard`` — so the whole watchdog → restart-budget → breaker →
degraded-routing story is testable without spawning a single process.
Process-level fidelity (real SIGSTOP, real deadlines, real media) lives
in ``test_process_supervision.py`` under the ``sharding`` marker.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.config import fast_test_config
from repro.sharding import supervisor as supervisor_module
from repro.sharding import (
    BatchReport,
    ShardCircuitOpenError,
    ShardCrashedError,
    ShardedKVStore,
    ShardHungError,
    ShardSupervisor,
    ShardUnavailableError,
)
from repro.testing.transport import FaultyTransport

N_SHARDS = 3


def _items(n, tag=b"v"):
    return [(b"key-%04d" % i, tag + b"-%04d" % i) for i in range(n)]


def _store(root, degraded="fail_fast", **kwargs):
    return ShardedKVStore.create(
        root / "store",
        N_SHARDS,
        segment_size=64,
        n_segments_per_shard=64,
        config=fast_test_config(),
        degraded=degraded,
        **kwargs,
    )


def _hang(store, shard_id):
    FaultyTransport.install(store, shard_id).hang()


def _fail_reopens(store, shard_id, times):
    FaultyTransport.install(store, shard_id).fail_restarts(times)


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    """Every round may retry a failed reopen at once."""
    monkeypatch.setattr(supervisor_module, "BACKOFF_BASE_S", 0.0)


def _supervisor(store, **kwargs):
    kwargs.setdefault("restart_budget", 3)
    kwargs.setdefault("auto_start", False)
    return ShardSupervisor(store, **kwargs)


class TestSupervisorHealing:
    def test_reopens_crashed_shard(self, tmp_path):
        with _store(tmp_path) as store:
            sup = _supervisor(store)
            store.backend.kill_shard(1)
            assert not store.shard_alive(1)
            sup.run_once()
            assert store.shard_alive(1)
            assert sup.telemetry()["restarts"] == 1
            assert sup.health[1].recovery_times_s

    def test_watchdog_kills_hung_shard_by_heartbeat(self, tmp_path):
        """A hung shard (stale heartbeat, still 'alive') is detected via
        heartbeat age alone — no RPC involved — killed and restarted."""
        with _store(tmp_path) as store:
            sup = _supervisor(store, heartbeat_timeout_s=0.01)
            _hang(store, 2)
            time.sleep(0.02)
            assert store.backend.heartbeat_age(2) > 0.01
            sup.run_once()  # watchdog kill
            sup.run_once()  # reopen
            assert store.shard_alive(2)
            tel = sup.telemetry()
            assert tel["watchdog_kills"] == 1
            assert tel["restarts"] == 1
            assert store.backend.kills[2] == 1

    def test_stability_resets_episode_budget(self, tmp_path):
        with _store(tmp_path) as store:
            sup = _supervisor(store, stable_after_s=0.0)
            store.backend.kill_shard(0)
            sup.run_once()
            assert sup.health[0].attempts == 1
            sup.run_once()  # healthy + stable_after elapsed: episode over
            assert sup.health[0].attempts == 0

    def test_failed_reopen_backs_off_before_the_next_attempt(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(supervisor_module, "BACKOFF_BASE_S", 0.5)
        with _store(tmp_path) as store:
            sup = _supervisor(store)
            store.backend.kill_shard(0)
            _fail_reopens(store, 0, 1)
            failed_at = time.monotonic()
            sup.run_once()  # attempt 1 fails: the next one waits 0.5 s
            sup.run_once()  # inside the window: no attempt is burned
            assert sup.health[0].attempts == 1
            assert not store.shard_alive(0)
            assert sup.await_healthy(timeout=5.0)
            assert time.monotonic() - failed_at >= 0.5
            assert sup.health[0].attempts == 2

    def test_await_healthy_runs_rounds_inline(self, tmp_path):
        with _store(tmp_path) as store:
            sup = _supervisor(store)
            store.backend.kill_shard(0)
            store.backend.kill_shard(2)
            assert sup.await_healthy(timeout=5.0)
            assert all(store.shard_alive(s) for s in range(N_SHARDS))


class TestCircuitBreaker:
    def test_budget_exhaustion_trips_breaker(self, tmp_path):
        with _store(tmp_path) as store:
            sup = _supervisor(store, restart_budget=2)
            store.backend.kill_shard(1)
            _fail_reopens(store, 1, 10)
            for _ in range(4):
                sup.run_once()
            assert sup.breaker_open(1)
            assert sup.open_breakers() == [1]
            assert sup.telemetry()["breaker_trips"] == 1
            # Open breaker: no further reopen attempts are burned.
            attempts = sup.health[1].attempts
            sup.run_once()
            assert sup.health[1].attempts == attempts

    def test_reset_closes_breaker_and_heals(self, tmp_path):
        with _store(tmp_path) as store:
            sup = _supervisor(store, restart_budget=1)
            store.backend.kill_shard(1)
            _fail_reopens(store, 1, 1)
            for _ in range(3):
                sup.run_once()
            assert sup.breaker_open(1)
            sup.reset(1)
            assert not sup.breaker_open(1)
            assert store.shard_alive(1)
            assert sup.healthy()


class TestDegradedFailFast:
    def test_default_raises_with_partial_results(self, tmp_path):
        with _store(tmp_path, "fail_fast") as store:
            items = _items(24)
            store.put_many(items)
            store.backend.kill_shard(1)
            with pytest.raises(ShardCrashedError) as excinfo:
                store.get_many([k for k, _ in items])
            exc = excinfo.value
            assert exc.shard_ids == [1]
            assert exc.partial_results is not None
            assert exc.shard_status[1] == "crashed"
            ok_shards = [s for s, st in exc.shard_status.items() if st == "ok"]
            assert len(ok_shards) == N_SHARDS - 1

    def test_open_breaker_raises_circuit_error(self, tmp_path):
        with _store(tmp_path, "fail_fast") as store:
            sup = _supervisor(store, restart_budget=1)
            store.backend.kill_shard(0)
            _fail_reopens(store, 0, 5)
            for _ in range(3):
                sup.run_once()
            assert sup.breaker_open(0)
            with pytest.raises(ShardCircuitOpenError):
                store.put_many(_items(12))
            # ShardCircuitOpenError is an unavailability, catchable as such.
            with pytest.raises(ShardUnavailableError):
                store.get_many([k for k, _ in _items(12)])


class TestDegradedPartial:
    def test_put_many_partial_outcomes_under_dead_shard(self, tmp_path):
        with _store(tmp_path, "partial") as store:
            items = _items(24)
            report = store.put_many(items)
            assert isinstance(report, BatchReport)
            assert report.ok
            assert report == [report[i] for i in range(len(items))]
            store.backend.kill_shard(1)
            report = store.put_many(_items(24, tag=b"w"))
            assert not report.ok
            dead = [i for i, o in enumerate(report.outcomes) if o != "ok"]
            assert dead  # shard 1 owned some keys
            for i in dead:
                assert report.outcomes[i] == "crashed"
                assert report[i] is None
            for i in range(len(items)):
                if i not in dead:
                    assert report.outcomes[i] == "ok"
                    assert report[i] is not None

    def test_get_many_reads_survivors_and_reports_dead(self, tmp_path):
        with _store(tmp_path, "partial") as store:
            items = _items(24)
            store.put_many(items)
            store.backend.kill_shard(2)
            report = store.get_many([k for k, _ in items])
            for (key, value), outcome, got in zip(
                items, report.outcomes, report
            ):
                if store.shard_of(key) == 2:
                    assert outcome == "crashed" and got is None
                else:
                    assert outcome == "ok" and got == value

    def test_open_breaker_reads_as_misses(self, tmp_path):
        with _store(tmp_path, "partial") as store:
            sup = _supervisor(store, restart_budget=1)
            items = _items(24)
            store.put_many(items)
            store.backend.kill_shard(1)
            _fail_reopens(store, 1, 5)
            for _ in range(3):
                sup.run_once()
            assert sup.breaker_open(1)
            report = store.get_many([k for k, _ in items])
            for key, outcome, got in zip(
                (k for k, _ in items), report.outcomes, report
            ):
                if store.shard_of(key) == 1:
                    assert outcome == "breaker_open" and got is None
                else:
                    assert outcome == "ok"
            # Point GET: answered as a miss without touching the shard.
            dead_key = next(
                k for k, _ in items if store.shard_of(k) == 1
            )
            assert store.get(dead_key) is None
            # A write at an open breaker must raise, never silently drop.
            with pytest.raises(ShardCircuitOpenError):
                store.put(dead_key, b"nope")

    def test_hung_shard_reports_hung_outcome(self, tmp_path):
        with _store(tmp_path, "partial") as store:
            items = _items(24)
            store.put_many(items)
            _hang(store, 0)
            report = store.get_many([k for k, _ in items])
            hung = {
                o for k, o in zip((k for k, _ in items), report.outcomes)
                if store.shard_of(k) == 0
            }
            assert hung == {"hung"}
            assert store.backend.kills[0] == 1  # deadline killed it


class TestDegradedPolicyValidation:
    @pytest.mark.parametrize("mode", ["block", "retry"])
    def test_unknown_mode_is_refused_naming_the_two(self, mode, tmp_path):
        pick = r"'fail_fast', 'partial'"
        with pytest.raises(ValueError, match=pick):
            _store(tmp_path, mode)
        with pytest.raises(ValueError, match=pick):
            ShardedKVStore.create(
                tmp_path, 1, n_segments_per_shard=64,
                config=fast_test_config(), degraded=mode,
            )
        ShardedKVStore.create(
            tmp_path, 1, n_segments_per_shard=64, config=fast_test_config()
        ).close()
        with pytest.raises(ValueError, match=pick):
            ShardedKVStore.open(tmp_path, degraded=mode)


class TestCallManyPartialAttach:
    """Satellite: the backend itself attaches partial results + status."""

    def test_inprocess_call_many_attaches_partials(self, tmp_path):
        with _store(tmp_path) as store:
            items = _items(24)
            store.put_many(items)
            store.backend.kill_shard(0)
            requests = [(s, "len", ()) for s in range(N_SHARDS)]
            with pytest.raises(ShardCrashedError) as excinfo:
                store.backend.call_many(requests)
            exc = excinfo.value
            assert len(exc.partial_results) == N_SHARDS
            assert exc.partial_results[0] is None
            assert all(
                isinstance(r, int) for r in exc.partial_results[1:]
            )
            assert exc.shard_status == {0: "crashed", 1: "ok", 2: "ok"}

    def test_all_hung_raises_hung_error(self, tmp_path):
        with _store(tmp_path) as store:
            _hang(store, 0)
            _hang(store, 1)
            _hang(store, 2)
            with pytest.raises(ShardHungError):
                store.backend.call_many(
                    [(s, "len", ()) for s in range(N_SHARDS)]
                )

    def test_hang_reports_the_deadline_that_expired(self, tmp_path):
        """The raised hang names the budget the call ran under, not the
        backend's default (the pipe twin is in
        ``test_process_supervision.py``)."""
        with _store(tmp_path) as store:
            _hang(store, 0)
            with pytest.raises(ShardHungError) as excinfo:
                store.backend.call_many([(0, "len", ())], deadline=0.3)
            assert excinfo.value.deadline_s == 0.3
            assert "(0.3s)" in str(excinfo.value)


class TestCallManyReleasesLocks:
    def test_ordinary_error_mid_batch(self, tmp_path):
        """An op that raises mid-batch fails only its own request: the
        rest still run, the first error is re-raised after them, and no
        shard's conversation lock stays held."""
        with _store(tmp_path) as store:
            backend = store.backend
            with pytest.raises(ValueError, match="first_unknown"):
                backend.call_many(
                    [
                        (0, "put", (b"k0", b"v0")),
                        (1, "first_unknown", ()),
                        (2, "put", (b"k2", b"v2")),
                        (1, "second_unknown", ()),
                    ]
                )
            # The locks are RLocks, which this thread would re-enter even
            # if one leaked: probe them from another.
            free = []

            def probe():
                for lock in backend._locks:
                    free.append(lock.acquire(timeout=1))
                    if free[-1]:
                        lock.release()

            prober = threading.Thread(target=probe)
            prober.start()
            prober.join(timeout=10)
            assert not prober.is_alive()
            assert free == [True] * N_SHARDS
            assert backend.call(0, "get", (b"k0",)) == b"v0"
            assert backend.call(2, "get", (b"k2",)) == b"v2"


class TestCallSignature:
    def test_direct_call_accepts_a_deadline(self, tmp_path):
        """One ``call`` signature on both transports; on the caller's
        thread the deadline cannot fire, so the call just runs."""
        with _store(tmp_path) as store:
            assert store.backend.call(0, "len", deadline=1e-9) == 0
            assert store.backend.call(0, "len", (), deadline=None) == 0


class TestSupervisorTelemetry:
    def test_facade_telemetry_carries_supervisor_rollup(self, tmp_path):
        with _store(tmp_path) as store:
            sup = _supervisor(store)
            store.backend.kill_shard(2)
            sup.run_once()
            tel = store.telemetry()
            assert tel["supervisor"]["restarts"] == 1
            assert tel["supervisor"]["open_breakers"] == []
            shard2 = tel["supervisor"]["shards"][2]
            assert shard2["restarts"] == 1 and shard2["breaker"] == "closed"
