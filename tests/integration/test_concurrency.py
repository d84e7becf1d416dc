"""Concurrency: the thread-safe structures under concurrent mutation.

§5.1: "We utilize thread-safe methods in E2-NVM ... for the data structures
that we utilize to maintain address pools and mapping."  These tests hammer
the DAP-backed engine from multiple threads and check conservation
invariants (no address double-allocated, none lost).
"""

import threading

from tests.conftest import make_engine


class TestConcurrentEngine:
    def test_parallel_place_release_conserves_addresses(self):
        engine = make_engine(seed=51)
        total = engine.dap.free_count()
        errors: list[Exception] = []
        claimed_sets: list[set] = [set() for _ in range(6)]

        def worker(slot: int) -> None:
            try:
                for i in range(40):
                    addr = engine.place(bytes([slot * 40 + i % 200]) * 64)
                    claimed_sets[slot].add(addr)
                    engine.release(addr)
                    claimed_sets[slot].discard(addr)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert engine.dap.free_count() == total
        assert engine.allocated_count == 0

    def test_no_double_allocation_under_contention(self):
        engine = make_engine(seed=52)
        lock = threading.Lock()
        all_claimed: list[int] = []

        def worker() -> None:
            local = []
            for i in range(20):
                try:
                    addr = engine.place(bytes([i]) * 64)
                except RuntimeError:
                    break
                local.append(addr)
            with lock:
                all_claimed.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(all_claimed) == len(set(all_claimed))
        assert len(all_claimed) + engine.dap.free_count() == 128

    def test_background_retrain_during_concurrent_writes(self):
        engine = make_engine(seed=53)
        stop = threading.Event()
        errors: list[Exception] = []

        def writer() -> None:
            i = 0
            try:
                while not stop.is_set() and i < 200:
                    addr = engine.place(bytes([i % 251]) * 64)
                    engine.release(addr)
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        retrain_thread = engine.train_async()
        retrain_thread.join(timeout=120)
        stop.set()
        writer_thread.join(timeout=30)
        assert not errors
        assert not retrain_thread.is_alive()
        assert engine.dap.free_count() == 128
        assert engine.retrain_stats.succeeded == 1
