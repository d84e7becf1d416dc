"""Property tests: commit groups vs. a shadow model under random schedules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm import MemoryController, NVMDevice
from repro.pmem import PersistentPool


def build_pool(seed=0, n_segments=20):
    device = NVMDevice(
        capacity_bytes=n_segments * 64,
        segment_size=64,
        initial_fill="random",
        seed=seed,
    )
    return PersistentPool(MemoryController(device))


@st.composite
def transaction_schedules(draw):
    """A list of transactions, each a list of (slot, payload) writes plus an
    abort flag."""
    n_tx = draw(st.integers(1, 8))
    schedule = []
    for _ in range(n_tx):
        writes = draw(
            st.lists(
                st.tuples(st.integers(0, 5), st.binary(min_size=64, max_size=64)),
                min_size=1,
                max_size=5,
            )
        )
        abort = draw(st.booleans())
        schedule.append((writes, abort))
    return schedule


class TestTransactionModel:
    @given(schedule=transaction_schedules())
    @settings(max_examples=40, deadline=None)
    def test_random_schedule_matches_model(self, schedule):
        pool = build_pool()
        slots = [pool.object_address(i) for i in range(6)]
        model = {addr: pool.read(addr, 64) for addr in slots}
        for writes, abort in schedule:
            try:
                with pool.transaction() as tx:
                    staged = dict(model)
                    for slot, payload in writes:
                        tx.write(slots[slot], payload)
                        staged[slots[slot]] = payload
                    if abort:
                        raise _Rollback()
                model = staged  # committed
            except _Rollback:
                pass  # rolled back: model unchanged
            for addr, expected in model.items():
                assert pool.read(addr, 64) == expected

    def test_interleaved_alloc_free_transactions(self):
        pool = build_pool(seed=3, n_segments=16)
        rng = np.random.default_rng(1)
        free = [pool.object_address(i) for i in range(pool.capacity_objects)]
        live: dict[int, bytes] = {}
        for step in range(150):
            roll = rng.random()
            if roll < 0.4 and free:
                addr = free.pop(0)
                payload = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
                with pool.transaction() as tx:
                    tx.write(addr, payload)
                live[addr] = payload
            elif roll < 0.6 and live:
                addr = list(live)[int(rng.integers(0, len(live)))]
                free.append(addr)
                del live[addr]
            elif live:
                addr = list(live)[int(rng.integers(0, len(live)))]
                assert pool.read(addr, 64) == live[addr], step


class _Rollback(Exception):
    pass
