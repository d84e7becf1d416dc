"""The sketch engine against a brute-force reference.

The reference keeps the free set as a FIFO list and scores a value against
every free segment by unpacking both at the engine's sampled positions,
counting only those inside the value's prefix.  Every claim must be the
reference's argmin, the earliest freed on a tie; a batch must claim what
the same values would one at a time; and after every step each segment's
word must be the reference's sketch of the content on the medium.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import SKETCH_BITS, SketchEngine
from repro.nvm import MemoryController, NVMDevice, WearOutConfig

SEGMENT = 16
N_SEGMENTS = 20
RESERVED = 2


def _engine():
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT, segment_size=SEGMENT,
        initial_fill="random", seed=5,
        wearout=WearOutConfig(endurance_mean=1e9, seed=1),
    )
    return SketchEngine(MemoryController(device), reserved_segments=RESERVED)


def _sampled(engine, data: bytes) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data.ljust(SEGMENT, b"\0"), np.uint8))
    return bits[engine.sketch.positions]


class Reference:
    def __init__(self, engine):
        self.engine = engine
        self.free = [RESERVED * SEGMENT + i * SEGMENT
                     for i in range(N_SEGMENTS - RESERVED)]

    def content(self, addr: int) -> bytes:
        return bytes(self.engine.controller.peek(addr, SEGMENT))

    def claim(self, value: bytes) -> int:
        inside = self.engine.sketch.positions < 8 * len(value)
        want = _sampled(self.engine, value)
        dist = [int(((_sampled(self.engine, self.content(a)) != want)
                     & inside).sum()) for a in self.free]
        return self.free.pop(int(np.argmin(dist)))

    def words(self) -> list[int]:
        """Every object segment's sketch, bit ``i`` from position ``i``."""
        return [
            sum(int(bit) << i for i, bit in enumerate(
                _sampled(self.engine, self.content(addr))))
            for addr in range(RESERVED * SEGMENT, N_SEGMENTS * SEGMENT,
                              SEGMENT)
        ]


values = st.binary(min_size=1, max_size=SEGMENT)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.lists(values, min_size=1, max_size=4)),
        st.tuples(st.just("release"), st.integers(0, 99)),
        st.tuples(st.just("write_at"), st.integers(0, 99), values),
        st.tuples(st.just("quarantine"), st.integers(0, 99)),
        st.tuples(st.just("spare"), st.just(None)),
    ),
    max_size=14,
)


@settings(max_examples=60, deadline=None)
@given(ops)
def test_claims_match_the_brute_force_reference(trace):
    engine = _engine()
    ref = Reference(engine)
    spares = engine.reserve_spares(2)
    ref.free = [a for a in ref.free if a not in spares]
    live: list[int] = []
    for op in trace:
        if op[0] == "put":
            if len(op[1]) > len(ref.free) + len(engine.health.state.spares):
                continue
            # Short of free segments, the engine adopts spares one by one
            # before it claims the batch.
            while len(ref.free) < len(op[1]):
                ref.free.append(engine.adopt_spare())
            # A sequential claim sees the earlier rows already written.
            expected = [ref.claim(value) for value in op[1]]
            addrs, _ = engine.place_and_write(op[1])
            assert addrs == expected
            live += addrs
        elif op[0] == "release" and live:
            addr = live.pop(op[1] % len(live))
            engine.release(addr)
            ref.free.append(addr)
        elif op[0] == "write_at" and ref.free:
            addr = ref.free.pop(op[1] % len(ref.free))
            assert engine.claim_address(addr)
            engine.write_at(addr, op[2])
            live.append(addr)
        elif op[0] == "quarantine" and ref.free:
            engine.quarantine_address(ref.free.pop(op[1] % len(ref.free)))
        elif op[0] == "spare" and engine.health.state.spares:
            ref.free.append(engine.adopt_spare())
        assert sorted(engine.free_addresses()) == sorted(ref.free)
        assert engine.sketch.words[:, 0].tolist() == ref.words()


def test_a_batch_claims_what_scalar_claims_would():
    rng = np.random.default_rng(3)
    batch = [rng.integers(0, 256, SEGMENT, dtype=np.uint8).tobytes()[:n]
             for n in (16, 3, 16, 9, 16, 16)]
    one, other = _engine(), _engine()
    assert one.place_many(batch) == [other.place(v) for v in batch]


def test_a_tie_goes_to_the_segment_freed_first():
    engine = _engine()
    value = bytes(range(SEGMENT))
    addrs, _ = engine.place_and_write([value] * (N_SEGMENTS - RESERVED))
    freed = [addrs[i] for i in (7, 2, 11, 0, 5)]
    engine.release_many(freed[:3])
    engine.release_many(freed[3:])
    # Every freed segment holds ``value``: all five are at distance 0.
    assert [engine.place(value) for _ in freed] == freed


def test_telemetry_counts_the_saving_over_fifo():
    engine = _engine()
    rng = np.random.default_rng(4)
    old = rng.integers(0, 256, (4, SEGMENT), dtype=np.uint8)
    addrs, _ = engine.place_and_write([row.tobytes() for row in old])
    engine.release_many(addrs)
    before = engine.placement_telemetry()
    # Each value is an exact copy of a freed segment: distance 0.
    engine.place_many([row.tobytes() for row in old[::-1]])
    after = engine.placement_telemetry()
    assert after["placed"] - before["placed"] == 4
    assert after["chosen_distance"] == before["chosen_distance"]
    assert after["fifo_distance"] > before["fifo_distance"]
    for key in ("cache_hits", "cache_misses", "student_served",
                "teacher_served"):
        assert after[key] == 0
    assert engine.sketch.positions.size == SKETCH_BITS
