"""The two-slot catalog's recovery rule (DESIGN.md, "A log-free commit").

A crash may land any subset of one batch's catalog rows, one of them torn
at any byte; recovery must leave the acknowledged state plus a
batch-order prefix of that batch.  ``land`` builds such media directly:
it writes the batch's values to free segments, stages its rows as the
store would and puts only the chosen ones on the media — including the
subsets ``write_many`` itself cannot produce (index 0 missing).  The
three hazards a naive version has are named tests and ``@example``s of
the property.
"""

import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.kvstore import StoreReadOnlyError
from repro.testing import FaultError, FaultInjector, KVCrashHarness
from repro.testing.crash_sweep import check_durable_invariants
from repro.testing.model import PREFIX, DurabilityModel

#: Keys that differ in one byte, in several and in length, so a tear can
#: leave a key that is neither the old one nor the new one.
KEYS = [b"k0", b"k1", b"zq", b"user000000000001", b"\xffk"]


@pytest.fixture(scope="module")
def harness():
    return KVCrashHarness(n_segments=48)


class _Rows:
    """A stand-in transaction: records the rows the catalog stages."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, bytes]] = []

    def write(self, addr: int, data: bytes) -> None:
        self.rows.append((addr, bytes(data)))


def land(store, items, landed, torn=None) -> None:
    """Crash ``store`` in ``put_many(items)`` with the rows at the indices
    in ``landed`` on the media and, with ``torn = (index, n)``, the first
    ``n`` bytes of that row too.  The values are written first, as
    ``put_many`` writes them."""
    addrs, _ = store.engine.place_and_write([v for _, v in items])
    catalog, pool = store.catalog, store.pool
    epoch, free = store._next_epoch, iter(store._free_records)
    tx = _Rows()
    for index, ((key, value), addr) in enumerate(zip(items, addrs)):
        segment, crc = pool.object_index(addr), zlib.crc32(value)
        old = store.index.get(key)
        if old is None:
            catalog.tx_set(
                tx, next(free), segment, key, len(value), epoch, index, crc
            )
        else:
            catalog.tx_move(
                tx, store._live[old[0]][3], key, segment, len(value), epoch,
                index, crc,
            )
    for index, (addr, data) in enumerate(tx.rows):
        if index in landed:
            pool.write(addr, data)
        elif torn is not None and torn[0] == index and torn[1]:
            pool.controller.torn_program(addr, data[: torn[1]])


def apply(store, model, op) -> None:
    """One acknowledged (or, for ``fail``, refused) operation."""
    kind = op[0]
    if kind == "put_many":
        model.begin(op[1], PREFIX)
        store.put_many(op[1])
        model.ack()
    elif kind == "delete":
        model.begin([(op[1], None)])
        store.delete(op[1])
        model.ack()
    elif kind == "migrate":
        # Content-neutral: the model never hears of it.
        store.migrate(op[1], store.engine.free_addresses()[0])
    elif kind == "fail":
        # Hazard 3: rows up to ``op[2]`` (in write order) land, then a
        # FaultError.
        store.engine.faults.arm(
            "catalog.write", error=FaultError,
            after=min(op[2], len(op[1]) - 1), torn_fraction=1.0,
        )
        with pytest.raises(FaultError):
            store.put_many(op[1])
        store.engine.faults.disarm("catalog.write")


def reopen(harness, device):
    store = harness.reopen(device)
    assert not harness.fsck(device)
    return store


def run(harness, history, crash, tail=((b"k3", b"after"),)):
    """``history``, then ``crash = (items, landed, torn)``, then recovery;
    then the ``tail`` batch (none when empty) and a second recovery.
    Returns what the first recovery served, its report and the second
    recovered store; every step is checked against the model."""
    faults = FaultInjector()
    device, _, store = harness.fresh(faults)
    model = DurabilityModel()
    for op in history:
        apply(store, model, op)
    items, landed, torn = crash
    model.begin(items, PREFIX)
    if items:
        land(store, items, landed, torn)
    assert not harness.fsck(device)
    first = reopen(harness, device)
    check_durable_invariants(first, model)
    recovered = dict(first.items())
    model.settle(recovered)
    if tail:
        model.begin(list(tail), PREFIX)
        first.put_many(list(tail))
        model.ack()
    second = reopen(harness, device)
    check_durable_invariants(second, model)
    return recovered, first.recovery, second


keys = st.sampled_from(KEYS)
batches = st.lists(
    st.tuples(keys, st.binary(min_size=1, max_size=64)),
    min_size=1, max_size=4, unique_by=lambda kv: kv[0],
)
ops = st.one_of(
    st.tuples(st.just("put_many"), batches),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("migrate"), keys),
    st.tuples(st.just("fail"), batches, st.integers(0, 3)),
)
crashes = st.tuples(
    batches,
    st.sets(st.integers(0, 3)),
    st.none() | st.tuples(st.integers(0, 3), st.integers(0, 40)),
)
tails = st.just(()) | st.tuples(st.tuples(keys, st.just(b"after")))

HAZARD_1 = (  # a DELETE after a batch: the count needs no flag
    [("put_many", [(b"k1", b"one"), (b"k2", b"two")]), ("delete", b"k1")],
    ([], set(), None),
)
HAZARD_2 = (  # a torn INSERT into the record a DELETE of its key freed
    [
        ("put_many", [(b"k0", b"old")]),
        ("put_many", [(b"k0", b"older")]),
        ("delete", b"k0"),
    ],
    ([(b"k0", b"new")], set(), (0, 10)),
)
HAZARD_3 = (  # a failed commit whose rows landed, then reuse, then reopen
    [
        ("put_many", [(b"k0", b"a"), (b"k1", b"b")]),
        ("fail", [(b"k0", b"c"), (b"k1", b"d"), (b"k2", b"e")], 1),
        ("put_many", [(b"k2", b"f"), (b"k1", b"g")]),
    ],
    ([], set(), None),
)
#: A completed two-pair batch, then a DELETE frees ``aa``'s record: the
#: next INSERT of a different key reuses it and rewrites its key bytes.
FREED = [
    ("put_many", [(b"aa", b"1"), (b"bb", b"2")]),
    ("delete", b"aa"),
]


class TestRecoveryRule:
    @given(history=st.lists(ops, max_size=6), crash=crashes, tail=tails)
    @example(*HAZARD_1, ())
    @example(*HAZARD_2, ())
    @example(*HAZARD_3, ())
    @example(  # index 0 missing, 1 and 2 landed: everything is dropped
        [("put_many", [(b"k0", b"a"), (b"k1", b"b"), (b"k2", b"c")])],
        ([(b"k0", b"x"), (b"k1", b"y"), (b"k2", b"z")], {1, 2}, None),
        ((b"k3", b"after"),),
    )
    @example(  # the INSERT into the freed record lands alone
        FREED, ([(b"bb", b"3"), (b"cc", b"4")], {1}, None), ()
    )
    @settings(max_examples=100, deadline=None)
    def test_recovery_keeps_a_batch_order_prefix(
        self, harness, history, crash, tail
    ):
        run(harness, history, crash, tail)


class TestHazards:
    def test_delete_after_a_batch_keeps_the_batch(self, harness):
        recovered, report, _ = run(harness, *HAZARD_1)
        assert recovered == {b"k2": b"two"}
        assert report.dropped_slots == 0

    @pytest.mark.parametrize("updates", [0, 1])
    def test_torn_insert_into_a_reused_record_keeps_the_delete(
        self, harness, updates
    ):
        """The INSERT's 40-B row torn at every byte, with the tombstone
        in slot B (the row is slot A, then the key) or in slot A (the
        key, then slot B): the value the DELETE removed never returns."""
        history = [
            ("put_many", [(b"k0", b"old")]),
            *[("put_many", [(b"k0", b"older")])] * updates,
            ("delete", b"k0"),
        ]
        for n in range(41):
            crash = ([(b"k0", b"new")], set(), (0, n))
            recovered, _, _ = run(harness, history, crash)
            assert recovered.get(b"k0") in (None, b"new"), n

    def test_failed_commit_leaves_no_slot_behind(self, harness):
        recovered, _, second = run(harness, *HAZARD_3)
        expected = {b"k0": b"a", b"k1": b"g", b"k2": b"f"}
        assert recovered == expected
        assert dict(second.items()) == {**expected, b"k3": b"after"}

    def test_failed_invalidation_makes_the_store_read_only(self, harness):
        """Hazard 3's fallback: when the slots of a failed commit cannot
        be zeroed either, the store writes nothing more until reopened,
        and the reopen keeps a prefix of the failed batch."""
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put(b"k0", b"a")
        faults.arm(
            "catalog.write", error=FaultError, after=1, torn_fraction=1.0
        )
        faults.arm("catalog.invalidate", error=FaultError)
        with pytest.raises(FaultError):
            store.put_many([(b"k0", b"b"), (b"k1", b"c"), (b"k2", b"d")])
        assert store.read_only
        with pytest.raises(StoreReadOnlyError):
            store.put(b"k3", b"e")
        reopened = reopen(harness, device)
        assert not reopened.read_only
        assert dict(reopened.items()) == {b"k0": b"b", b"k1": b"c"}


class TestInsertIntoAFreedRecord:
    """An INSERT of a different key into the record a DELETE freed
    rewrites the key bytes the record's slots share.  The DELETE's
    tombstone must stay valid until the INSERT's own slot is whole:
    were it to depend on the key, the DELETE's batch would vanish and
    the batch before it — whose slot in this record the INSERT
    overwrote — would be trimmed as the newest, losing ``bb``."""

    def test_insert_landing_before_its_batch_prefix(self, harness):
        """``write_many`` lands the 40-B INSERT row of index 1 before the
        22-B UPDATE slot of index 0; the first reopen trims it, and a
        second reopen with no write between them serves the same."""
        crash = ([(b"bb", b"3"), (b"cc", b"4")], {1}, None)
        recovered, report, second = run(harness, FREED, crash, tail=())
        assert recovered == {b"bb": b"2"}
        assert report.dropped_slots == 1
        assert dict(second.items()) == recovered
        assert second.recovery.dropped_slots == 0

    @pytest.mark.parametrize("key", [b"cc", b"user000000000001"])
    def test_insert_torn_inside_the_new_key(self, harness, key):
        """The INSERT's row torn at every byte, so the record's key is
        left part old, part new (``aa`` → ``cc`` differs in two bytes,
        the 16-B key in length too)."""
        for n in range(41):
            crash = ([(key, b"4")], set(), (0, n))
            recovered, _, second = run(harness, FREED, crash, tail=())
            assert recovered.get(b"bb") == b"2", n
            assert dict(second.items()) == recovered, n

    @pytest.mark.parametrize(
        "items",
        [[(b"bb", b"3"), (b"cc", b"4")], [(b"cc", b"4"), (b"bb", b"3")]],
    )
    def test_failed_commit_then_reopen(self, harness, items):
        """Hazard 3's failure arm zeroes the INSERT's slot but leaves its
        key; the store is then reopened, twice."""
        history = [*FREED, ("fail", items, 1)]
        recovered, _, second = run(harness, history, ([], set(), None), ())
        assert recovered == {b"bb": b"2"}
        assert dict(second.items()) == recovered
