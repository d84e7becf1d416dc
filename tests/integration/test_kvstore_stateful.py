"""Hypothesis stateful model-checking: one machine, every configuration.

:class:`StoreMachine` drives random PUT / ``put_many`` / GET / DELETE /
SCAN interleavings against the one
:class:`~repro.testing.model.DurabilityModel`, plus — where the
configuration under test supports them — a write interrupted by a fault
(crash at a fault site, torn writes included, or a killed shard) followed
by recovery, a clean restart, and a content-neutral maintenance step that
must leave the model where it was.  Every step that reopens has the
offline checker as its postcondition.

The machine is instantiated for the volatile ``KVStore``, the durable
``KVStore``, and the durable ``ShardedKVStore`` at N=1 and N=3 in-process
(tier 1) and on worker processes (marker ``sharding``).
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import KVStore
from repro.core.config import fast_test_config
from repro.nvm.compactor import Compactor
from repro.sharding import ShardedKVStore
from repro.sharding.backends import ShardUnavailableError
from repro.testing import CrashError, FaultInjector
from repro.testing.crash_sweep import (
    DEFAULT_CRASH_SITES,
    KVCrashHarness,
    check_durable_invariants,
)
from repro.testing.model import EITHER, EXACT, PREFIX, DurabilityModel
from repro.tools.fsck import fsck_sharded
from tests.conftest import make_engine

KEYS = [b"key%02d" % i for i in range(12)]


class VolatileTarget:
    """A plain volatile ``KVStore``: nothing survives it, so no fault,
    restart or maintenance rule applies."""

    can_scan = True
    durable = False

    def __init__(self) -> None:
        self.store = KVStore(make_engine(seed=61))

    def contents(self) -> dict:
        return dict(self.store.items())

    def check_accounting(self) -> None:
        engine = self.store.engine
        assert engine.dap.free_count() + engine.allocated_count == 128

    def close(self) -> None:
        pass


_HARNESS: KVCrashHarness | None = None


def _harness() -> KVCrashHarness:
    """One trained harness for every durable-target example."""
    global _HARNESS
    if _HARNESS is None:
        _HARNESS = KVCrashHarness()
    return _HARNESS


class DurableTarget(VolatileTarget):
    """A durable ``KVStore``: a write can die at any fault site (torn
    writes included) and the store is re-opened from the media alone."""

    durable = True

    def __init__(self) -> None:
        self.faults = FaultInjector()
        self.device, _, self.store = _harness().fresh(self.faults)
        self._attach()

    def _attach(self) -> None:
        # Aggressive thresholds: a compaction round actually moves values.
        Compactor(self.store, swaps_per_round=2, min_wear_gap=1,
                  dormancy_writes=2, faults=self.faults)

    def strength(self, items) -> str:
        """One pair is one slot write; a batch keeps a prefix."""
        return EXACT if len(items) == 1 else PREFIX

    def check_accounting(self) -> None:
        check_durable_invariants(self.store, self.contents())

    def write_under_fault(self, items, data) -> bool:
        # The sites a PUT on immortal media can reach.
        site = data.draw(st.sampled_from(DEFAULT_CRASH_SITES[:2]))
        skip = data.draw(st.integers(0, 2))
        torn = data.draw(st.none() | st.floats(0.0, 1.0))
        with self.faults.injected(
            site, error=CrashError, after=skip, torn_fraction=torn
        ):
            try:
                self.store.put_many(items)
                return True  # the site fired late or never
            except CrashError:
                self.restart()
                return False

    def restart(self) -> None:
        """Process death (or a clean stop): only the device survives."""
        self.store = _harness().reopen(self.device)
        self.device.faults = self.faults
        self.store.pool.faults = self.faults
        self.store.engine.faults = self.faults
        self._attach()

    def maintain(self) -> None:
        self.store.compactor.compact_round()

    def fsck(self) -> list[str]:
        return _harness().fsck(self.device)


class ShardedTarget:
    """A durable ``ShardedKVStore``.  The fault is a dead shard under a
    batch that spans shards — the survivors commit, so the batch is in
    flight as ``either``: a routing-level kill, or (worker processes
    only) a crash armed at a fault site inside the victim's next
    transaction."""

    can_scan = False
    durable = True
    WEIGHTS = (2.0, 1.0, 0.5)

    def __init__(self, n_shards: int, backend: str) -> None:
        self.tmp = Path(tempfile.mkdtemp())
        self.root = self.tmp / "store"
        self.real_crashes = backend == "process"
        self.store = ShardedKVStore.create(
            self.root, n_shards, segment_size=64, n_segments_per_shard=64,
            config=fast_test_config(), key_capacity=16,
            backend=backend,
        )

    def contents(self) -> dict:
        keys = self.store.keys()
        return dict(zip(keys, self.store.get_many(keys)))

    def check_accounting(self) -> None:
        assert not self.store.rebalance_active

    def strength(self, items) -> str:
        return EITHER

    def write_under_fault(self, items, data) -> bool:
        backend = self.store.backend
        victim = data.draw(st.integers(0, self.store.n_shards - 1))
        if self.real_crashes and data.draw(st.booleans()):
            site = data.draw(
                st.sampled_from(("device.write", "catalog.write"))
            )
            backend.call(victim, "arm_crash", (site,))
        else:
            backend.kill_shard(victim)
        try:
            self.store.put_many(items)
            returned = True
        except ShardUnavailableError:
            returned = False
        if self.store.shard_alive(victim):
            backend.kill_shard(victim)  # armed but never written to
        self.store.reopen_shard(victim)
        return returned

    def restart(self) -> None:
        self.store.close()
        self.store = ShardedKVStore.open(self.root, config=fast_test_config())

    def maintain(self) -> None:
        """A full rebalance, to the other of two weightings."""
        weights = self.WEIGHTS[: self.store.n_shards]
        if self.store.ring.weights == weights:
            weights = (1.0,) * self.store.n_shards
        rebalancer = self.store.begin_rebalance(weights=weights, batch_size=4)
        rebalancer.drain_until_done(timeout_s=30.0)
        rebalancer.finalize()

    def fsck(self) -> list[str]:
        self.store.save()
        return fsck_sharded(self.root).all_errors

    def close(self) -> None:
        self.store.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


class StoreMachine(RuleBasedStateMachine):
    """Random operations on ``make_target()`` vs the durability model."""

    make_target = None  # set per instantiation, see machine_for()

    @initialize()
    def setup(self) -> None:
        self.target = self.make_target()
        self.model = DurabilityModel()
        self._counter = 0

    def teardown(self) -> None:
        if hasattr(self, "target"):
            self.target.close()

    def _items(self, keys, size) -> list:
        items = []
        for key in keys:
            self._counter += 1
            items.append((key, ((b"%04d" % self._counter) * 16)[:size]))
        return items

    @rule(keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=4),
          size=st.integers(1, 64))
    def put(self, keys, size) -> None:
        items = self._items(keys, size)
        self.model.begin(items)
        if len(items) == 1:
            self.target.store.put(*items[0])
        else:
            self.target.store.put_many(items)
        self.model.ack()

    @rule(key=st.sampled_from(KEYS))
    def get(self, key: bytes) -> None:
        assert self.target.store.get(key) == self.model.acked.get(key)

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key: bytes) -> None:
        self.model.begin([(key, None)])
        assert self.target.store.delete(key) == (
            self.model.acked.get(key) is not None
        )
        self.model.ack()

    @precondition(lambda self: self.target.can_scan)
    @rule(lo=st.integers(0, 11), hi=st.integers(0, 11))
    def scan(self, lo: int, hi: int) -> None:
        lo, hi = min(lo, hi), max(lo, hi)
        expected = sorted(
            (k, v) for k, v in self.model.acked.items()
            if KEYS[lo] <= k <= KEYS[hi]
        )
        assert self.target.store.scan(KEYS[lo], KEYS[hi]) == expected

    @precondition(lambda self: self.target.durable)
    @rule(keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=4),
          size=st.integers(1, 64), data=st.data())
    def write_under_fault(self, keys, size, data) -> None:
        """Inject a fault, attempt a write, recover; what the recovered
        store serves must be what the promised strength allows."""
        items = self._items(keys, size)
        self.model.begin(items, self.target.strength(items))
        if self.target.write_under_fault(items, data):
            self.model.ack()
        else:
            findings = self.model.settle(self.target.contents())
            assert not findings, list(map(str, findings))
        assert self.target.fsck() == []

    @precondition(lambda self: self.target.durable)
    @rule()
    def restart(self) -> None:
        self.target.restart()
        assert self.target.fsck() == []

    @precondition(lambda self: self.target.durable)
    @rule()
    def maintain(self) -> None:
        """Content-neutral by contract: the model is not told, and the
        invariant below must still hold."""
        self.target.maintain()

    @precondition(lambda self: hasattr(self, "target"))
    @invariant()
    def store_serves_the_model(self) -> None:
        findings = self.model.check(self.target.contents())
        assert not findings, list(map(str, findings))
        assert len(self.target.store) == len(self.model.acked)
        self.target.check_accounting()


def machine_for(make_target, name: str, **hypothesis_settings):
    """The machine's ``TestCase`` over one configuration."""
    machine = type(
        name, (StoreMachine,), {"make_target": staticmethod(make_target)}
    )
    machine.TestCase.settings = settings(deadline=None, **hypothesis_settings)
    return machine.TestCase


TestKVStoreStateful = machine_for(
    VolatileTarget, "Volatile", max_examples=15, stateful_step_count=30
)
TestDurableKVStoreStateful = machine_for(
    DurableTarget, "Durable", max_examples=10, stateful_step_count=25
)
TestShardedN1Stateful = machine_for(
    lambda: ShardedTarget(1, "inprocess"), "ShardedN1",
    max_examples=6, stateful_step_count=20,
)
TestShardedN3Stateful = machine_for(
    lambda: ShardedTarget(3, "inprocess"), "ShardedN3",
    max_examples=6, stateful_step_count=20,
)
TestShardedProcessStateful = pytest.mark.sharding(machine_for(
    lambda: ShardedTarget(3, "process"), "ShardedProcess",
    max_examples=6, stateful_step_count=20,
))
