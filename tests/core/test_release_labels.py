"""The recycle path's placement labels (Algorithm 2 without a re-encode).

A value that fills its segment *is* the segment's content, so the cluster
it was placed under is the cluster a re-encode of that content gives: the
engine keeps it per address, and a release in the same model epoch
re-pools under it without a ``peek`` or a teacher call.  Every other freed
segment is re-encoded from its content, and one release re-pools all of
its addresses in the caller's order.
"""

import numpy as np
import pytest

from repro.core import E2NVM
from repro.core.config import fast_test_config
from repro.nvm import DriftConfig, MemoryController
from repro.testing import FaultInjector

from tests.conftest import SEGMENT_SIZE, make_device, make_engine


def _values(n: int, seed: int, size: int = SEGMENT_SIZE) -> list[bytes]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            for _ in range(n)]


def _spy(engine, monkeypatch) -> tuple[list[int], list[int]]:
    """Record every address ``controller.peek`` reads and the size of
    every teacher batch, from now on."""
    peeked, taught = [], []
    peek, teach = engine.controller.peek, engine.pipeline.predict_batch

    def spy_peek(addr, length):
        peeked.append(addr)
        return peek(addr, length)

    def spy_teach(values):
        taught.append(len(values))
        return teach(values)

    monkeypatch.setattr(engine.controller, "peek", spy_peek)
    monkeypatch.setattr(engine.pipeline, "predict_batch", spy_teach)
    return peeked, taught


def _reencoded(engine, addr: int) -> int:
    """The cluster the installed model gives ``addr``'s current content."""
    content = bytes(engine.controller.peek(addr, engine.segment_size))
    return int(engine.pipeline.predict_batch([content])[0])


def _cluster_of(engine, addr: int) -> int:
    (cluster,) = [c for c, pool in engine.dap.snapshot().items()
                  if addr in pool]
    return cluster


class TestLabelledRelease:
    def test_full_width_values_repool_without_a_reencode(self, monkeypatch):
        engine = make_engine(seed=21, fastpath_cache_size=0)
        values = _values(6, seed=1)
        addrs = [addr for addr, _ in engine.write_many(values)]
        expected = [_reencoded(engine, addr) for addr in addrs]
        peeked, taught = _spy(engine, monkeypatch)
        engine.release_many(addrs)
        assert peeked == [] and taught == []
        assert [_cluster_of(engine, addr) for addr in addrs] == expected

    def test_mixed_release_keeps_the_callers_order(self, monkeypatch):
        engine = make_engine(seed=22, fastpath_cache_size=0)
        (value,) = _values(1, seed=2)
        first, last = [addr for addr, _ in engine.write_many([value] * 2)]
        # A directed write of the same value: same cluster, no label.
        middle = engine.dap.snapshot_addresses()[0]
        assert engine.claim_address(middle)
        engine.write_at(middle, value)
        cluster = _reencoded(engine, first)
        peeked, _ = _spy(engine, monkeypatch)
        engine.release_many([first, middle, last])
        assert peeked == [middle]
        assert engine.dap.snapshot()[cluster][-3:] == (first, middle, last)


class TestReencodedRelease:
    """Each of these addresses re-pools under its content's cluster,
    read back from the medium."""

    def _release(self, engine, addr, monkeypatch) -> None:
        expected = _reencoded(engine, addr)
        peeked, taught = _spy(engine, monkeypatch)
        engine.release(addr)
        assert peeked == [addr] and taught == [1]
        assert _cluster_of(engine, addr) == expected

    def test_short_value(self, monkeypatch):
        # The old content's tail stays behind the value: not its label.
        engine = make_engine(seed=23, fastpath_cache_size=0)
        (addr, _), = engine.write_many([b"\x5a" * (SEGMENT_SIZE - 9)])
        self._release(engine, addr, monkeypatch)

    def test_directed_write_over_a_labelled_address(self, monkeypatch):
        engine = make_engine(seed=24, fastpath_cache_size=0)
        first, second = _values(2, seed=4)
        (addr, _), = engine.write_many([first])
        engine.write_at(addr, second)
        self._release(engine, addr, monkeypatch)

    def test_label_from_a_retired_model(self, monkeypatch):
        engine = make_engine(seed=25, fastpath_cache_size=0)
        (addr, _), = engine.write_many(_values(1, seed=5))
        engine.train()  # a swap: every label now names an old epoch
        self._release(engine, addr, monkeypatch)

    def test_swap_after_the_labels_were_read(self, monkeypatch):
        engine = make_engine(seed=28, fastpath_cache_size=0)
        written = engine.write_many([_values(1, seed=10)[0], b"\x33" * 8])
        (labelled, _), (short, _) = written
        peeked, taught = _spy(engine, monkeypatch)
        spy = engine.pipeline.predict_batch

        def swap_once(values):
            if not taught:  # a swap lands while the short value re-encodes
                engine._model_epoch += 1
            return spy(values)

        monkeypatch.setattr(engine.pipeline, "predict_batch", swap_once)
        engine.release_many([labelled, short])
        assert labelled in peeked and taught[-1] == 2

    def test_medium_with_drifted_cells(self, monkeypatch):
        device = make_device(
            seed=26, drift=DriftConfig(retention_mean=4.0, retention_sigma=0.0)
        )
        engine = E2NVM(
            MemoryController(device), fast_test_config(fastpath_cache_size=0)
        )
        engine.train()
        (addr, _), = engine.write_many(_values(1, seed=6))
        device.advance_time(8)
        assert device.drifted_cell_count()
        self._release(engine, addr, monkeypatch)

    def test_rows_of_a_failed_write(self, monkeypatch):
        engine = make_engine(seed=27, fastpath_cache_size=0)
        engine.faults = FaultInjector()
        engine.faults.arm("device.write", error=RuntimeError("boom"), after=2)
        peeked, taught = _spy(engine, monkeypatch)
        with pytest.raises(RuntimeError, match="boom"):
            engine.write_many(_values(4, seed=7))
        assert len(peeked) == 4 and taught[-1] == 4
        assert engine.allocated_count == 0


class TestAdoptedAddresses:
    """Recovery adopts live addresses with no label (``mark_allocated``):
    their first release reads the segment back.  A durable store places
    by sketch and keeps no labels; this is the plain ``E2NVM`` contract."""

    def test_reopened_store_reencodes(self, monkeypatch):
        engine = make_engine(seed=28, fastpath_cache_size=0)
        (addr, _), = engine.write_many(_values(1, seed=8))
        peeked, _ = _spy(engine, monkeypatch)
        engine.release(addr)
        assert addr not in peeked
        engine.mark_allocated(addr)
        engine.release(addr)
        assert addr in peeked
