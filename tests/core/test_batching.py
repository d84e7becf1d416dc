"""Write-batcher tests (§4.1.4 small-write batching)."""

import pytest

from repro.core.batching import BatchLocator, WriteBatcher
from tests.conftest import make_engine


@pytest.fixture
def batcher():
    return WriteBatcher(make_engine(seed=31))


class TestBatching:
    def test_put_buffers_until_full(self, batcher):
        batcher.put(b"a" * 20)
        batcher.put(b"b" * 20)
        assert len(batcher._buffer) == 40
        assert len(batcher._live_bytes) == 0

    def test_flush_on_overflow(self, batcher):
        # Segment is 64 bytes; the third 30-byte value overflows.
        h1 = batcher.put(b"a" * 30)
        h2 = batcher.put(b"b" * 30)
        h3 = batcher.put(b"c" * 30)
        assert h1._locator is not None and h2._locator is not None
        assert h3._locator is None
        assert len(batcher._live_bytes) == 1
        assert len(batcher._buffer) == 30

    def test_locator_roundtrip(self, batcher):
        h1 = batcher.put(b"hello")
        h2 = batcher.put(b"world!")
        batcher.flush()
        assert batcher.read(h1.locator) == b"hello"
        assert batcher.read(h2.locator) == b"world!"
        assert h1.locator.batch_addr == h2.locator.batch_addr
        assert h2.locator.offset == 5

    def test_locator_access_autoflushes(self, batcher):
        handle = batcher.put(b"xyz")
        locator = handle.locator  # implicit flush
        assert isinstance(locator, BatchLocator)
        assert batcher.read(locator) == b"xyz"
        assert len(batcher._buffer) == 0

    def test_one_engine_write_per_batch(self, batcher):
        writes_before = batcher.engine.stats.writes
        for i in range(6):
            batcher.put(bytes([65 + i]) * 10)  # 60 bytes, one batch
        batcher.flush()
        assert batcher.engine.stats.writes == writes_before + 1

    def test_delete_releases_empty_batch(self, batcher):
        h1 = batcher.put(b"a" * 20)
        h2 = batcher.put(b"b" * 20)
        batcher.flush()
        free_before = batcher.engine.dap.free_count()
        batcher.delete(h1.locator)
        assert len(batcher._live_bytes) == 1
        batcher.delete(h2.locator)
        assert len(batcher._live_bytes) == 0
        assert batcher.engine.dap.free_count() == free_before + 1

    def test_delete_unknown_batch_raises(self, batcher):
        with pytest.raises(KeyError):
            batcher.delete(BatchLocator(12345, 0, 4))

    def test_double_delete_raises_and_keeps_batch_live(self, batcher):
        """Regression: a repeated delete must not double-decrement the
        live-byte count and prematurely release a batch with live values."""
        h1 = batcher.put(b"a" * 20)
        h2 = batcher.put(b"b" * 20)
        batcher.flush()
        free_before = batcher.engine.dap.free_count()
        batcher.delete(h1.locator)
        with pytest.raises(KeyError):
            batcher.delete(h1.locator)  # tombstoned: double free rejected
        assert len(batcher._live_bytes) == 1
        assert batcher.read(h2.locator) == b"b" * 20  # h2 still live
        batcher.delete(h2.locator)
        assert len(batcher._live_bytes) == 0
        assert batcher.engine.dap.free_count() == free_before + 1

    def test_delete_after_batch_release_raises(self, batcher):
        h1 = batcher.put(b"c" * 30)
        batcher.flush()
        batcher.delete(h1.locator)  # batch fully released
        with pytest.raises(KeyError):
            batcher.delete(h1.locator)

    def test_validation(self, batcher):
        with pytest.raises(TypeError):
            batcher.put(b"")
        with pytest.raises(TypeError):
            batcher.put("str")
        with pytest.raises(ValueError):
            batcher.put(b"x" * 65)

    def test_flush_empty_returns_none(self, batcher):
        assert batcher.flush() is None

    def test_batching_reduces_write_count_vs_direct(self):
        """The point of batching: one segment write instead of many."""
        direct = make_engine(seed=32)
        for i in range(12):
            addr, _ = direct.write(bytes([i]) * 16)
            direct.release(addr)
        direct_writes = direct.stats.writes

        batched_engine = make_engine(seed=32)
        batcher = WriteBatcher(batched_engine)
        for i in range(12):
            batcher.put(bytes([i]) * 16)
        batcher.flush()
        assert batched_engine.stats.writes < direct_writes
