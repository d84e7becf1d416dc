"""E2NVM engine tests: Algorithms 1–2, placement quality, retraining."""

import numpy as np
import pytest

from repro.core import E2NVM
from repro.core.config import fast_test_config
from repro.nvm import MemoryController, NVMDevice
from tests.conftest import make_device, make_engine


class TestTraining:
    def test_operations_before_train_raise(self):
        engine = E2NVM(MemoryController(make_device()), fast_test_config())
        with pytest.raises(RuntimeError):
            engine.place(b"x" * 64)
        with pytest.raises(RuntimeError):
            engine.release(0)

    def test_train_populates_every_segment(self, fresh_engine):
        assert fresh_engine.dap.free_count() == 128

    def test_train_requires_free_segments(self):
        device = NVMDevice(capacity_bytes=2 * 64, segment_size=64)
        engine = E2NVM(
            MemoryController(device), fast_test_config(n_clusters=3)
        )
        with pytest.raises(RuntimeError):
            engine.train()

    def test_history_has_loss_curves(self, fresh_engine):
        # Re-train returns fresh curves.
        history = fresh_engine.train()
        assert len(history["train_loss"]) > 0
        assert len(history["joint_loss"]) > 0


class TestWritePath:
    def test_write_claims_and_stores(self, fresh_engine):
        value = b"A" * 64
        addr, result = fresh_engine.write(value)
        assert fresh_engine.controller.read(addr, 64) == value
        assert fresh_engine.allocated_count == 1
        assert result.bits_programmed >= 0

    def test_oversized_value_raises(self, fresh_engine):
        with pytest.raises(ValueError):
            fresh_engine.write(b"x" * 65)

    def test_short_value_writes_only_its_bytes(self, fresh_engine):
        """Padded bits are never written (§4.1)."""
        addr, _ = fresh_engine.write(b"hi")
        before = fresh_engine.controller.peek(addr, 64)
        assert before[:2].tobytes() == b"hi"
        # Bytes after the value kept their pre-write content: write again
        # and confirm the tail is untouched by comparing device stats.
        tail_before = fresh_engine.controller.peek(addr + 2, 62)
        assert tail_before.size == 62

    def test_write_consumes_pool(self, fresh_engine):
        free_before = fresh_engine.dap.free_count()
        fresh_engine.write(b"v" * 64)
        assert fresh_engine.dap.free_count() == free_before - 1

    def test_release_returns_address(self, fresh_engine):
        addr, _ = fresh_engine.write(b"v" * 64)
        free_before = fresh_engine.dap.free_count()
        fresh_engine.release(addr)
        assert fresh_engine.dap.free_count() == free_before + 1
        assert fresh_engine.allocated_count == 0

    def test_release_unallocated_raises(self, fresh_engine):
        with pytest.raises(KeyError):
            fresh_engine.release(0)

    def test_double_release_raises(self, fresh_engine):
        addr, _ = fresh_engine.write(b"v" * 64)
        fresh_engine.release(addr)
        with pytest.raises(KeyError):
            fresh_engine.release(addr)
        other, _ = fresh_engine.write(b"w" * 64)
        with pytest.raises(KeyError):
            fresh_engine.release_many([other, addr])
        assert fresh_engine.is_allocated(other)  # the batch released nothing

    def test_no_double_allocation(self, fresh_engine):
        addrs = [fresh_engine.write(b"%03d" % i * 21 + b"x")[0] for i in range(50)]
        assert len(addrs) == len(set(addrs))


class TestPlacementQuality:
    def test_similar_values_cluster_together(self):
        """On clusterable memory content, writing values drawn from the same
        content classes flips far fewer bits than writing random values."""
        from repro.workloads.datasets import bits_to_values, make_image_dataset

        bits, _ = make_image_dataset(256, 512, n_classes=3, noise=0.05, seed=3)
        seed_values = bits_to_values(bits[:128])
        device = NVMDevice(
            capacity_bytes=128 * 64, segment_size=64, initial_fill="zero"
        )
        controller = MemoryController(device)
        for i, v in enumerate(seed_values):
            controller.write(i * 64, v)
        engine = E2NVM(controller, fast_test_config(n_clusters=3, seed=3))
        engine.train()

        rng = np.random.default_rng(0)
        flips_similar = []
        for v in bits_to_values(bits[128:168]):
            addr, result = engine.write(v)
            flips_similar.append(result.bits_programmed)
            engine.release(addr)
        flips_random = []
        for _ in range(40):
            value = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            addr, result = engine.write(value)
            flips_random.append(result.bits_programmed)
            engine.release(addr)
        assert np.mean(flips_similar) < 0.75 * np.mean(flips_random)

    def test_beats_arbitrary_placement_on_clustered_data(self):
        """The headline claim: memory-aware placement flips fewer bits than
        arbitrary placement on clusterable content."""
        from repro.baselines import ArbitraryPlacer
        from repro.workloads.datasets import bits_to_values, make_image_dataset

        bits, _ = make_image_dataset(400, 512, n_classes=4, noise=0.08, seed=5)
        values = bits_to_values(bits)
        seed_values, stream = values[:128], values[128:]

        # E2-NVM engine.
        device_a = NVMDevice(
            capacity_bytes=128 * 64, segment_size=64, initial_fill="zero"
        )
        controller_a = MemoryController(device_a)
        for i, v in enumerate(seed_values):
            controller_a.write(i * 64, v)
        device_a.reset_stats()
        engine = E2NVM(controller_a, fast_test_config(n_clusters=4, seed=5))
        engine.train()
        for v in stream[:100]:
            addr, _ = engine.write(v)
            engine.release(addr)
        e2_flips = device_a.stats.bits_programmed

        # Arbitrary FIFO placement on an identical device.
        device_b = NVMDevice(
            capacity_bytes=128 * 64, segment_size=64, initial_fill="zero"
        )
        controller_b = MemoryController(device_b)
        for i, v in enumerate(seed_values):
            controller_b.write(i * 64, v)
        device_b.reset_stats()
        placer = ArbitraryPlacer([i * 64 for i in range(128)])
        for v in stream[:100]:
            addr = placer.choose(None)
            controller_b.write(addr, v)
            placer.release(addr, None)
        arb_flips = device_b.stats.bits_programmed

        assert e2_flips < arb_flips

    @pytest.mark.parametrize(
        "value, half",
        [(b"\xff" * 16, 0), (b"\x00" * 16 + b"\xff" * 8, 1)],
        ids=["ones-first", "ones-second"],
    )
    def test_short_value_placed_as_bits_then_zeros(self, value, half):
        """§4.1: memory holds two kinds of segment, ones in the first half
        or ones in the second.  A short value is predicted as its bits
        followed by zeros: a half-segment of ones looks like the first
        kind, zeros then a quarter of ones like the second — and each is
        placed on a segment of that kind."""
        ones, zeros = b"\xff" * 16, b"\x00" * 16
        device = NVMDevice(
            capacity_bytes=64 * 32, segment_size=32, initial_fill="zero"
        )
        controller = MemoryController(device)
        for segment in range(64):
            content = ones + zeros if segment % 2 == 0 else zeros + ones
            controller.write(segment * 32, content)
        engine = E2NVM(controller, fast_test_config(n_clusters=2))
        engine.train()
        assert engine.place(value) // 32 % 2 == half


class TestRetraining:
    def test_maybe_retrain_fires_when_cluster_starves(self):
        engine = make_engine(
            seed=9, retrain_threshold=2, retrain_cooldown_writes=0
        )
        # Drain one cluster below the threshold.
        sizes = engine.dap.sizes()
        cluster = min(sizes, key=sizes.get)
        while engine.dap.sizes()[cluster] >= 2:
            addr = engine.dap.get(cluster)
            engine._allocated.add(addr)
        assert engine.maybe_retrain() is True
        assert engine.wait_for_retrain(timeout=120)
        assert engine.retrain_stats.succeeded == 1

    def test_cooldown_suppresses_retrain(self):
        engine = make_engine(
            seed=10, retrain_threshold=200, retrain_cooldown_writes=10_000
        )
        # Threshold is absurdly high (every cluster is "starved"), but the
        # cooldown has not expired since train().
        assert engine.maybe_retrain() is False

    def test_auto_retrain_during_writes(self):
        engine = make_engine(
            seed=11,
            retrain_threshold=1,
            retrain_cooldown_writes=0,
            auto_retrain=True,
        )
        for i in range(40):
            addr, _ = engine.write(bytes([i]) * 64)
            engine.release(addr)
        # With threshold 1 and no cooldown, at least one retrain happened
        # whenever some cluster emptied; either way the engine stayed usable.
        assert engine.wait_for_retrain(timeout=120)
        assert engine.dap.free_count() == 128

    def test_memory_footprint_reported(self, fresh_engine):
        assert fresh_engine.memory_footprint_bytes() > 0
