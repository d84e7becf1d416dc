"""Fast mini-versions of the headline figure shapes, inside the unit suite.

The full sweeps live in benchmarks/; these distilled versions keep the
paper's core claims under plain ``pytest tests/`` protection.
"""

import numpy as np

from repro.baselines import DCW, ArbitraryPlacer, NaiveWrite
from repro.core import E2NVM
from repro.core.config import fast_test_config
from repro.nvm import MemoryController, NVMDevice, SegmentSwapWearLeveling
from repro.pmem import PersistentPool
from repro.workloads.datasets import bits_to_values, make_image_dataset


class TestFigure1Shape:
    def test_energy_monotone_in_overwrite_difference(self):
        """The Figure 1 sweep, 3 points: identical < half < all-different."""
        energies = []
        for fraction in (0.0, 0.5, 1.0):
            device = NVMDevice(
                capacity_bytes=10 * 256, segment_size=256, initial_fill="zero"
            )
            pool = PersistentPool(MemoryController(device))
            rng = np.random.default_rng(1)
            addr = pool.object_address(0)
            old = rng.integers(0, 256, 256, dtype=np.uint8)
            pool.write(addr, old.tobytes())
            device.reset_stats()
            bits = np.unpackbits(old)
            n_flip = int(bits.size * fraction)
            flip_at = rng.choice(bits.size, size=n_flip, replace=False)
            bits[flip_at] ^= 1
            with pool.transaction() as tx:
                tx.write(addr, np.packbits(bits).tobytes())
            energies.append(device.stats.write_energy_pj)
        assert energies[0] < energies[1] < energies[2]
        saving = 1.0 - energies[0] / energies[2]
        assert saving > 0.4


class TestFigure2Shape:
    def test_swap_period_one_erases_placement_benefit(self):
        bits, _ = make_image_dataset(200, 512, n_classes=4, noise=0.06, seed=2)
        values = bits_to_values(bits)
        seed_values, stream = values[:96], values[96:150]

        def run(psi):
            device = NVMDevice(
                capacity_bytes=96 * 64, segment_size=64,
                initial_fill="random", seed=2,
            )
            wear = SegmentSwapWearLeveling(period=psi, seed=2)
            controller = MemoryController(device, wear_leveling=wear)
            # The leveler's scratch segment is not logically addressable.
            for i, v in enumerate(seed_values[: controller.n_segments]):
                controller.write(i * 64, v)
            device.reset_stats()
            engine = E2NVM(controller, fast_test_config(n_clusters=4, seed=2))
            engine.train()
            for v in stream:
                addr, _ = engine.write(v)
                engine.release(addr)
            return device.stats.bits_programmed / len(stream)

        assert run(1) > 2 * run(50)


class TestFigure10Shape:
    def test_e2nvm_beats_rbw_on_clustered_content(self):
        bits, _ = make_image_dataset(260, 512, n_classes=4, noise=0.06, seed=3)
        values = bits_to_values(bits)
        seed_values, stream = values[:128], values[128:200]

        def seeded(scheme=None):
            device = NVMDevice(
                capacity_bytes=128 * 64, segment_size=64,
                initial_fill="random", seed=3,
            )
            controller = MemoryController(device, scheme=scheme)
            for i, v in enumerate(seed_values):
                controller.write(i * 64, v)
            device.reset_stats()
            return controller, device

        controller, device = seeded()
        engine = E2NVM(controller, fast_test_config(n_clusters=4, seed=3))
        engine.train()
        for v in stream:
            addr, _ = engine.write(v)
            engine.release(addr)
        e2 = device.stats.bits_programmed

        controller, device = seeded(scheme=DCW())
        placer = ArbitraryPlacer([i * 64 for i in range(128)])
        for v in stream:
            addr = placer.choose(None)
            controller.write(addr, v)
            placer.release(addr, None)
        dcw = device.stats.bits_programmed

        controller, device = seeded(scheme=NaiveWrite())
        placer = ArbitraryPlacer([i * 64 for i in range(128)])
        for v in stream:
            addr = placer.choose(None)
            controller.write(addr, v)
            placer.release(addr, None)
        naive = device.stats.bits_programmed

        assert e2 < 0.6 * dcw
        assert dcw < naive


class TestFigure19Shape:
    def test_writes_spread_across_the_zone(self):
        bits, _ = make_image_dataset(400, 512, n_classes=4, noise=0.06, seed=4)
        values = bits_to_values(bits)
        device = NVMDevice(
            capacity_bytes=96 * 64, segment_size=64, initial_fill="zero"
        )
        controller = MemoryController(device)
        for i, v in enumerate(values[:96]):
            controller.write(i * 64, v)
        device.reset_stats()
        device.segment_write_count[:] = 0
        engine = E2NVM(controller, fast_test_config(n_clusters=4, seed=4))
        engine.train()
        live = []
        for v in values[96:96 + 192]:
            addr, _ = engine.write(v)
            live.append(addr)
            if len(live) > 24:
                engine.release(live.pop(0))
        writes = device.segment_write_count
        assert writes.max() <= 8 * max(writes.mean(), 1)
