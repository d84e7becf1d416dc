"""The full restart journey: device snapshot + model snapshot + rebuild.

A production deployment survives restarts by persisting three things: the
NVM media itself (non-volatile by definition — modelled by the device
snapshot), the trained placement model, and the application's key index
(recovered from its own durable metadata; rebuilt here from a sidecar
listing).  This test walks the whole journey.
"""

import zlib

import numpy as np

from repro.core import E2NVM, KVStore
from repro.core.config import fast_test_config
from repro.ml.serialization import load_joint, save_joint
from repro.nvm import MemoryController, NVMDevice
from repro.workloads.datasets import bits_to_values, make_image_dataset


class TestPersistenceJourney:
    def test_restart_preserves_store_and_model(self, tmp_path):
        # --- session 1: build, train, write, snapshot -------------------
        bits, _ = make_image_dataset(160, 512, n_classes=4, noise=0.06, seed=70)
        device = NVMDevice(
            capacity_bytes=160 * 64, segment_size=64, initial_fill="zero"
        )
        controller = MemoryController(device)
        for i, value in enumerate(bits_to_values(bits)):
            controller.write(i * 64, value)
        engine = E2NVM(controller, fast_test_config(n_clusters=4, seed=70))
        store = KVStore(engine)
        store.train()
        contents = {}
        for i in range(40):
            key = b"key%02d" % i
            value = b"payload-%02d" % i
            store.put(key, value)
            contents[key] = value
        # Durable state: media snapshot + model snapshot + index sidecar.
        device.save(tmp_path / "media.npz")
        save_joint(engine.pipeline.model, tmp_path / "model.npz")
        sidecar = {key: store.index.get(key) for key in contents}

        # --- session 2: restart from the snapshots -----------------------
        device2 = NVMDevice.load(tmp_path / "media.npz")
        controller2 = MemoryController(device2)
        engine2 = E2NVM(controller2, fast_test_config(n_clusters=4, seed=70))
        # Restore the trained model instead of retraining.
        engine2.pipeline.model = load_joint(tmp_path / "model.npz")
        engine2.pipeline.trained = True
        # Re-register live segments, then rebuild the free pool.
        live_addrs = {addr for addr, _ in sidecar.values()}
        for addr in live_addrs:
            engine2.mark_allocated(addr)
        free = [a for a in engine2.free_addresses() if a not in live_addrs]
        engine2.dap.populate(
            engine2.pipeline.predict_segments(engine2._segment_bits(free)),
            free,
        )
        store2 = KVStore(engine2)
        for key, entry in sidecar.items():
            store2.index.put(key, entry)
            store2._live[entry[0]] = (key, zlib.crc32(contents[key]), 0, None)

        # Everything written in session 1 is readable in session 2.
        for key, value in contents.items():
            assert store2.get(key) == value
        # The restored model predicts identically to the original.
        sample = bits[0]
        assert engine2.pipeline.model.predict_one(sample) == (
            engine.pipeline.model.predict_one(sample)
        )
        # And the store keeps working: new writes, updates, deletes.
        store2.put(b"new-key", b"fresh")
        assert store2.get(b"new-key") == b"fresh"
        store2.put(b"key00", b"updated")
        assert store2.get(b"key00") == b"updated"
        assert store2.delete(b"key01")
        conserved = engine2.dap.free_count() + engine2.allocated_count
        assert conserved == device2.n_segments

    def test_wear_counters_survive_restart(self, tmp_path):
        """Endurance tracking is part of the media: a restart must not
        forget how worn the cells are."""
        device = NVMDevice(
            capacity_bytes=16 * 64, segment_size=64, track_bit_wear=True
        )
        controller = MemoryController(device)
        for i in range(50):
            controller.write((i % 16) * 64, bytes([i]) * 64)
        device.save(tmp_path / "worn.npz")

        restored = NVMDevice.load(tmp_path / "worn.npz")
        assert np.array_equal(
            restored.segment_write_count, device.segment_write_count
        )
        assert np.array_equal(restored.bit_wear, device.bit_wear)
