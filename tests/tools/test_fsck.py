"""Offline fsck: clean stores pass, every injected defect is reported."""

import numpy as np
import pytest

from repro.testing import CrashError, FaultInjector, KVCrashHarness
from repro.tools.fsck import fsck, main


@pytest.fixture(scope="module")
def harness():
    return KVCrashHarness(n_segments=48, segment_size=64, seed=7)


def snapshot(harness, tmp_path, mutate=None, faults=None, n_keys=5):
    """Build a store, optionally crash/corrupt it, save a snapshot."""
    faults = faults or FaultInjector()
    device, _, store = harness.fresh(faults)
    rng = np.random.default_rng(5)
    crashed = False
    try:
        for i in range(n_keys):
            store.put(
                b"k%02d" % i,
                rng.integers(0, 256, 48, dtype=np.uint8).tobytes(),
            )
    except CrashError:
        crashed = True
    if mutate is not None:
        mutate(device, store)
    path = tmp_path / "store.npz"
    device.save(path)
    return path, store, crashed


def run_fsck(path, harness):
    return fsck(
        path,
        log_segments=harness.log_segments,
        key_capacity=harness.key_capacity,
    )


class TestVerdicts:
    def test_clean_store_is_clean(self, harness, tmp_path):
        path, store, _ = snapshot(harness, tmp_path)
        report = run_fsck(path, harness)
        assert report.ok, report.errors
        assert not report.warnings
        assert report.values_ok == len(store)
        assert report.pending_undo_records == 0

    def test_flipped_value_bit_is_an_error(self, harness, tmp_path):
        def flip(device, store):
            addr = next(iter(store._live))
            device._content[addr] ^= 0x01

        path, _, _ = snapshot(harness, tmp_path, mutate=flip)
        report = run_fsck(path, harness)
        assert not report.ok
        assert any("CRC32" in e for e in report.errors)

    def test_duplicate_live_key_is_an_error(self, harness, tmp_path):
        def duplicate(device, store):
            entries = list(store.catalog.scan())
            src, dst = entries[0], entries[1]
            src_addr = store.catalog.record_address(src.slot)
            dst_addr = store.catalog.record_address(dst.slot)
            record = store.pool.read(src_addr, store.catalog.record_size)
            # Clone slot 0's record over slot 1's — two live records now
            # claim the same key (and slot 1's value fails the cloned CRC).
            device._content[
                dst_addr : dst_addr + store.catalog.record_size
            ] = np.frombuffer(record, dtype=np.uint8)

        path, _, _ = snapshot(harness, tmp_path, mutate=duplicate)
        report = run_fsck(path, harness)
        assert not report.ok
        assert any("duplicate live key" in e for e in report.errors)

    def test_crashed_transaction_is_a_warning_not_error(
        self, harness, tmp_path
    ):
        faults = FaultInjector()
        faults.arm("tx.commit", error=CrashError, after=2, times=1)
        path, _, crashed = snapshot(harness, tmp_path, faults=faults)
        assert crashed
        report = run_fsck(path, harness)
        assert report.ok, report.errors  # recovery will roll it back
        assert any("active" in w for w in report.warnings)
        assert report.pending_undo_records > 0

    def test_garbage_active_flag_is_an_error(self, harness, tmp_path):
        def garbage(device, store):
            device._content[0] = 0x7F

        path, _, _ = snapshot(harness, tmp_path, mutate=garbage)
        report = run_fsck(path, harness)
        assert not report.ok
        assert any("active flag" in e for e in report.errors)


class TestCli:
    def test_exit_codes(self, harness, tmp_path, capsys):
        path, store, _ = snapshot(harness, tmp_path)
        argv = [
            str(path),
            "--log-segments", str(harness.log_segments),
            "--key-capacity", str(harness.key_capacity),
        ]
        assert main(argv) == 0
        assert "clean" in capsys.readouterr().out

        # Corrupt one live byte and re-save under a new name.
        from repro.nvm import NVMDevice

        live_addr = next(iter(store._live))
        bad = NVMDevice.load(path)
        bad._content[live_addr] ^= 0xFF
        bad_path = tmp_path / "bad.npz"
        bad.save(bad_path)
        argv[0] = str(bad_path)
        assert main(argv) == 1
        assert "ERROR" in capsys.readouterr().out
