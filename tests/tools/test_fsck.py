"""Offline fsck: clean stores pass, every injected defect is reported."""

import struct

import numpy as np
import pytest

from repro.nvm import NVMDevice
from repro.nvm.device import WearOutConfig
from repro.pmem.catalog import CatalogLayoutError
from repro.pmem.pool import LOG_FLAG_AT
from repro.testing import CrashError, FaultInjector, KVCrashHarness
from repro.tools.fsck import fsck, main

#: Record layout v1: the key bytes follow the 24-B header, whose last
#: four bytes are the u32 segment index.
KEY_AT = 24


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


def poke_segment(device, store, record: int, segment: int) -> None:
    at = store.catalog.record_address(record) + KEY_AT - 4
    device._content[at : at + 4] = np.frombuffer(
        struct.pack("<I", segment), np.uint8
    )


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
            # Record 1 takes record 0's key bytes (equal lengths): two live
            # records now claim one key, each over its own intact value.
            src, dst = (store.catalog.record_address(r) for r in (0, 1))
            device._content[dst + KEY_AT : dst + KEY_AT + 3] = (
                device._content[src + KEY_AT : src + KEY_AT + 3]
            )

        path, _, _ = snapshot(harness, tmp_path, mutate=duplicate)
        [error] = run_fsck(path, harness).errors
        assert "duplicate live key b'k00' in records 0 and 1" in error

    def test_two_records_naming_one_segment_is_an_error(
        self, harness, tmp_path
    ):
        def share(device, store):
            # Record 1 takes record 0's mutable bytes — length, epoch, CRC
            # and segment — so it names record 0's (CRC-clean) value.
            src, dst = (store.catalog.record_address(r) for r in (0, 1))
            device._content[dst + 4 : dst + KEY_AT] = (
                device._content[src + 4 : src + KEY_AT]
            )

        path, _, _ = snapshot(harness, tmp_path, mutate=share)
        [error] = run_fsck(path, harness).errors
        assert "records 0 and 1 both name the segment" in error

    def test_segment_index_out_of_range_is_an_error(self, harness, tmp_path):
        def stray(device, store):
            poke_segment(device, store, 1, store.pool.capacity_objects)

        path, _, _ = snapshot(harness, tmp_path, mutate=stray)
        [error] = run_fsck(path, harness).errors
        assert "record 1" in error and "outside the object range" in error

    def test_live_record_naming_a_spare_is_an_error(self, tmp_path):
        mortal = KVCrashHarness(
            n_segments=48, segment_size=64, seed=7,
            wearout=WearOutConfig(seed=3), spares=2,
        )

        def onto_spare(device, store):
            # Move record 1's value bytes onto a reserved spare and point
            # the record there: CRC-clean, uniquely named — and a spare.
            entry = store.catalog.read(1)
            old = store.pool.object_address(entry.segment)
            spare = device.health.spares[0]
            device._content[spare : spare + 64] = device._content[
                old : old + 64
            ]
            poke_segment(device, store, 1, store.pool.object_index(spare))

        path, _, _ = snapshot(mortal, tmp_path, mutate=onto_spare)
        [error] = run_fsck(path, mortal).errors
        assert "spare segment" in error and "live in the catalog" in error

    def test_segment_indexed_catalog_is_refused(self, harness, tmp_path):
        """Layout version 0 — the pre-PR-22 record, whose slot *was* the
        address: flags, reserved 0, key length, value length, epoch, CRC,
        key — is refused by fsck and by open, by name, not mis-parsed."""
        def downgrade(device, store):
            v0 = struct.pack("<BBHIQI", 1, 0, 3, 48, 1, 0) + b"k00"
            at = store.catalog.record_address(0)
            device._content[at : at + len(v0)] = np.frombuffer(v0, np.uint8)

        path, _, _ = snapshot(harness, tmp_path, mutate=downgrade)
        cause = "segment-indexed catalog written before PR 22"
        [error] = run_fsck(path, harness).errors
        assert cause in error
        with pytest.raises(CatalogLayoutError, match=cause):
            harness.reopen(NVMDevice.load(path))

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
        """The flag is the header byte behind the sequence: garbage there
        is an error, while any byte inside the sequence is a number."""
        def garbage(at):
            def mutate(device, store):
                device._content[at] = 0x7F
            return mutate

        path, _, _ = snapshot(harness, tmp_path, mutate=garbage(LOG_FLAG_AT))
        report = run_fsck(path, harness)
        assert not report.ok
        assert any("active flag" in e for e in report.errors)
        path, _, _ = snapshot(harness, tmp_path, mutate=garbage(0))
        assert run_fsck(path, harness).ok


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
        live_addr = next(iter(store._live))
        bad = NVMDevice.load(path)
        bad._content[live_addr] ^= 0xFF
        bad_path = tmp_path / "bad.npz"
        bad.save(bad_path)
        argv[0] = str(bad_path)
        assert main(argv) == 1
        assert "ERROR" in capsys.readouterr().out
