"""Offline fsck: clean stores pass, every injected defect is reported."""

from dataclasses import replace

import numpy as np
import pytest

from repro.nvm import NVMDevice
from repro.nvm.device import WearOutConfig
from repro.pmem.catalog import CatalogLayoutError
from repro.testing import CrashError, FaultInjector, KVCrashHarness
from repro.tools.fsck import fsck, main

#: Record layout v2: slot A, then the layout version byte.
VERSION_AT = 22


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


def forge(store, record: int, **fields) -> None:
    """Rewrite ``record`` as one valid slot A — its live entry with
    ``fields`` replaced, checksums and all: damage atomic PUTs cannot
    produce.  (The pool stands in for the transaction: the row lands at
    once.)"""
    catalog = store.catalog
    entry = replace(catalog.read(record), **fields)
    catalog._target[record] = 0
    catalog.tx_set(
        store.pool, record, entry.segment, entry.key, entry.value_len,
        entry.epoch, 0, entry.crc,
    )


def run_fsck(path, harness):
    return fsck(path, key_capacity=harness.key_capacity)


class TestVerdicts:
    def test_clean_store_is_clean(self, harness, tmp_path):
        path, store, _ = snapshot(harness, tmp_path)
        report = run_fsck(path, harness)
        assert report.ok, report.errors
        assert not report.warnings
        assert report.values_ok == len(store)
        assert report.pending_dropped_slots == 0

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
            # Record 1 takes record 0's key: two live records now claim
            # one key, each over its own intact value.
            forge(store, 1, key=b"k00")

        path, _, _ = snapshot(harness, tmp_path, mutate=duplicate)
        [error] = run_fsck(path, harness).errors
        assert "duplicate live key b'k00' in records 0 and 1" in error

    def test_two_records_naming_one_segment_is_an_error(
        self, harness, tmp_path
    ):
        def share(device, store):
            # Record 1 takes record 0's segment, length and CRC, so it
            # names record 0's (CRC-clean) value.
            entry = store.catalog.read(0)
            forge(
                store, 1, segment=entry.segment, value_len=entry.value_len,
                crc=entry.crc,
            )

        path, _, _ = snapshot(harness, tmp_path, mutate=share)
        [error] = run_fsck(path, harness).errors
        assert "records 0 and 1 both name the segment" in error

    def test_segment_index_out_of_range_is_an_error(self, harness, tmp_path):
        def stray(device, store):
            forge(store, 1, segment=store.pool.capacity_objects)

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
            spare = next(iter(device.health.spares))
            device._content[spare : spare + 64] = device._content[
                old : old + 64
            ]
            forge(store, 1, segment=store.pool.object_index(spare))

        path, _, _ = snapshot(mortal, tmp_path, mutate=onto_spare)
        [error] = run_fsck(path, mortal).errors
        assert "spare segment" in error and "live in the catalog" in error

    def test_older_record_layout_is_refused(self, harness, tmp_path):
        """A record whose layout version byte is neither 0 (never
        written) nor 2 — as the one-version layout's bytes read through
        this one may be — is refused by fsck and by open, by name, not
        mis-parsed."""
        def downgrade(device, store):
            at = store.catalog.record_address(0) + VERSION_AT
            device._content[at] = 1

        path, _, _ = snapshot(harness, tmp_path, mutate=downgrade)
        cause = "layout version 1: written before the two-slot layout"
        [error] = run_fsck(path, harness).errors
        assert cause in error
        with pytest.raises(CatalogLayoutError, match=cause):
            harness.reopen(NVMDevice.load(path))

    def test_crashed_transaction_is_a_warning_not_error(
        self, harness, tmp_path
    ):
        """A batch crashed with a later slot on the media and an earlier
        one torn: the slots recovery will drop are a warning, and the
        view fsck checks is the one recovery will serve."""
        faults = FaultInjector()
        device, _, store = harness.fresh(faults)
        store.put_many([(b"k00", b"a"), (b"k01", b"b")])
        # Write order: the two 22-B UPDATE slots, then the 40-B INSERT
        # row of index 1 — torn, so index 2 lies past the gap.
        faults.arm("catalog.write", error=CrashError, after=2, torn_bytes=9)
        with pytest.raises(CrashError):
            store.put_many([(b"k00", b"c"), (b"k02", b"d"), (b"k01", b"e")])
        path = tmp_path / "store.npz"
        device.save(path)
        report = run_fsck(path, harness)
        assert report.ok, report.errors  # recovery will drop the slot
        assert any("first missing index" in w for w in report.warnings)
        assert report.pending_dropped_slots == 1
        assert report.values_ok == 2
        recovered = harness.reopen(NVMDevice.load(path))
        assert dict(recovered.items()) == {b"k00": b"c", b"k01": b"b"}


class TestCli:
    def test_exit_codes(self, harness, tmp_path, capsys):
        path, store, _ = snapshot(harness, tmp_path)
        argv = [str(path), "--key-capacity", str(harness.key_capacity)]
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
