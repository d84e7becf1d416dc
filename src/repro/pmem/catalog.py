"""Persistent per-segment catalog: the media-resident store descriptor.

One fixed-size record per object segment lives in the pool's reserved
metadata region, so the media alone describes the KV store::

    [0]      flags       (bit 0 = valid: the segment holds a live value)
    [1]      reserved    (always 0)
    [2:4]    key length  (u16)
    [4:8]    value length(u32)
    [8:16]   epoch       (u64, monotonically increasing per PUT)
    [16:20]  value CRC32 (u32, checksum of the value bytes)
    [20:..]  key bytes   (zero-padded to ``key_capacity``)

Records never cross a segment boundary (each metadata segment holds
``segment_size // record_size`` of them), so a record update is a single
in-segment write and composes with the pool's undo-log transactions:
``tx_set``/``tx_clear`` make header+value+flag updates failure-atomic.

The validity flag is the paper's Algorithm 2 flag bit made real: DELETE
resets a *persisted* bit, and recovery rebuilds the index, validity map and
Dynamic Address Pool purely from a catalog scan.

The value CRC32 is the store's end-to-end integrity contract: it is written
in the same transaction as the value bytes (so record and value can never
disagree after recovery), verified on every GET and during the recovery
scan, and is what lets the read path *detect* resistance-drift corruption
instead of serving garbage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from repro.pmem.pool import PersistentPool

# flags, reserved, key_len, value_len, epoch, value_crc32
_RECORD = struct.Struct("<BBHIQI")
_FLAG_VALID = 0x01

#: Default key capacity; records are then 60 B, fitting the 64 B segments
#: used throughout the test/benchmark geometry.
DEFAULT_KEY_CAPACITY = 40


@dataclass(frozen=True)
class CatalogEntry:
    """One decoded live record of the persistent catalog."""

    slot: int
    key: bytes
    value_len: int
    epoch: int
    crc: int = 0


class PersistentCatalog:
    """Fixed-size record table over a pool's reserved metadata region.

    Args:
        pool: the :class:`PersistentPool` whose object segments the catalog
            describes; its ``meta_segments`` must cover one record per
            object segment (size the pool with :meth:`meta_segments_for`).
        key_capacity: maximum key length the records can hold.
    """

    def __init__(
        self, pool: PersistentPool, key_capacity: int = DEFAULT_KEY_CAPACITY
    ) -> None:
        if key_capacity <= 0:
            raise ValueError("key_capacity must be positive")
        self.pool = pool
        self.key_capacity = key_capacity
        self.record_size = _RECORD.size + key_capacity
        if self.record_size > pool.segment_size:
            raise ValueError(
                f"catalog record of {self.record_size} B exceeds the "
                f"{pool.segment_size} B segment; lower key_capacity"
            )
        self.records_per_segment = pool.segment_size // self.record_size
        self.n_slots = pool.capacity_objects
        needed = self.segments_needed(
            self.n_slots, pool.segment_size, key_capacity
        )
        if pool.meta_segments < needed:
            raise ValueError(
                f"pool reserves {pool.meta_segments} metadata segments but "
                f"the catalog needs {needed} for {self.n_slots} objects"
            )

    # ------------------------------------------------------------- geometry

    @staticmethod
    def segments_needed(
        n_objects: int, segment_size: int, key_capacity: int
    ) -> int:
        """Metadata segments required to catalogue ``n_objects`` segments."""
        record = _RECORD.size + key_capacity
        if record > segment_size:
            raise ValueError("record larger than a segment")
        per_segment = segment_size // record
        return -(-n_objects // per_segment)

    @staticmethod
    def meta_segments_for(
        n_segments: int,
        log_segments: int,
        segment_size: int,
        key_capacity: int = DEFAULT_KEY_CAPACITY,
    ) -> int:
        """Solve the circular sizing: metadata segments to reserve on a
        device of ``n_segments`` so every remaining object segment has a
        catalog record."""
        for meta in range(1, n_segments - log_segments):
            objects = n_segments - log_segments - meta
            if (
                PersistentCatalog.segments_needed(
                    objects, segment_size, key_capacity
                )
                <= meta
            ):
                return meta
        raise ValueError("device too small to hold a catalog")

    @classmethod
    def immortal_metadata(
        cls,
        model,
        n_segments: int,
        log_segments: int,
        segment_size: int,
        key_capacity: int = DEFAULT_KEY_CAPACITY,
    ):
        """``model`` — a ``WearOutConfig``/``DriftConfig`` or ``None`` —
        with the undo-log + catalog prefix made immortal, unless the
        caller chose a prefix themselves.

        Those regions model over-provisioned metadata media: a worn-out
        or drifted log record would (correctly) be refused at recovery —
        a dead undo log is unrecoverable by design — so durable stores on
        mortal media keep them out of the endurance and retention models.
        """
        if model is None or model.immortal_prefix_segments:
            return model
        meta = cls.meta_segments_for(
            n_segments, log_segments, segment_size, key_capacity
        )
        return replace(model, immortal_prefix_segments=log_segments + meta)

    def record_address(self, slot: int) -> int:
        """Media byte address of the record for object segment ``slot``."""
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"catalog slot {slot} out of range")
        segment, offset = divmod(slot, self.records_per_segment)
        return self.pool.meta_address(segment) + offset * self.record_size

    # ----------------------------------------------------------- mutations

    def format(self) -> None:
        """Zero the whole metadata region (every record invalid).

        Call once when creating a store on fresh media; formatting is a
        plain bulk write, not a transaction.
        """
        zeros = b"\x00" * self.pool.segment_size
        for i in range(self.pool.meta_segments):
            self.pool.write(self.pool.meta_address(i), zeros)

    def tx_set(
        self, tx, slot: int, key: bytes, value_len: int, epoch: int,
        crc: int = 0,
    ) -> None:
        """Transactionally write a full live record for ``slot``.

        ``crc`` is the CRC32 of the value bytes; writing it in the same
        transaction as the value keeps record and value consistent across
        any crash point.
        """
        if len(key) > self.key_capacity:
            raise ValueError(
                f"key of {len(key)} bytes exceeds catalog key capacity "
                f"{self.key_capacity}"
            )
        if not 0 < value_len <= self.pool.segment_size:
            raise ValueError(f"value length {value_len} out of range")
        record = _RECORD.pack(
            _FLAG_VALID, 0, len(key), value_len, epoch, crc & 0xFFFFFFFF
        ) + key.ljust(self.key_capacity, b"\x00")
        tx.write(self.record_address(slot), record)

    def tx_clear(self, tx, slot: int) -> None:
        """Transactionally reset the validity flag of ``slot`` (Algorithm 2:
        one persisted bit; the rest of the record becomes dead metadata)."""
        tx.write(self.record_address(slot), b"\x00")

    def tx_move(
        self, tx, old_slot: int, new_slot: int, key: bytes, value_len: int,
        epoch: int, crc: int = 0,
    ) -> None:
        """Transactionally forward a live record to a new slot — the
        catalog half of a migration (update-in-place PUTs, relocation off
        retiring segments, and the compactor's wear-leveling swaps all
        route through it).

        The full record is written at ``new_slot`` and ``old_slot``'s
        validity flag is reset in the *same* undo-log transaction, so a
        crash mid-move rolls both back together.  The moved record carries
        a fresh ``epoch``: even if a duplicate pair ever survived to a
        recovery scan, newest-epoch-wins resolution keeps exactly the
        forwarded copy — which is what makes migration crash-safe without
        any extra forwarding table on the media.
        """
        self.tx_set(tx, new_slot, key, value_len, epoch, crc=crc)
        self.tx_clear(tx, old_slot)

    # --------------------------------------------------------------- reads

    def read(self, slot: int) -> CatalogEntry | None:
        """Decode the record of ``slot``; ``None`` when invalid or garbage."""
        raw = self.pool.read(self.record_address(slot), self.record_size)
        flags, _, key_len, value_len, epoch, crc = _RECORD.unpack(
            raw[: _RECORD.size]
        )
        if flags != _FLAG_VALID:
            return None
        if key_len == 0 or key_len > self.key_capacity:
            return None
        if value_len == 0 or value_len > self.pool.segment_size:
            return None
        key = raw[_RECORD.size : _RECORD.size + key_len]
        return CatalogEntry(slot=slot, key=key, value_len=value_len,
                            epoch=epoch, crc=crc)

    def scan(self):
        """Yield every live :class:`CatalogEntry`, in slot order."""
        for slot in range(self.n_slots):
            entry = self.read(slot)
            if entry is not None:
                yield entry

    def max_epoch(self) -> int:
        """Highest epoch across live records (0 when the store is empty)."""
        return max((e.epoch for e in self.scan()), default=0)
