"""Persistent per-key catalog: the media-resident store descriptor.

One fixed-size record per *live key* lives in the pool's reserved metadata
region, so the media alone describes the KV store.  A record id is claimed
at the key's first insert, kept for the key's life and released by DELETE;
the record *names* the object segment that holds the value::

    [0]      flags       (bit 0 = valid: the record describes a live key)
    [1]      version     (record layout version, 1)
    [2:4]    key length  (u16)
    [4:8]    value length(u32)
    [8:16]   epoch       (u64, monotonically increasing per PUT)
    [16:20]  value CRC32 (u32, checksum of the value bytes)
    [20:24]  segment     (u32, object-segment index of the value)
    [24:..]  key bytes   (zero-padded to ``key_capacity``)

Bytes 4..24 are everything an UPDATE or a migration changes, so moving a
key's value is *one* in-place write of those 20 bytes (``tx_move``).
Records never cross a segment boundary (each metadata segment holds
``segment_size // record_size`` of them), so a record write is a single
in-segment write the pool's undo-log transactions make failure-atomic.

The validity flag is the paper's Algorithm 2 flag bit made real: DELETE
resets a *persisted* bit, and recovery rebuilds the index, validity map and
Dynamic Address Pool purely from a catalog scan.

The value CRC32 is the store's end-to-end integrity contract: it is
published in the same write as the segment index, after the value bytes
reached that (until then free) segment, so record and value can never
disagree after recovery; every GET and the recovery scan verify it, which
is what lets the read path *detect* drift instead of serving garbage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from repro.pmem.pool import PersistentPool

_FIXED = struct.Struct("<BBH")  # flags, version, key_len
_MUTABLE = struct.Struct("<IQII")  # value_len, epoch, value_crc32, segment
_RECORD = struct.Struct(_FIXED.format + _MUTABLE.format[1:])
_FLAG_VALID = 0x01
_VERSION = 1

#: Default key capacity; records are then 64 B, exactly the 64 B segments
#: used throughout the test/benchmark geometry.
DEFAULT_KEY_CAPACITY = 40


class CatalogLayoutError(ValueError):
    """A live record carries a layout version this code cannot parse."""


@dataclass(frozen=True)
class CatalogEntry:
    """One decoded live record of the persistent catalog."""

    record: int
    segment: int
    key: bytes
    value_len: int
    epoch: int
    crc: int = 0


class PersistentCatalog:
    """Fixed-size record table over a pool's reserved metadata region.

    Args:
        pool: the :class:`PersistentPool` whose object segments the catalog
            describes; its ``meta_segments`` must cover one record per
            object segment — the most keys that can be live at once (size
            the pool with :meth:`meta_segments_for`).
        key_capacity: maximum key length the records can hold.
    """

    #: Record bytes an UPDATE rewrites, hence undo-logs (INSERT: 1, the flag).
    MUTABLE_BYTES = _MUTABLE.size

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
        self.n_records = pool.capacity_objects
        needed = self.segments_needed(
            self.n_records, pool.segment_size, key_capacity
        )
        if pool.meta_segments < needed:
            raise ValueError(
                f"pool reserves {pool.meta_segments} metadata segments but "
                f"the catalog needs {needed} for {self.n_records} objects"
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

    def record_address(self, record: int) -> int:
        """Media byte address of record id ``record``."""
        if not 0 <= record < self.n_records:
            raise IndexError(f"catalog record {record} out of range")
        segment, offset = divmod(record, self.records_per_segment)
        return self.pool.meta_address(segment) + offset * self.record_size

    # ----------------------------------------------------------- mutations

    def format(self) -> None:
        """Zero the whole metadata region (every record invalid).

        Call once when creating a store on fresh media; formatting is a
        plain bulk write, not a transaction.
        """
        pool = self.pool
        pool.controller.write_many(
            [pool.meta_address(i) for i in range(pool.meta_segments)],
            [b"\x00" * pool.segment_size] * pool.meta_segments,
        )

    def _mutable(self, segment: int, value_len: int, epoch: int, crc: int):
        """The 20 record bytes that describe the current value."""
        if not 0 < value_len <= self.pool.segment_size:
            raise ValueError(f"value length {value_len} out of range")
        return _MUTABLE.pack(value_len, epoch, crc & 0xFFFFFFFF, segment)

    def tx_set(
        self, tx, record: int, segment: int, key: bytes, value_len: int,
        epoch: int, crc: int = 0,
    ) -> None:
        """Transactionally write a full live record — a key's INSERT —
        onto the *free* (flag clear) id ``record``, naming the object
        segment that already holds the value.  Only the flag is undo-
        logged: it is byte 0, so a record torn at any byte rolls back to
        "invalid", and whatever sits behind a clear flag is dead metadata.
        """
        if len(key) > self.key_capacity:
            raise ValueError(
                f"key of {len(key)} bytes exceeds catalog key capacity "
                f"{self.key_capacity}"
            )
        data = (
            _FIXED.pack(_FLAG_VALID, _VERSION, len(key))
            + self._mutable(segment, value_len, epoch, crc)
            + key.ljust(self.key_capacity, b"\x00")
        )
        tx.write(self.record_address(record), data, undo_len=1)

    def tx_clear(self, tx, record: int) -> None:
        """Transactionally reset the validity flag of ``record`` (Algorithm
        2: one persisted bit; the rest of the record becomes dead metadata)."""
        tx.write(self.record_address(record), b"\x00")

    def tx_move(
        self, tx, record: int, segment: int, value_len: int, epoch: int,
        crc: int = 0,
    ) -> None:
        """Transactionally point live ``record`` at a new value — the
        catalog half of an UPDATE and of every migration (relocation,
        wear-leveling swap, rebalance copy): one in-place write of the 20
        mutable bytes; a crash leaves the key its old value or its new."""
        tx.write(
            self.record_address(record) + _FIXED.size,
            self._mutable(segment, value_len, epoch, crc),
        )

    # --------------------------------------------------------------- reads

    def read(self, record: int) -> CatalogEntry | None:
        """Decode ``record``; ``None`` when invalid or garbage, and a
        :class:`CatalogLayoutError` for a live record of another layout.
        The segment index is returned as found: range and uniqueness are
        the caller's checks (recovery drops, fsck reports)."""
        raw = self.pool.read(self.record_address(record), self.record_size)
        (flags, version, key_len, value_len, epoch, crc,
         segment) = _RECORD.unpack_from(raw)
        if flags != _FLAG_VALID:
            return None
        if version != _VERSION:
            raise CatalogLayoutError(
                f"catalog record {record} has layout version {version}: "
                "segment-indexed catalog written before PR 22; recreate "
                "the store"
            )
        if key_len == 0 or key_len > self.key_capacity:
            return None
        if value_len == 0 or value_len > self.pool.segment_size:
            return None
        key = raw[_RECORD.size : _RECORD.size + key_len]
        return CatalogEntry(record=record, segment=segment, key=key,
                            value_len=value_len, epoch=epoch, crc=crc)

    def scan(self):
        """Yield every live :class:`CatalogEntry`, in record-id order."""
        for record in range(self.n_records):
            entry = self.read(record)
            if entry is not None:
                yield entry
