"""Persistent per-key catalog: the media-resident store descriptor.

One fixed-size record per *live key* lives in the pool's reserved metadata
region, so the media alone describes the KV store.  A record id is claimed
at the key's first insert, kept for the key's life and released by DELETE;
the record *names* the object segment that holds the value.  It keeps its
key once and two self-checking *slots*, each one version of the value::

    [0:22]          slot A
    [22]            layout version (2)
    [23]            key length
    [24:24+K]       key bytes, zero-padded to ``key_capacity`` (K)
    [24+K:46+K]     slot B

    slot = [epoch << 16 | index: u64][value length: u16][segment: u32]
           [value CRC32: u32][slot CRC32: u32]

``epoch`` is the first epoch of the batch that wrote the slot and
``index`` the pair's position in it (the pair's own epoch is their sum);
value length 0 is a *tombstone* (a DELETE).  A value slot's CRC covers
the slot's first 18 bytes and the version, key length and key, so it is
valid only together with the key it was written for.  A tombstone's CRC
covers its first 18 bytes alone: an INSERT into the freed record
rewrites the key, and the DELETE must stay valid until the INSERT's own
slot is whole.  Epoch 0 is never written: a zeroed slot is the invalid
one.

Every mutation writes the record's *non-newest* slot and never touches
the newest, so the previous version survives any tear (see
:meth:`PersistentCatalog.resolve` for the recovery rule, and DESIGN.md,
"A log-free commit", for why it is exact):

- an UPDATE or a migration (``tx_move``) writes one 22-B slot;
- an INSERT (``tx_set``) writes the key and the slot in one row — slot A
  plus header plus key, or header plus key plus slot B;
- a DELETE (``tx_clear``) writes a tombstone slot.

Records never cross a segment boundary (each metadata segment holds
``segment_size // record_size`` of them), so every row is one in-segment
controller write.  The value CRC32 is the store's end-to-end integrity
contract: it is published in the same slot as the segment index, after
the value bytes reached that (until then free) segment, so slot and
value can never disagree after recovery; every GET and the recovery scan
verify it.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.pmem.pool import PersistentPool

#: ``(epoch << 16 | index, value length, segment, value CRC32)`` plus the
#: slot CRC32 behind them.
_SLOT = struct.Struct("<QHIII")
_SLOT_BODY = _SLOT.size - 4
_HEADER = struct.Struct("<BB")  # layout version, key length
_KEY_AT = _SLOT.size + _HEADER.size
_VERSION = 2
#: Pairs one batch can number (its index is 16 bits).
MAX_BATCH = 0xFFFF
_EPOCHS = 1 << 48

#: Default key capacity: 16-B keys (YCSB's ``user%012d``) fill a 64-B
#: segment with one 62-B record.
DEFAULT_KEY_CAPACITY = 16


class CatalogLayoutError(ValueError):
    """A record carries a layout version this code cannot parse."""


@dataclass(frozen=True)
class CatalogEntry:
    """One decoded live record of the persistent catalog."""

    record: int
    segment: int
    key: bytes
    value_len: int
    epoch: int
    crc: int = 0


class _Version(NamedTuple):
    """One valid slot as read: which slot (0 = A, 1 = B) of its record,
    the pair's epoch, its batch's first epoch, its index in the batch
    and the value it names (``value_len`` 0: a tombstone)."""

    slot: int
    epoch: int
    batch: int
    index: int
    value_len: int
    segment: int
    crc: int


@dataclass(frozen=True)
class Resolution:
    """What :meth:`PersistentCatalog.resolve` reads off the media."""

    #: Live records, in record-id order.
    entries: list[CatalogEntry]
    #: ``(record, slot)`` of the interrupted batch's slots past its first
    #: missing index: recovery zeroes them.
    dropped: list[tuple[int, int]]
    #: Per record id, the slot its next write goes to: the one that is
    #: not its newest (tombstones count).
    targets: bytearray
    #: Highest pair epoch of any valid slot, dropped ones included.
    max_epoch: int


class PersistentCatalog:
    """Fixed-size record table over a pool's reserved metadata region.

    Args:
        pool: the :class:`PersistentPool` whose object segments the catalog
            describes; its ``meta_segments`` must cover one record per
            object segment — the most keys that can be live at once (size
            the pool with :meth:`meta_segments_for`).
        key_capacity: maximum key length the records can hold.
    """

    def __init__(
        self, pool: PersistentPool, key_capacity: int = DEFAULT_KEY_CAPACITY
    ) -> None:
        if not 0 < key_capacity <= 0xFF:
            raise ValueError("key_capacity must be in 1..255")
        if pool.segment_size > 0xFFFF:
            raise ValueError("a slot's value length is 16 bits")
        self.pool = pool
        self.key_capacity = key_capacity
        self.record_size = self.record_bytes(key_capacity)
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
        # The slot the next write of each record goes to (the non-newest).
        self._target = bytearray(self.n_records)

    # ------------------------------------------------------------- geometry

    @staticmethod
    def record_bytes(key_capacity: int) -> int:
        """Bytes of one record: two slots, the header and the key."""
        return 2 * _SLOT.size + _HEADER.size + key_capacity

    @classmethod
    def segments_needed(
        cls, n_objects: int, segment_size: int, key_capacity: int
    ) -> int:
        """Metadata segments required to catalogue ``n_objects`` segments."""
        record = cls.record_bytes(key_capacity)
        if record > segment_size:
            raise ValueError(
                f"catalog record of {record} B (two {_SLOT.size}-B slots, "
                f"{_HEADER.size} header bytes and the key) exceeds the "
                f"{segment_size}-B segment; key_capacity "
                f"{segment_size - record + key_capacity} or less fits"
            )
        return -(-n_objects // (segment_size // record))

    @classmethod
    def meta_segments_for(
        cls,
        n_segments: int,
        segment_size: int,
        key_capacity: int = DEFAULT_KEY_CAPACITY,
    ) -> int:
        """Solve the circular sizing: metadata segments to reserve on a
        device of ``n_segments`` so every remaining object segment has a
        catalog record."""
        for meta in range(1, n_segments):
            objects = n_segments - meta
            if cls.segments_needed(objects, segment_size, key_capacity) <= meta:
                return meta
        raise ValueError("device too small to hold a catalog")

    @classmethod
    def immortal_metadata(
        cls,
        model,
        n_segments: int,
        segment_size: int,
        key_capacity: int = DEFAULT_KEY_CAPACITY,
    ):
        """``model`` — a ``WearOutConfig``/``DriftConfig`` or ``None`` —
        with the catalog prefix made immortal, unless the caller chose a
        prefix themselves.

        The region models over-provisioned metadata media, so durable
        stores on mortal media keep it out of the endurance and retention
        models and fsck stays authoritative.
        """
        if model is None or model.immortal_prefix_segments:
            return model
        meta = cls.meta_segments_for(n_segments, segment_size, key_capacity)
        return replace(model, immortal_prefix_segments=meta)

    def record_address(self, record: int) -> int:
        """Media byte address of record id ``record``."""
        if not 0 <= record < self.n_records:
            raise IndexError(f"catalog record {record} out of range")
        segment, offset = divmod(record, self.records_per_segment)
        return self.pool.meta_address(segment) + offset * self.record_size

    def slot_address(self, record: int, slot: int) -> int:
        """Media byte address of slot ``slot`` (0 = A, 1 = B) of
        ``record``."""
        return self.record_address(record) + slot * (
            _KEY_AT + self.key_capacity
        )

    # ----------------------------------------------------------- mutations

    def format(self) -> None:
        """Zero the whole metadata region (every slot invalid).

        Call once when creating a store on fresh media; formatting is a
        plain bulk write.
        """
        pool = self.pool
        pool.controller.write_many(
            [pool.meta_address(i) for i in range(pool.meta_segments)],
            [b"\x00" * pool.segment_size] * pool.meta_segments,
        )
        self._target = bytearray(self.n_records)

    def _slot(
        self, header: bytes, segment: int, value_len: int, epoch: int,
        index: int, crc: int,
    ) -> bytes:
        """A slot for the record whose version, key length and key are
        ``header`` (``b""`` for a tombstone: it checks itself alone)."""
        if not 0 < epoch < _EPOCHS or not 0 <= index <= MAX_BATCH:
            raise ValueError(f"epoch {epoch} / index {index} out of range")
        body = _SLOT.pack(
            epoch << 16 | index, value_len, segment, crc & 0xFFFFFFFF, 0
        )[:_SLOT_BODY]
        return body + struct.pack("<I", zlib.crc32(body + header))

    def _header(self, key: bytes) -> bytes:
        return _HEADER.pack(_VERSION, len(key)) + key

    def tx_set(
        self, tx, record: int, segment: int, key: bytes, value_len: int,
        epoch: int, index: int, crc: int,
    ) -> int:
        """Stage a key's INSERT onto the *free* record id ``record``,
        naming the object segment that already holds the value: the key
        and the non-newest slot in one row.  Returns the slot written."""
        if len(key) > self.key_capacity:
            raise ValueError(
                f"key of {len(key)} bytes exceeds catalog key capacity "
                f"{self.key_capacity}"
            )
        if not 0 < value_len <= self.pool.segment_size:
            raise ValueError(f"value length {value_len} out of range")
        slot = self._target[record]
        header = self._header(key)
        data = self._slot(header, segment, value_len, epoch, index, crc)
        padded = header.ljust(_HEADER.size + self.key_capacity, b"\x00")
        at = self.record_address(record)
        if slot:
            tx.write(at + _SLOT.size, padded + data)
        else:
            tx.write(at, data + padded)
        return slot

    def tx_move(
        self, tx, record: int, key: bytes, segment: int, value_len: int,
        epoch: int, index: int, crc: int,
    ) -> int:
        """Stage pointing live ``record`` (holding ``key``) at a new value
        — the catalog half of an UPDATE and of every migration
        (relocation, wear-leveling swap, rebalance copy): one write of
        the non-newest slot.  Returns the slot written."""
        if not 0 < value_len <= self.pool.segment_size:
            raise ValueError(f"value length {value_len} out of range")
        slot = self._target[record]
        tx.write(
            self.slot_address(record, slot),
            self._slot(
                self._header(key), segment, value_len, epoch, index, crc
            ),
        )
        return slot

    def tx_clear(self, tx, record: int, epoch: int) -> int:
        """Stage a DELETE of live ``record``: a tombstone in the non-newest
        slot, a batch of its own (Algorithm 2's persisted flag, as a
        version).  Returns the slot written."""
        slot = self._target[record]
        tx.write(
            self.slot_address(record, slot),
            self._slot(b"", 0, 0, epoch, 0, 0),
        )
        return slot

    def published(self, slots) -> None:
        """Record that the ``(record, slot)`` writes of a commit landed:
        each becomes its record's newest slot."""
        for record, slot in slots:
            self._target[record] = 1 - slot

    def invalidate(self, slots) -> None:
        """Zero each ``(record, slot)`` on the media: one row per slot in
        one ``write_many``, the ``catalog.invalidate`` site per row."""
        if slots:
            self.pool.commit(
                [self.slot_address(record, slot) for record, slot in slots],
                [bytes(_SLOT.size)] * len(slots),
                "catalog.invalidate",
            )

    # --------------------------------------------------------------- reads

    def _versions(self, record: int, raw: bytes):
        """``(key, valid versions)`` of ``record``'s bytes ``raw``."""
        version, key_len = _HEADER.unpack_from(raw, _SLOT.size)
        if version not in (0, _VERSION):
            raise CatalogLayoutError(
                f"catalog record {record} has layout version {version}: "
                "written before the two-slot layout; recreate the store"
            )
        if not 0 < key_len <= self.key_capacity:
            return b"", []
        header = raw[_SLOT.size : _KEY_AT + key_len]
        versions = []
        for slot, at in enumerate((0, _KEY_AT + self.key_capacity)):
            stamp, value_len, segment, crc, check = _SLOT.unpack_from(raw, at)
            body = raw[at : at + _SLOT_BODY]
            # A tombstone checks itself alone (the module docstring).
            checked = body + header if value_len else body
            if (
                stamp >> 16
                and check == zlib.crc32(checked)
                and value_len <= self.pool.segment_size
            ):
                batch, index = stamp >> 16, stamp & 0xFFFF
                versions.append(_Version(
                    slot, batch + index, batch, index, value_len, segment, crc
                ))
        return raw[_KEY_AT : _KEY_AT + key_len], versions

    @staticmethod
    def _entry(record: int, key: bytes, version: _Version):
        """The live entry ``version`` describes; ``None`` for a tombstone."""
        if not version.value_len:
            return None
        return CatalogEntry(
            record=record, segment=version.segment, key=key,
            value_len=version.value_len, epoch=version.epoch,
            crc=version.crc,
        )

    def resolve(self) -> Resolution:
        """Read every record and apply the recovery rule, writing nothing.

        Among the valid slots, the newest batch (highest batch epoch)
        keeps its slots only up to its first missing index: a crash
        mid-commit may land any subset of a batch's rows, and this keeps
        the longest batch-order prefix.  Each record then takes its newer
        remaining slot; a tombstone or no slot at all leaves it free.
        """
        n = self.n_records
        raws = self.pool.controller.read_many(
            [self.record_address(r) for r in range(n)], [self.record_size] * n
        )
        decoded = [self._versions(r, raw) for r, raw in enumerate(raws)]
        dropped = self._past_the_gap(decoded)
        entries = []
        targets = bytearray(n)
        for record, (key, versions) in enumerate(decoded):
            kept = [v for v in versions if (record, v.slot) not in dropped]
            if kept:
                newest = max(kept, key=lambda v: v.epoch)
                targets[record] = 1 - newest.slot
                entry = self._entry(record, key, newest)
                if entry is not None:
                    entries.append(entry)
        max_epoch = max(
            (v.epoch for _, versions in decoded for v in versions), default=0
        )
        return Resolution(entries, sorted(dropped), targets, max_epoch)

    @staticmethod
    def _past_the_gap(decoded) -> set[tuple[int, int]]:
        """``(record, slot)`` of the newest batch's valid slots from its
        first missing index on (``decoded``: per record id, what
        :meth:`_versions` returns)."""
        batch: dict[int, tuple[int, int]] = {}
        newest = 0
        for record, (_, versions) in enumerate(decoded):
            for v in versions:
                if v.batch > newest:
                    newest, batch = v.batch, {}
                if v.batch == newest:
                    batch[v.index] = (record, v.slot)
        gap = 0
        while gap in batch:
            gap += 1
        return {at for index, at in batch.items() if index > gap}

    def recover(self) -> Resolution:
        """:meth:`resolve`, then zero the dropped slots on the media so no
        later recovery — once newer batches exist — can bring them back.
        Idempotent: a crash mid-invalidation leaves the same newest batch
        and the same gap."""
        resolution = self.resolve()
        self.invalidate(resolution.dropped)
        self._target = resolution.targets
        return resolution

    def read(self, record: int) -> CatalogEntry | None:
        """The live version of ``record`` by its own two slots (no batch
        trimming: that is :meth:`resolve`'s); ``None`` when free."""
        raw = self.pool.read(self.record_address(record), self.record_size)
        key, versions = self._versions(record, raw)
        if not versions:
            return None
        return self._entry(record, key, max(versions, key=lambda v: v.epoch))

    def scan(self):
        """Yield every live :class:`CatalogEntry`, in record-id order."""
        yield from self.resolve().entries
