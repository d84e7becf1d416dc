"""Persistent object pool over the simulated device (``pmemobj`` style).

Layout of the reserved log region (the pool's first ``log_segments``
segments)::

    [bytes 0..7]     sequence number of the transaction the log belongs to
                     (big-endian)
    [byte 8]         active flag (1 = a transaction's undo log is live)
    [bytes 9..15]    reserved, zero
    [bytes 16..]     undo records, one contiguous run per transaction:
                     [addr: 8B][length: 4B][old data: length B][crc32: 4B]
                     ... closed by a zeroed record header when room is left

The undo log holds one transaction at a time and transactions are *staged*
(see :mod:`repro.pmem.transaction`): commit writes the whole log in one
pass — header (sequence, raised flag), every undo record and the closing
record header, as one payload from byte 0, one row per log segment it
touches, row 0 first — then applies the in-place writes and clears the
flag (one byte).  A record's CRC32 covers the transaction's sequence
number, the record header and the old data, so a record torn at any byte
— and an intact record a *previous* transaction left at the same offset —
is never replayed.  :meth:`PersistentPool.recover` rolls back a
transaction that was active when the process died; it is idempotent, so a
crash *during* recovery is itself recoverable.

Why one pass is crash-safe.  A torn write persists a prefix of its bytes,
in address order, and

- the flag lands only after the full sequence, so a raised flag always
  names the transaction whose records follow it.  (With the flag in front
  of the sequence, a tear one byte in would raise it under the *previous*
  sequence, whose committed records still pass their CRC: recovery would
  roll back committed data.)
- nothing is written in place until every row of the payload is on the
  media, so a log torn anywhere — mid-header, mid-record, between rows —
  lies over untouched data, and replaying its intact records rewrites
  what is already there;
- recovery replays only records whose sequence-stamped CRC checks;
- the sequence is big-endian, so a tear inside it (flag still down)
  leaves a number no smaller than the last one used: the next
  transaction never reuses the sequence of records still in the log.

After the log the pool can reserve ``meta_segments`` further segments for
application metadata (the KV store keeps its persistent catalog there —
see :mod:`repro.pmem.catalog`); the remaining *object* segments are what
:meth:`alloc` hands out.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque

from repro.nvm.controller import MemoryController
from repro.nvm.health import SegmentRetiredError
from repro.pmem.transaction import Transaction
from repro.testing.faults import CrashError

#: The undo-log header at byte 0: ``(sequence, active flag)``.
LOG_HEADER = struct.Struct(">QB")
#: Offset of the active flag, behind every byte of the sequence.
LOG_FLAG_AT = LOG_HEADER.size - 1
#: Header plus reserved zero bytes; the record run starts here.
_LOG_HEADER_BYTES = 16
_RECORD_HEADER = struct.Struct("<QI")
_RECORD_CRC = struct.Struct("<I")


def log_active_flag(controller: MemoryController) -> int:
    """The log header's active-flag byte: 1 while a transaction's undo log
    is live, 0 when the log is logically empty, anything else damage."""
    return controller.read(LOG_FLAG_AT, 1)[0]


def iter_log_records(controller: MemoryController, log_segments: int):
    """Yield ``(addr, old_data)`` for every intact undo record of the
    transaction the log header names, in log order.

    The one parser of the log format — recovery, the abort path and the
    offline checker all read the log through it.  The scan ends at the
    first record whose framing or sequence-stamped CRC fails: the closing
    zero header, a torn tail, or a stale record of an earlier transaction.
    Whether the log is *active* is the caller's question
    (:func:`log_active_flag`).
    """
    size = controller.segment_size
    log = b"".join(
        controller.read(i * size, size) for i in range(log_segments)
    )
    stamp = log[:LOG_FLAG_AT]
    offset = _LOG_HEADER_BYTES
    while offset + _RECORD_HEADER.size + _RECORD_CRC.size <= len(log):
        addr, length = _RECORD_HEADER.unpack_from(log, offset)
        end = offset + _RECORD_HEADER.size + length
        if length == 0 or end + _RECORD_CRC.size > len(log):
            return
        body = log[offset:end]
        if _RECORD_CRC.unpack_from(log, end)[0] != zlib.crc32(stamp + body):
            return
        yield addr, body[_RECORD_HEADER.size :]
        offset = end + _RECORD_CRC.size


class PersistentPool:
    """Segment-granularity allocator plus crash-consistent transactions.

    Args:
        controller: the NVM front-end backing the pool.
        log_segments: segments reserved for the undo-log region.
        recover: scan the log on construction and roll back a transaction
            left active by a crash (see :meth:`recover`).
        meta_segments: segments reserved (after the log) for application
            metadata such as the KV store's persistent catalog; they are
            addressable through :meth:`read`/:meth:`write`/transactions but
            never handed out by :meth:`alloc`.
        faults: optional :class:`repro.testing.faults.FaultInjector`.  When
            set, the pool fires the ``"tx.begin"``, ``"tx.log"``,
            ``"tx.write"``, ``"tx.commit"`` and ``"recover.rollback"``
            sites; the write-capable ones (``tx.log`` — once per
            transaction, the whole log payload, header included —
            ``tx.write`` and ``recover.rollback``) support torn-write
            injection.
    """

    def __init__(
        self,
        controller: MemoryController,
        log_segments: int = 2,
        recover: bool = False,
        meta_segments: int = 0,
        faults=None,
    ) -> None:
        if log_segments < 1:
            raise ValueError("log_segments must be at least 1")
        if meta_segments < 0:
            raise ValueError("meta_segments must be non-negative")
        if log_segments + meta_segments >= controller.n_segments:
            raise ValueError("log_segments must leave allocatable space")
        self.controller = controller
        #: Object allocation granularity (the controller's, fixed here).
        self.segment_size = controller.segment_size
        self.log_segments = log_segments
        self.meta_segments = meta_segments
        self.faults = faults
        self._log_capacity = log_segments * controller.segment_size
        # Sequence number of the last transaction; read off the media by
        # the first commit (the log header is its only durable home).
        self._sequence: int | None = None
        self._tx_active = False
        self._free: deque[int] = deque(
            controller.segment_address(i)
            for i in range(self.object_start_segment, controller.n_segments)
        )
        # Companion set for O(1) membership/removal; the deque preserves
        # FIFO hand-out order and is cleaned lazily in :meth:`alloc`.
        self._free_set: set[int] = set(self._free)
        self._allocated: set[int] = set()
        self._retired: set[int] = set()
        self.recovered_records = 0
        if recover:
            self.recover()

    @property
    def object_start_segment(self) -> int:
        """Index of the first object segment (after log + metadata)."""
        return self.log_segments + self.meta_segments

    @property
    def capacity_objects(self) -> int:
        """Total allocatable segments in the pool."""
        return self.controller.n_segments - self.object_start_segment

    @property
    def log_capacity_bytes(self) -> int:
        """Undo-record bytes one transaction may log (header excluded)."""
        return self._log_capacity - _LOG_HEADER_BYTES

    @staticmethod
    def record_overhead_bytes() -> int:
        """Log bytes one transactional write of ``n`` bytes costs, minus
        ``n`` (record header + checksum)."""
        return _RECORD_HEADER.size + _RECORD_CRC.size

    def meta_address(self, index: int) -> int:
        """Byte address of reserved metadata segment ``index``."""
        if not 0 <= index < self.meta_segments:
            raise IndexError(f"metadata segment {index} out of range")
        return (self.log_segments + index) * self.segment_size

    def object_address(self, index: int) -> int:
        """Byte address of object segment ``index`` (0-based)."""
        if not 0 <= index < self.capacity_objects:
            raise IndexError(f"object segment {index} out of range")
        return (self.object_start_segment + index) * self.segment_size

    def object_index(self, addr: int) -> int:
        """Object-segment index of address ``addr`` (inverse of
        :meth:`object_address`)."""
        self._check_object_address(addr)
        return addr // self.segment_size - self.object_start_segment

    def alloc(self) -> int:
        """Claim one object segment; returns its address.

        Raises:
            RuntimeError: when the pool is exhausted.
        """
        while self._free:
            addr = self._free.popleft()
            if addr in self._free_set:  # skip entries removed out of band
                self._free_set.discard(addr)
                self._allocated.add(addr)
                return addr
        raise RuntimeError("persistent pool is out of space")

    def free(self, addr: int) -> None:
        """Return an object segment to the pool.

        Raises:
            ValueError: when ``addr`` is not an object segment of this pool
                (log/metadata region, unaligned, or out of range).
            KeyError: on a double free (the segment is already free).
        """
        if addr not in self._allocated:
            self._check_object_address(addr)
            if addr in self._free_set:
                raise KeyError(
                    f"double free: address {addr} is already free in this pool"
                )
            raise KeyError(f"address {addr} is not allocated from this pool")
        self._allocated.discard(addr)
        self._free.append(addr)
        self._free_set.add(addr)

    def retire(self, addr: int) -> None:
        """Permanently pull an object segment out of circulation (its media
        exhausted verify-after-write's ECP capacity).  Accepts the address
        whether currently free or allocated; idempotent."""
        self._check_object_address(addr)
        self._free_set.discard(addr)
        self._allocated.discard(addr)
        self._retired.add(addr)

    def retired_addresses(self) -> set[int]:
        """Every object address retired from this pool."""
        return set(self._retired)

    def mark_allocated(self, addr: int) -> None:
        """Re-register an address as live after recovery (allocator state is
        DRAM-resident; the application re-derives it from the persistent
        catalog or its own index).  O(1) per call."""
        if addr in self._allocated:
            return
        if addr not in self._free_set:
            raise KeyError(f"address {addr} is not a pool segment")
        self._free_set.discard(addr)
        self._allocated.add(addr)

    def free_addresses(self) -> list[int]:
        """Every free object address, in hand-out order."""
        return [a for a in self._free if a in self._free_set]

    def allocated_addresses(self) -> set[int]:
        """Every currently allocated object address."""
        return set(self._allocated)

    def read(self, addr: int, length: int) -> bytes:
        """Direct (non-transactional) read."""
        return self.controller.read(addr, length)

    def write(self, addr: int, data: bytes) -> None:
        """Direct (non-transactional, non-failure-atomic) write."""
        self.controller.write(addr, data)

    def transaction(self) -> Transaction:
        """Begin an undo-log transaction::

            with pool.transaction() as tx:
                tx.write(addr, new_bytes)
        """
        return Transaction(self)

    def format(self) -> None:
        """Initialise the log header on fresh media: sequence 0, flag
        down, reserved bytes zero (one write).

        A brand-new (or randomly filled) device may carry a garbage active
        flag; formatting clears it so the first :meth:`recover` does not
        replay noise.  Call once when *creating* a pool on new media, never
        when re-opening existing data.
        """
        self.controller.write(0, bytes(_LOG_HEADER_BYTES))
        self._sequence = 0
        self._tx_active = False

    # ---------------------------------------------------------------- crash

    def recover(self) -> int:
        """Roll back a transaction left active by a crash.

        If the log's active flag is set, every *intact* undo record of the
        transaction the header names (see :func:`iter_log_records`) is
        replayed in reverse order, then the flag is cleared.  Returns the
        number of records rolled back.

        Idempotent: the active flag is cleared only after every record has
        been replayed, so a crash mid-recovery (even one tearing a rollback
        write) is repaired by simply recovering again.
        """
        self.recovered_records = 0
        self._tx_active = False
        if log_active_flag(self.controller) != 1:
            return 0
        self.recovered_records = self._log_rollback()
        return self.recovered_records

    # ------------------------------------------------- log-region internals

    def _fire(self, site: str, **kwargs) -> None:
        """Hit a fault site when an injector is attached."""
        if self.faults is not None:
            self.faults.fire(site, **kwargs)

    def _log_begin(self) -> None:
        """TX_BEGIN: claim the (single) undo log.  Nothing touches the
        media until commit."""
        if self._tx_active:
            raise RuntimeError(
                "a transaction is already active on this pool; the undo log "
                "holds one transaction at a time"
            )
        self._fire("tx.begin")
        self._tx_active = True

    def _log_commit(self, writes: list[tuple[int, bytes, int]]) -> None:
        """TX_COMMIT of the staged ``(addr, data, undo_len)`` writes: the
        log payload (header with the flag raised, then an undo record of
        the leading ``undo_len`` old bytes of each range), the in-place
        writes, the flag clear — in that order.

        Nothing is written in place before every row of the payload is on
        the media, so a crash at any point either finds an inactive log
        over untouched data or an active log that undoes every in-place
        write (the module docstring says why a torn payload is safe).  A
        non-crash failure rolls the transaction back here.
        """
        if not writes:
            self._fire("tx.commit")
            self._tx_active = False
            return
        controller = self.controller
        persisting = applying = False
        try:
            if self._sequence is None:
                self._sequence = LOG_HEADER.unpack(
                    controller.read(0, LOG_HEADER.size)
                )[0]
            self._sequence = (self._sequence + 1) & 0xFFFFFFFFFFFFFFFF
            header = LOG_HEADER.pack(self._sequence, 1)
            stamp = header[:LOG_FLAG_AT]
            addrs, data, undo_lens = zip(*writes)
            payload = bytearray(header.ljust(_LOG_HEADER_BYTES, b"\0"))
            for addr, old in zip(
                addrs, controller.read_many(addrs, undo_lens)
            ):
                body = _RECORD_HEADER.pack(addr, len(old)) + old
                payload += body + _RECORD_CRC.pack(zlib.crc32(stamp + body))
            # A zeroed header closes the run: whatever an earlier
            # transaction left behind it is unreachable even if it carries
            # this sequence number.
            room = self._log_capacity - len(payload)
            payload = bytes(payload) + bytes(min(room, _RECORD_HEADER.size))
            self._fire(
                "tx.log",
                payload_len=len(payload),
                payload_writer=lambda n: self._log_persist(payload[:n], True),
            )
            persisting = True
            self._log_persist(payload)
            applying = True
            for addr, new in zip(addrs, data):
                self._fire(
                    "tx.write",
                    payload_len=len(new),
                    payload_writer=lambda n, a=addr, d=new: (
                        controller.torn_program(a, d[:n])
                    ),
                )
            controller.write_many(addrs, data)
            self._fire("tx.commit")
        except CrashError:
            raise
        except BaseException:
            # Also KeyboardInterrupt/SystemExit.  Once in-place writes may
            # have begun, the log undoes them.  While the payload was being
            # written nothing was written in place, so lowering the flag
            # its first row may have raised is enough — and replaying would
            # be wrong: had row 0 not landed, the header would still name
            # the *previous* transaction, whose records pass their CRC.
            if applying:
                self._log_rollback()
            elif persisting:
                self._log_finish()
            self._tx_active = False
            raise
        self._log_finish()

    def _log_persist(self, payload: bytes, torn: bool = False) -> None:
        """Write the log payload from byte 0, one row per log segment it
        touches, row 0 (the header's) first (``torn``: through the
        crash-interrupted program path, which needs no live controller
        afterwards)."""
        seg = self.controller.segment_size
        offsets = range(0, len(payload), seg)
        chunks = [payload[offset : offset + seg] for offset in offsets]
        if torn:
            for offset, chunk in zip(offsets, chunks):
                self.controller.torn_program(offset, chunk)
        else:
            self.controller.write_many(offsets, chunks)

    def _log_rollback(self) -> int:
        """Replay the logged transaction's records in reverse (the
        ``recover.rollback`` site fires per record) and clear the flag;
        returns the record count."""
        records = list(iter_log_records(self.controller, self.log_segments))
        for addr, old in reversed(records):
            self._fire(
                "recover.rollback",
                payload_len=len(old),
                payload_writer=lambda n, a=addr, o=old: (
                    self.controller.torn_program(a, o[:n])
                ),
            )
            try:
                self.controller.write(addr, old)
            except SegmentRetiredError:
                # The rollback write itself exhausted the segment: it was
                # restoring a not-yet-committed value onto dying media.
                # Retirement already bars the segment from placement; the
                # rollback stays best-effort for it.
                pass
        self._log_finish()
        return len(records)

    def _log_finish(self) -> None:
        """Clear the active flag; the log is logically empty."""
        self.controller.write(LOG_FLAG_AT, b"\x00")
        self._tx_active = False

    def _check_object_address(self, addr: int) -> None:
        """Reject addresses that are not object segments of this pool."""
        start = self.object_start_segment * self.segment_size
        end = self.controller.n_segments * self.segment_size
        if addr % self.segment_size:
            raise ValueError(
                f"address {addr} is not segment-aligned "
                f"(segment size {self.segment_size})"
            )
        if not start <= addr < end:
            region = "log" if addr < self.log_segments * self.segment_size \
                else "metadata" if addr < start else "out-of-range"
            raise ValueError(
                f"address {addr} is in the pool's {region} region, not an "
                f"object segment (objects start at {start})"
            )
