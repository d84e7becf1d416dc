"""Error-Correcting Pointers (ECP) for stuck-at cell substitution.

PCM cells fail *stuck-at*: after endurance exhaustion a cell permanently
holds its last value.  Because a stuck cell still reads deterministically,
the standard hardware answer is not parity but *substitution*: ECP
(Schechter et al., ISCA'10) pairs each memory line with a small table of
(cell pointer, replacement bit) entries; a read patches the pointed-at
positions with the stored replacement bits.

This module implements ECP at the simulator's segment granularity: every
physical segment owns up to ``entries_per_segment`` correction entries.  An
entry is *permanent* — it points at a dead cell, so it is never released,
only its replacement bit is updated when later writes change the data the
dead cell should hold.  When a write would need more entries than the
segment has left, the segment has failed; the caller (the memory
controller's verify-after-write path) retires it through the health
manager.

The table is a plane of the device's medium block, a row of slots per
segment filled left to right: ``(bit offset + 1) << 1 | replacement bit``,
0 when free, so one slot store commits one entry.
"""

from __future__ import annotations

import threading

import numpy as np


class ErrorCorrectingPointers:
    """Per-segment stuck-cell substitution entries.

    Args:
        segment_size: segment size in bytes (entries index bits within one
            segment: ``0 .. segment_size * 8 - 1``, MSB-first to match
            ``np.unpackbits``).
        table: the ``(n_segments, entries_per_segment)`` int32 slot plane
            (see the module docstring); its width is the correction
            capacity per segment, beyond which the segment has failed.
    """

    def __init__(self, segment_size: int, table: np.ndarray) -> None:
        if segment_size <= 0:
            raise ValueError("segment_size must be positive")
        if table.shape[1] < 1:
            raise ValueError("entries_per_segment must be at least 1")
        self.segment_size = segment_size
        self.entries_per_segment = table.shape[1]
        self._table = table
        # Entries in the whole table: the O(1) answer for the common case
        # of a medium with no dead cell yet.
        self._n_entries = int(np.count_nonzero(table))
        # A scrub round may verify a segment while a foreground write does:
        # slot picks and the count are read-modify-writes.
        self._lock = threading.Lock()

    # ------------------------------------------------------------- correction

    def correct(
        self, segment: int, data: np.ndarray, offset: int = 0
    ) -> np.ndarray:
        """Patch raw media ``data`` with the segment's correction entries.

        Args:
            segment: physical segment index the data was read from.
            data: raw ``uint8`` bytes straight off the media.
            offset: byte offset of ``data`` within the segment (sub-segment
                reads patch only the entries that fall inside the window).

        Returns ``data`` itself when no entry applies, otherwise a patched
        copy (the input array is never mutated).
        """
        if not self._n_entries or not self._table[segment, 0]:
            return data
        out = None
        for slot in self._table[segment].tolist():
            if not slot:
                break
            bit_off = (slot >> 1) - 1
            byte = bit_off // 8 - offset
            if not 0 <= byte < data.shape[-1]:
                continue
            if out is None:
                out = data.copy()
            bit = np.uint8(0x80 >> (bit_off % 8))
            if slot & 1:
                out[byte] |= bit
            else:
                out[byte] &= np.uint8(~bit & 0xFF)
        return data if out is None else out

    # --------------------------------------------------------------- updates

    def record(self, segment: int, bit_offsets, bit_values) -> bool:
        """Upsert correction entries for ``segment``, all-or-nothing.

        ``bit_offsets`` are bit positions within the segment whose media
        cells disagree with the intended data; ``bit_values`` are the bits
        they should read as.  Existing entries (already-known dead cells)
        are updated in place; new offsets consume fresh entries.

        Returns ``False`` — recording *nothing* — when the new offsets
        would push the segment past ``entries_per_segment``; the caller
        must then retire the segment.
        """
        row = self._table[segment]
        with self._lock:
            slot_of = {
                (slot >> 1) - 1: i
                for i, slot in enumerate(row.tolist()) if slot
            }
            used = len(slot_of)
            fresh = [int(b) for b in bit_offsets if int(b) not in slot_of]
            if used + len(fresh) > self.entries_per_segment:
                return False
            for bit_off, value in zip(bit_offsets, bit_values):
                slot = slot_of.setdefault(int(bit_off), len(slot_of))
                row[slot] = (int(bit_off) + 1) << 1 | int(value)
            self._n_entries += len(slot_of) - used
        return True

    # ------------------------------------------------------------ inspection

    def any_entries(self) -> bool:
        """Whether any segment holds a correction entry."""
        return self._n_entries > 0

    def entries_used(self, segment: int) -> int:
        """Correction entries consumed by ``segment``."""
        return int(np.count_nonzero(self._table[segment]))

    def at_capacity(self, segment: int) -> bool:
        """Whether ``segment`` has no spare correction entries left."""
        return self.entries_used(segment) >= self.entries_per_segment

    @property
    def corrections_active(self) -> int:
        """Total correction entries across every segment."""
        return self._n_entries

    # ----------------------------------------------------------- persistence

    def state_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry as (segments, bit offsets, values) int64 arrays,
        by segment, then bit offset (a snapshot's ``ecp_*`` keys)."""
        segments, slots = np.nonzero(self._table)
        entries = self._table[segments, slots].astype(np.int64)
        offsets = (entries >> 1) - 1
        order = np.lexsort((offsets, segments))
        return (
            segments[order].astype(np.int64), offsets[order],
            entries[order] & 1,
        )

    def restore_state(self, segments, offsets, values) -> None:
        """Reinstate :meth:`state_arrays` output, replacing current state."""
        self._table[:] = 0
        self._n_entries = 0
        for seg, off, val in zip(segments, offsets, values):
            if not self.record(int(seg), [off], [val]):
                raise ValueError(
                    f"segment {int(seg)} holds more ECP entries than its "
                    f"capacity of {self.entries_per_segment}"
                )
