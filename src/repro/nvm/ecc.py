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

Entries live in DRAM dictionaries here, but logically they model a
per-segment media-resident table; :meth:`NVMDevice.save`/``load``
round-trip them with the rest of the wear-out state.
"""

from __future__ import annotations

import numpy as np


class ErrorCorrectingPointers:
    """Per-segment stuck-cell substitution entries.

    Args:
        segment_size: segment size in bytes (entries index bits within one
            segment: ``0 .. segment_size * 8 - 1``, MSB-first to match
            ``np.unpackbits``).
        entries_per_segment: correction capacity per segment; exceeding it
            means the segment has failed and must be retired.
    """

    def __init__(self, segment_size: int, entries_per_segment: int = 6) -> None:
        if segment_size <= 0:
            raise ValueError("segment_size must be positive")
        if entries_per_segment < 1:
            raise ValueError("entries_per_segment must be at least 1")
        self.segment_size = segment_size
        self.entries_per_segment = entries_per_segment
        # segment index -> {bit offset within segment: replacement bit}
        self._entries: dict[int, dict[int, int]] = {}

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
        entries = self._entries.get(segment)
        if not entries:
            return data
        out = None
        for bit_off, value in entries.items():
            byte = bit_off // 8 - offset
            if not 0 <= byte < data.shape[-1]:
                continue
            if out is None:
                out = data.copy()
            bit = np.uint8(0x80 >> (bit_off % 8))
            if value:
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
        entries = self._entries.setdefault(segment, {})
        fresh = [int(b) for b in bit_offsets if int(b) not in entries]
        if len(entries) + len(fresh) > self.entries_per_segment:
            if not entries:
                del self._entries[segment]
            return False
        for bit_off, value in zip(bit_offsets, bit_values):
            entries[int(bit_off)] = int(value)
        return True

    # ------------------------------------------------------------ inspection

    def any_entries(self) -> bool:
        """Whether any segment holds a correction entry."""
        return bool(self._entries)

    def entries_used(self, segment: int) -> int:
        """Correction entries consumed by ``segment``."""
        return len(self._entries.get(segment, ()))

    def at_capacity(self, segment: int) -> bool:
        """Whether ``segment`` has no spare correction entries left."""
        return self.entries_used(segment) >= self.entries_per_segment

    @property
    def corrections_active(self) -> int:
        """Total correction entries across every segment."""
        return sum(len(e) for e in self._entries.values())

    # ----------------------------------------------------------- persistence

    def state_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten every entry to (segments, bit offsets, values) arrays."""
        segs, offs, vals = [], [], []
        for seg in sorted(self._entries):
            for bit_off in sorted(self._entries[seg]):
                segs.append(seg)
                offs.append(bit_off)
                vals.append(self._entries[seg][bit_off])
        return (
            np.asarray(segs, dtype=np.int64),
            np.asarray(offs, dtype=np.int64),
            np.asarray(vals, dtype=np.int64),
        )

    def restore_state(self, segments, offsets, values) -> None:
        """Reinstate :meth:`state_arrays` output, replacing current state."""
        self._entries = {}
        for seg, off, val in zip(segments, offsets, values):
            self._entries.setdefault(int(seg), {})[int(off)] = int(val)
