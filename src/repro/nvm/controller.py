"""Memory controller: write scheme + wear leveling over the raw device.

The controller is the boundary the paper draws in Figure 3 between software
(E2-NVM, the data index) and hardware (the NVM device with its proprietary
wear leveling).  Every access flows through:

1. logical→physical segment remapping (wear leveling);
2. the configured write scheme (DCW by default — real Optane controllers
   perform data-comparison writes at cache-line granularity);
3. the raw media (:class:`repro.nvm.NVMDevice`).

Accesses must stay within one segment, which matches how the storage layer
above allocates: one value per fixed-size segment.

When the device models wear-out (see
:class:`~repro.nvm.device.WearOutConfig`), the controller additionally runs
**verify-after-write**: every programmed range is read back (the verify
read is accounted in energy/latency stats like any other read), corrected
through the device's ECP table, and compared against the intended content.
Mismatching bits — stuck cells the program pulse silently failed on — are
recorded as ECP correction entries; a write needing more entries than the
segment has left retires the segment through the health manager and raises
:class:`~repro.nvm.health.SegmentRetiredError` for the placement layer to
quarantine and retry.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

import numpy as np

from repro.baselines.base import WriteScheme
from repro.baselines.dcw import DCW
from repro.nvm.device import NVMDevice, WriteResult
from repro.nvm.health import HealthManager, SegmentRetiredError
from repro.nvm.wear_leveling import NoWearLeveling
from repro.util.bits import popcount_array


class MemoryController:
    """Front-end for all NVM accesses.

    Args:
        device: the raw simulated media.
        scheme: controller write scheme; defaults to :class:`DCW`.
        wear_leveling: segment remapping policy; defaults to none.

    Every write is read back and ECP-verified exactly when the device has
    a wear-out model.  Verification composes only with the identity
    wear-leveling policy: an active remapper would move segments out from
    under their ECP entries.
    """

    def __init__(
        self,
        device: NVMDevice,
        scheme: WriteScheme | None = None,
        wear_leveling=None,
    ) -> None:
        self.device = device
        self.scheme = scheme if scheme is not None else DCW()
        self.wear_leveling = wear_leveling or NoWearLeveling()
        self.wear_leveling.attach(device)
        # Immutable geometry, fixed here rather than re-derived through
        # the device and the wear leveler on every access.
        #: Placement granularity, forwarded from the device.
        self.segment_size = device.segment_size
        #: Logical segment count (wear leveling may reserve spares).
        self.n_segments = self.wear_leveling.logical_segments
        # The batched bodies serve the identity mapping only.
        self._identity = isinstance(self.wear_leveling, NoWearLeveling)
        # DCW stores the logical bytes as they are: nothing to decode.
        self._decodes = type(self.scheme).decode is not WriteScheme.decode
        self.verify_writes = device.wearout is not None
        if self.verify_writes and not self._identity:
            raise ValueError(
                "a wear-out device (verify-after-write) cannot be combined "
                "with active wear leveling: remapping would detach "
                "segments from their ECP entries"
            )
        self.ecc = device.ecc
        self.health_manager: HealthManager | None = (
            HealthManager(self) if self.verify_writes else None
        )
        self.verify_reads = 0
        self.corrections_recorded = 0

    @property
    def stats(self):
        """The device's cumulative activity counters."""
        return self.device.stats

    def write(self, logical_addr: int, data: bytes | np.ndarray) -> WriteResult:
        """Write ``data`` at ``logical_addr`` through the scheme.

        With verify-after-write enabled, the scheme plans against the
        *ECP-corrected* old content (so DCW never pulses a dead-but-
        corrected cell whose logical value already matches) and the
        programmed range is read back and verified; see :meth:`_verify`.

        Raises:
            SegmentRetiredError: verification needed more correction
                entries than the segment has left; the media write is
                void (stuck cells never change) and the caller must place
                the data elsewhere.
        """
        data = self._as_u8(data)
        phys_addr, segment = self._map(logical_addr, data.size)
        old_stored = self._corrected(
            phys_addr, self.device.read_array(phys_addr, data.size)
        )
        plan = self.scheme.prepare(logical_addr, old_stored, data)
        result = self.device.program(
            phys_addr, plan.stored, plan.program_mask, plan.aux_bits
        )
        if self.verify_writes:
            expected = self._intended(
                old_stored, plan.stored, plan.program_mask
            )
            readback = self.device.read_array(phys_addr, data.size)
            # The common case — every pulse took, no ECP entry anywhere —
            # is exactly the one :meth:`_verify` returns ``[]`` for.
            if (
                readback.tobytes() == expected.tobytes()
                and not self.ecc.any_entries()
            ):
                self.verify_reads += 1
            elif self._verify(
                np.array([phys_addr], dtype=np.int64),
                readback[None, :],
                expected[None, :],
            ):
                raise SegmentRetiredError(phys_addr // self.segment_size)
        self.wear_leveling.after_write(self.device, segment)
        return result

    @staticmethod
    def _intended(old_corrected, stored, masks):
        """What programming ``stored`` under ``masks`` over
        ``old_corrected`` must leave on the media (any shape)."""
        if masks is None:
            return stored
        return old_corrected ^ (masks & (old_corrected ^ stored))

    def _verify(self, phys, readback, expected) -> list[int]:
        """Patch the ``readback`` of just-programmed rows (the caller's
        one accounted read of the ``(B, L)`` batch) through the ECP table
        and compare it against the ``expected`` content (see
        :meth:`_intended`); record fresh correction entries for any cell
        the program pulse failed on.  Returns the rows whose segment had
        to be retired (every other row stays written and verified).

        Already-retired segments are exempt: a write onto one is
        best-effort (its surviving cells still hold their data) and must
        not cascade into further retirement errors.
        """
        readback = self._corrected_rows(phys, readback)
        self.verify_reads += len(phys)
        differs = readback != expected
        if not differs.any() and not self.ecc.any_entries():
            return []
        differs = differs.any(axis=1)
        size = self.segment_size
        dead = self.device.health.retired
        failed = []
        for row, phys_addr in enumerate(phys.tolist()):
            seg = phys_addr // size
            if seg in dead:
                continue
            if differs[row]:
                positions = np.flatnonzero(
                    np.unpackbits(readback[row] ^ expected[row])
                )
                if not self.ecc.record(
                    seg,
                    (phys_addr % size) * 8 + positions,
                    np.unpackbits(expected[row])[positions],
                ):
                    self.health_manager.retire(seg)
                    failed.append(row)
                    continue
                self.corrections_recorded += int(positions.size)
            if self.ecc.at_capacity(seg):
                self.health_manager.mark_retiring(seg)
        return failed

    def torn_program(self, logical_addr: int, data: bytes | np.ndarray) -> None:
        """Program ``data`` as a crash-interrupted write.

        The media pulses land (stuck cells silently keep their value), but
        nothing that needs the controller to stay alive afterwards runs: no
        verify read-back, no ECP recording, no retirement, no wear-leveling
        bookkeeping.  Torn-write fault injection uses this as its payload
        writer — routing a tear through :meth:`write` would let
        verify-after-write retire a segment *during* the simulated crash,
        swallowing the crash error and making the replay diverge.
        """
        data = self._as_u8(data)
        phys_addr, _ = self._map(logical_addr, data.size)
        old_stored = self.device.read_array(phys_addr, data.size)
        old_stored = self._corrected(phys_addr, old_stored)
        plan = self.scheme.prepare(logical_addr, old_stored, data)
        self.device.program(
            phys_addr, plan.stored, plan.program_mask, plan.aux_bits
        )

    def write_many(
        self, logical_addrs, values
    ) -> Sequence[WriteResult]:
        """Write one value per logical address, batched.

        Rows of equal length take one vectorised read/prepare/program/
        verify pass per length; rows may share a segment as long as they
        do not overlap (overlapping rows are serialised in batch order).
        A row that is alone in its pass, and every row under an active
        wear-leveling remapper (whose mid-batch remaps are
        order-dependent), goes through :meth:`write`.  A batch that is one
        pass returns its :class:`~repro.nvm.device.BatchWriteResult` as it
        is, any other a list of per-row results.

        Raises:
            SegmentRetiredError: verification retired the segment of at
                least one row.  ``exc.rows`` lists those rows and
                ``exc.results`` the per-row results (``None`` at retired
                rows); every other row stays written and verified.
        """
        # Bytes pass as they are; anything else is validated and copied
        # once, so every pass below joins and measures plain bytes.
        values = [
            v if isinstance(v, bytes) else self._as_u8(v).tobytes()
            for v in values
        ]
        addrs = [int(a) for a in logical_addrs]
        if len(values) != len(addrs):
            raise ValueError("logical_addrs length must match value count")
        sizes = [len(v) for v in values]
        passes = list(self.passes(addrs, sizes))
        results: list[WriteResult | None] = [None] * len(values)
        retired: list[int] = []
        for batch in passes:
            if len(batch) == 1:
                # Not an unfinished merge: a lone row through the batched
                # body below costs 51–80 µs against 17–26 µs here (78–114
                # vs 30–47 µs verified), and a lone ``read_many`` row
                # 7.5–7.7 µs against ``read``'s 1.6–1.9 µs — the
                # ``ship_point_ycsb_b`` path (DESIGN.md, "Arity policy").
                (i,) = batch
                try:
                    results[i] = self.write(addrs[i], values[i])
                except SegmentRetiredError:
                    retired.append(i)
                continue
            length = sizes[batch[0]]
            logical = [addrs[i] for i in batch]
            phys = self._map_many(logical, length)
            old = self.device.read_arrays(phys, length)
            if self.ecc is not None:
                old = self._corrected_rows(phys, old)
            data = np.frombuffer(
                b"".join(values[i] for i in batch), dtype=np.uint8
            ).reshape(-1, length)
            stored, masks, aux = self.scheme.prepare_many(logical, old, data)
            written = self.device.program_many(phys, stored, masks, aux)
            failed = []
            if self.verify_writes:
                readback = self.device.read_arrays(phys, length)
                expected = self._intended(old, stored, masks)
                failed = self._verify(phys, readback, expected)
            if not failed and len(passes) == 1:
                return written
            for i, result in zip(batch, written):
                results[i] = result
            for row in failed:
                results[batch[row]] = None
                retired.append(batch[row])
        if retired:
            retired.sort()
            raise SegmentRetiredError(
                self._map(addrs[retired[0]], 1)[0] // self.segment_size,
                rows=retired,
                results=results,
            )
        return results

    def passes(self, addrs: list[int], sizes: list[int]):
        """The passes :meth:`write_many` programs rows ``sizes[i]`` bytes
        long at ``addrs[i]`` in, in programming order: sequences of row
        indices of one length that never overlap each other.  The one
        statement of that order (a fault injector that crashes a
        ``write_many`` mid-way replays it)."""
        n = len(sizes)
        if n < 2 or not self._identity:
            yield from ([i] for i in range(n))
            return
        if sizes.count(sizes[0]) == n:
            starts = sorted(addrs)
            if all(b - a >= sizes[0] for a, b in zip(starts, starts[1:])):
                yield range(n)  # one length, no two rows overlap: one pass
                return
        spans = sorted(zip(addrs, sizes))
        if all(a + size <= b for (a, size), (b, _) in zip(spans, spans[1:])):
            runs = [range(n)]
        else:
            # Overlapping rows are order-dependent: close the current run
            # at every row that touches one already in it.
            runs, seen = [[]], []
            for i in range(n):
                lo, hi = addrs[i], addrs[i] + sizes[i]
                if any(lo < b and a < hi for a, b in seen):
                    runs.append([])
                    seen = []
                runs[-1].append(i)
                seen.append((lo, hi))
        for run in runs:
            yield from self._by_length(run, sizes)

    @staticmethod
    def _by_length(rows, lengths) -> list[list[int]]:
        """``rows`` grouped by ``lengths[row]``, first-seen order kept."""
        groups: dict[int, list[int]] = {}
        for i in rows:
            groups.setdefault(lengths[i], []).append(i)
        return list(groups.values())

    def read(self, logical_addr: int, length: int) -> bytes:
        """Read ``length`` logical bytes from ``logical_addr`` (patched
        through the ECP table when verification is enabled).

        ECP patching is *transient*: the stuck cells it papers over are
        physically unwritable, so there is nothing to persist back.  Drift
        damage, by contrast, IS repairable — :meth:`refresh` (used by the
        scrubber and the KV store's read-repair path) rewrites a range so
        corrections stick on the media instead of being re-paid per read.
        """
        phys_addr, _ = self._map(logical_addr, length)
        stored = self.device.read_array(phys_addr, length)
        stored = self._corrected(phys_addr, stored)
        return self.scheme.decode(logical_addr, stored).tobytes()

    def read_many(self, logical_addrs, lengths: list[int]) -> list[bytes]:
        """:meth:`read` of ``lengths[i]`` bytes at each address, as one
        :meth:`_read_rows` per distinct length.  A length with one row goes
        through :meth:`read`, as :meth:`write_many`'s lone rows go through
        :meth:`write`: same accounting, a fraction of the host cost."""
        addrs = list(map(int, logical_addrs))
        n = len(addrs)
        if n > 1 and lengths.count(lengths[0]) == n:
            return self._read_rows(addrs, lengths[0])
        out = [b""] * n
        for rows in self._by_length(range(n), lengths):
            length = lengths[rows[0]]
            if len(rows) == 1:
                out[rows[0]] = self.read(addrs[rows[0]], length)
                continue
            values = self._read_rows([addrs[i] for i in rows], length)
            for i, value in zip(rows, values):
                out[i] = value
        return out

    def _read_rows(self, logical: list[int], length: int) -> list[bytes]:
        """The ``length``-byte rows at ``logical`` as one accounted device
        gather and its ECP patch, then one ``tobytes`` of the ``(B, L)``
        block cut into rows — decoded row by row only under a scheme with
        a ``decode`` of its own."""
        phys = self._map_many(logical, length)
        stored = self.device.read_arrays(phys, length)
        if self.ecc is not None:
            stored = self._corrected_rows(phys, stored)
        if self._decodes:
            decode = self.scheme.decode
            return [decode(a, r).tobytes() for a, r in zip(logical, stored)]
        # ``unpack`` cuts the one ``tobytes`` into rows in C: a third of
        # the cost of slicing it row by row in Python.
        rows = struct.unpack(f"{length}s" * len(logical), stored.tobytes())
        return list(rows)

    def refresh(self, logical_addr: int, length: int) -> int:
        """Persistently heal a range: margin-read the true stored content
        past any resistance drift and rewrite it through the normal write
        path (scheme + verify + accounting — refresh is a real write and
        costs real energy/wear).

        Drifted cells sense flipped, so ``true = sensed XOR drift_mask``;
        ECP-patched stuck cells never drift, so the two corrections
        compose.  The rewrite force-pulses every drifted cell in range
        (see :meth:`NVMDevice.program`), clearing its drift and restarting
        its retention timer.  Returns the number of drifted cells healed.

        Raises:
            SegmentRetiredError: the verify path retired the segment
                mid-refresh; the caller must relocate the data instead.
        """
        phys_addr, _ = self._map(logical_addr, length)
        dmask = self.device.drift_mask(phys_addr, length)
        sensed = self.device.read_array(phys_addr, length)
        stored = np.bitwise_xor(sensed, dmask)
        stored = self._corrected(phys_addr, stored)
        logical = np.asarray(
            self.scheme.decode(logical_addr, stored), dtype=np.uint8
        )
        self.write(logical_addr, logical)
        return popcount_array(dmask)

    def drift_mask(self, logical_addr: int, length: int) -> np.ndarray:
        """Packed drifted-bit flags for a logical range (the device's
        margin read, remapped through wear leveling)."""
        phys_addr, _ = self._map(logical_addr, length)
        return self.device.drift_mask(phys_addr, length)

    def peek(self, logical_addr: int, length: int) -> np.ndarray:
        """Unaccounted decoded read (tooling/tests/model training snapshots)."""
        phys_addr, _ = self._map(logical_addr, length)
        stored = self.device.peek(phys_addr, length)
        stored = self._corrected(phys_addr, stored)
        return np.asarray(self.scheme.decode(logical_addr, stored), dtype=np.uint8)

    def _corrected(self, phys_addr: int, stored: np.ndarray) -> np.ndarray:
        if self.ecc is None:
            return stored
        size = self.segment_size
        return self.ecc.correct(
            phys_addr // size, stored, phys_addr % size
        )

    def _corrected_rows(self, phys, stored: np.ndarray) -> np.ndarray:
        """:meth:`_corrected` for a ``(B, L)`` gather, in place."""
        if self.ecc.any_entries():
            for row, phys_addr in enumerate(phys.tolist()):
                stored[row] = self._corrected(phys_addr, stored[row])
        return stored

    def segment_address(self, index: int) -> int:
        """Logical byte address of logical segment ``index``."""
        if not 0 <= index < self.n_segments:
            raise IndexError(f"logical segment {index} out of range")
        return index * self.segment_size

    def _map_many(self, logical_addrs: list[int], length: int) -> np.ndarray:
        """Physical address of each ``length``-byte access of a batch.
        Under the identity policy the batch is bounds-checked on its
        Python ints and mapped as it is; a violation (and every
        remapping policy) goes row by row through :meth:`_map`, which
        raises what the scalar form raises."""
        if self._identity:
            size = self.segment_size
            end = self.n_segments * size
            slack = size - length
            for addr in logical_addrs:
                if not 0 <= addr < end or addr % size > slack:
                    break
            else:
                return np.array(logical_addrs, dtype=np.int64)
        return np.array(
            [self._map(addr, length)[0] for addr in logical_addrs],
            dtype=np.int64,
        )

    def _map(self, logical_addr: int, length: int) -> tuple[int, int]:
        size = self.segment_size
        segment = logical_addr // size
        offset = logical_addr % size
        if offset + length > size:
            raise ValueError(
                f"access of {length} bytes at offset {offset} crosses the "
                f"{size}-byte segment boundary"
            )
        if not 0 <= segment < self.n_segments:
            raise IndexError(f"logical segment {segment} out of range")
        phys_segment = self.wear_leveling.to_physical(segment)
        return phys_segment * size + offset, segment

    @staticmethod
    def _as_u8(data: bytes | np.ndarray) -> np.ndarray:
        if isinstance(data, (bytes, bytearray, memoryview)):
            return np.frombuffer(bytes(data), dtype=np.uint8)
        arr = np.asarray(data)
        if arr.dtype != np.uint8:
            raise TypeError("controller data must be uint8 or bytes")
        return arr
