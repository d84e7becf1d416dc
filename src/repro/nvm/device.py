"""Bit-accurate simulated PCM/Optane device.

The device stores raw content as a NumPy ``uint8`` array and exposes a single
media-level write primitive, :meth:`NVMDevice.program`, which programs an
explicit set of cells (bits).  Write schemes (DCW, FNW, ...) run above the
device, in :mod:`repro.baselines`, and decide *which* cells to pulse; the
device only accounts for the activity:

- ``bits_programmed``: cells that received a SET/RESET pulse (wear + energy);
- ``bits_flipped``: cells whose stored value actually changed;
- ``dirty_lines``: cache lines containing at least one programmed cell (the
  controller skips clean lines, which is where the Figure 1 latency/energy
  gains come from).

Per-segment write counters are always maintained; per-bit programming
counters (needed for the Figure 19 wear CDFs) are optional because they cost
8x the device capacity in counter memory.

With a :class:`WearOutConfig` the device additionally models *endurance
exhaustion*: every cell draws a per-cell endurance budget (lognormal
variation around the configured mean, seeded), counts its program pulses
down from it and, once none are left, becomes **stuck-at** its current
value — subsequent programming pulses to it silently fail and reads return
the stuck value.  The device then also carries an
:class:`~repro.nvm.ecc.ErrorCorrectingPointers` table and a
:class:`~repro.nvm.health.HealthState`; the controller's verify-after-write
path uses them to detect, correct and eventually retire failing segments.

With a :class:`DriftConfig` the device models the *read-side* failure mode:
resistance drift.  Every cell draws a seeded time-to-drift budget (lognormal,
optionally shortened by that cell's accumulated wear); a logical retention
clock is advanced by :meth:`NVMDevice.advance_time`.  A cell whose last
program is older than its budget *drifts*: reads sense its bit flipped until
some write re-programs it (any program pulse to a drifted cell restores it
and resets its timer — the device force-pulses drifted cells inside every
written range, so refresh cost shows up honestly in wear/energy accounting).
The true stored charge is never lost to drift in this model, only mis-sensed;
``sensed = content XOR drift_mask`` and a scrubber can recover the original
by rewriting ``sensed XOR drift_mask``.

Everything the medium carries — content, counters, every per-cell plane,
the ECP and health tables, the clock — lives in one block laid out by
:func:`medium_layout`; a block that outlives its process (a shard worker's
shared memory) is a medium :meth:`NVMDevice.load` adopts as it stands.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from repro.nvm.ecc import ErrorCorrectingPointers
from repro.nvm.energy import EnergyModel
from repro.nvm.health import HealthState
from repro.nvm.latency import LatencyModel
from repro.nvm.stats import DeviceStats
from repro.util.bits import popcount_array, popcount_rows
from repro.util.rng import rng_from_seed

#: Budget assigned to cells exempted from wear-out (``immortal_prefix``).
_IMMORTAL_BUDGET = np.int64(2**62)
#: Snapshot keys of the ECP table and of the health state, in the order
#: their ``state_arrays`` / ``snapshot_arrays`` return them.
_ECP_KEYS = ("ecp_segments", "ecp_offsets", "ecp_values")
_HEALTH_KEYS = (
    "health_retired", "health_retiring", "health_spares", "health_reclaimed"
)
#: A formatted block's first header word, written after every plane: a
#: block a crash left mid-format or mid-load reads as blank.
_FORMATTED = 0x45324E564D
#: Header words (the mark, geometry, ``track_bit_wear``, the clock); the
#: fault-model rows follow, all zero for a model the medium lacks.
_MARK, _CAPACITY, _SEGMENT, _BIT_WEAR, _CLOCK = range(5)


def medium_layout(capacity_bytes, segment_size, bit_wear, wearout, drift):
    """Where each plane of a medium lives in its one block, as ``{name:
    (offset, dtype, shape)}``, and the block's size in bytes."""
    n_segments, n_cells = capacity_bytes // segment_size, capacity_bytes * 8
    planes = [
        ("header", np.int64, 5), ("params", np.float64, (2, 5)),
        ("content", np.uint8, capacity_bytes),
        ("segment_write_count", np.int64, n_segments),
        ("bit_wear", np.int64, n_cells * bool(bit_wear)),
    ]
    if wearout is not None:
        planes += [
            ("pulses_left", np.int64, n_cells),
            ("stuck", np.uint8, capacity_bytes),
            ("ecp", np.int32, (n_segments, wearout.ecp_entries)),
            ("health", np.uint8, n_segments),
            ("spare_order", np.int64, n_segments),
        ]
    if drift is not None:
        planes.append(("last_program", np.int64, n_cells))
        planes.append(("drifted", np.uint8, capacity_bytes))
    layout, size = {}, 0
    for name, dtype, shape in planes:  # each plane 8-byte aligned
        layout[name] = (size, dtype, shape)
        size += -(-np.dtype(dtype).itemsize * int(np.prod(shape)) // 8) * 8
    return layout, size


@dataclass(frozen=True)
class WearOutConfig:
    """Endurance-exhaustion model parameters.

    Attributes:
        endurance_mean: median per-cell endurance in program cycles (PCM is
            1e8–1e9; tests use tiny values as accelerated aging).
        endurance_sigma: sigma of the lognormal cell-to-cell variation
            (process variation makes some cells die much earlier than the
            mean — the reason verify-after-write is needed at all).
        seed: RNG seed for drawing the per-cell budgets.
        ecp_entries: ECP correction entries per segment; exceeding this is
            segment failure.
        immortal_prefix_segments: leading segments exempt from wear-out
            (the persistent pool's log/catalog region, which real systems
            place on replicated or DRAM-buffered media).
    """

    endurance_mean: float = 1e8
    endurance_sigma: float = 0.15
    seed: int = 0
    ecp_entries: int = 6
    immortal_prefix_segments: int = 0


@dataclass(frozen=True)
class DriftConfig:
    """Resistance-drift (retention) model parameters.

    Attributes:
        retention_mean: median time-to-drift in clock ticks after a cell's
            last program (real PCM retention is hours-to-years; tests use
            tiny values as accelerated retention loss).
        retention_sigma: sigma of the lognormal cell-to-cell retention
            variation — the tail cells that drift far earlier than the
            median are the reason scrubbing must outpace the *minimum*
            budget, not the mean.
        seed: RNG seed for drawing the per-cell budgets.
        wear_scale: wear acceleration factor; a cell's effective budget is
            ``base / (1 + wear_scale * program_cycles)``, so heavily worn
            cells drift faster (matching PCM's degraded retention near
            end-of-life).  ``0`` disables the coupling.
        immortal_prefix_segments: leading segments exempt from drift (the
            persistent pool's log/catalog region, same convention as
            :class:`WearOutConfig`).
    """

    retention_mean: float = 1e6
    retention_sigma: float = 0.3
    seed: int = 0
    wear_scale: float = 0.0
    immortal_prefix_segments: int = 0


def _carve(block: np.ndarray, layout: dict) -> dict[str, np.ndarray]:
    """Each plane of ``layout`` as a view into ``block``."""
    return {
        name: np.ndarray(shape, dtype, block, offset)
        for name, (offset, dtype, shape) in layout.items()
    }


class WriteResult(NamedTuple):
    """Outcome of one media write."""

    bits_programmed: int
    bits_flipped: int
    dirty_lines: int
    aux_bits: int
    energy_pj: float
    latency_ns: float


class BatchWriteResult:
    """One batched media write's :class:`WriteResult` fields as columns,
    one entry per row.  Iterating or indexing it yields per-row
    :class:`WriteResult` s, which a caller that only totals the batch
    never builds."""

    __slots__ = WriteResult._fields

    def __init__(self, *columns: np.ndarray) -> None:
        for name, column in zip(self.__slots__, columns):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.bits_programmed)

    def __getitem__(self, row: int) -> WriteResult:
        return WriteResult(*(getattr(self, f)[row].item() for f in self.__slots__))

    def __iter__(self):
        columns = (getattr(self, f).tolist() for f in self.__slots__)
        return map(WriteResult._make, zip(*columns))


class NVMDevice:
    """A simulated byte-addressable NVM with ``capacity_bytes`` of media,
    organised into fixed-size segments.

    Args:
        capacity_bytes: total media size; must be a positive multiple of
            ``segment_size``.
        segment_size: allocation/placement granularity used by the storage
            layer (the paper's "memory segment").
        energy_model: cost model for energy accounting.
        track_bit_wear: maintain a per-bit programming counter (8 counters per
            byte of capacity) for wear CDF analysis.
        initial_fill: ``"zero"`` or ``"random"`` initial media content.
        seed: RNG seed for ``initial_fill="random"``.
        content_buffer: optional writable buffer (e.g. a
            ``multiprocessing.shared_memory.SharedMemory`` block) holding
            the whole medium in place of a private block: at least the
            size :func:`medium_layout` gives; the constructor formats it.
            The medium then outlives this process: a sharded store's
            parent re-opens a shard over the buffer after its worker
            process died mid-write (:meth:`load`).
        faults: optional :class:`repro.testing.faults.FaultInjector`; when
            set, :meth:`program` fires the write-capable ``"device.program"``
            site before any accounting, so tests can crash a run at any
            media write — including *torn* writes where only a prefix of
            the programmed bytes lands before the (simulated) power loss.
            With a wear-out model, ``"device.stuck_at"`` additionally fires
            after any program call that exhausts new cells.
        wearout: optional :class:`WearOutConfig` enabling the endurance
            exhaustion model (per-cell budgets, stuck-at failure, an ECP
            table on ``self.ecc`` and health state on ``self.health``).
        drift: optional :class:`DriftConfig` enabling the resistance-drift
            retention model (per-cell time-to-drift budgets, a logical
            clock advanced by :meth:`advance_time`, flipped reads of
            drifted cells, and a ``"device.drift_flip"`` fault site).
    """

    def __init__(
        self,
        capacity_bytes: int,
        segment_size: int,
        energy_model: EnergyModel | None = None,
        track_bit_wear: bool = False,
        initial_fill: str = "zero",
        seed: int | np.random.Generator | None = None,
        faults=None,
        wearout: WearOutConfig | None = None,
        drift: DriftConfig | None = None,
        content_buffer=None,
    ) -> None:
        if initial_fill not in ("zero", "random"):
            raise ValueError(f"unknown initial_fill {initial_fill!r}")
        self._format(
            capacity_bytes, segment_size, track_bit_wear, wearout, drift,
            content_buffer, energy_model, faults,
        )
        if initial_fill == "random":
            self._content[:] = rng_from_seed(seed).integers(
                0, 256, size=capacity_bytes, dtype=np.uint8
            )
        self._header[_MARK] = _FORMATTED

    def _format(
        self, capacity_bytes, segment_size, track_bit_wear, wearout, drift,
        buffer, energy_model, faults,
    ) -> None:
        """Lay a blank medium out in ``buffer`` (a private block when
        ``None``) and adopt it: planes zeroed, each countdown its cell's
        endurance draw, the header written but for its mark."""
        if segment_size <= 0:
            raise ValueError("segment_size must be positive")
        if capacity_bytes <= 0 or capacity_bytes % segment_size:
            raise ValueError(
                "capacity_bytes must be a positive multiple of segment_size"
            )
        for cfg in filter(None, (wearout, drift)):
            if astuple(cfg)[0] < 1:  # endurance_mean / retention_mean
                raise ValueError(f"{fields(cfg)[0].name} must be at least 1")
            if not 0 <= cfg.immortal_prefix_segments <= (
                capacity_bytes // segment_size
            ):
                raise ValueError("immortal_prefix_segments out of range")
        if drift is not None and drift.wear_scale < 0:
            raise ValueError("wear_scale must be non-negative")
        layout, size = medium_layout(
            capacity_bytes, segment_size, track_bit_wear, wearout, drift
        )
        if buffer is None:
            block = np.zeros(size, dtype=np.uint8)
        else:
            block = np.frombuffer(buffer, dtype=np.uint8)
            if block.size < size:
                raise ValueError(
                    f"{block.size} B cannot hold this {size} B medium (are "
                    "its wear-out and drift models the buffer's?)"
                )
            block[:size] = 0
        planes = _carve(block, layout)
        planes["header"][_CAPACITY:_CLOCK] = (
            capacity_bytes, segment_size, track_bit_wear,
        )
        self._adopt(planes, wearout, drift, energy_model, faults)
        if wearout is not None:
            self._cell_budgets(wearout, out=self._pulses_left)
        for row, cfg in zip(planes["params"], (wearout, drift)):
            if cfg is not None:
                row[:] = astuple(cfg)

    def _adopt(self, planes, wearout, drift, energy_model, faults) -> None:
        """Run on the medium whose planes are ``planes``, as they stand."""
        self._header = planes["header"]
        self.capacity_bytes = int(self._header[_CAPACITY])
        self.segment_size = int(self._header[_SEGMENT])
        #: Number of fixed-size segments on the device.
        self.n_segments = self.capacity_bytes // self.segment_size
        self.energy_model = energy_model or EnergyModel()
        self.latency_model = LatencyModel()
        self.faults = faults
        self.stats = DeviceStats()
        self.wearout, self.drift = wearout, drift
        self._content = planes["content"]
        self.segment_write_count = planes["segment_write_count"]
        self._bit_wear = planes["bit_wear"] if planes["bit_wear"].size else None
        # Program pulses each cell has left before it sticks: the endurance
        # draw, counted down.  A cell's wear is its redrawn budget minus
        # this (:meth:`wear_count`), so the budget itself is not kept.
        self._pulses_left = planes.get("pulses_left")
        self._stuck_packed = planes.get("stuck")
        self._last_program_tick = planes.get("last_program")
        self._drift_packed = planes.get("drifted")
        self.ecc = self.health = None
        if wearout is not None:
            self.ecc = ErrorCorrectingPointers(self.segment_size, planes["ecp"])
            self.health = HealthState(
                planes["health"], planes["spare_order"], self.segment_size
            )
        self._drift_budget = drift and self._cell_budgets(drift)
        # Cells set in each overlay, kept where cells die, drift and heal:
        # one with nothing to say skips its gather on every access.
        self._n_stuck, self._n_drifted = (
            0 if plane is None else popcount_array(plane)
            for plane in (self._stuck_packed, self._drift_packed)
        )
        # Whether any overlay needs the positions of the pulsed cells.
        self._tracks_cells = bool(
            self._bit_wear is not None or wearout or drift
        )

    def _cell_budgets(self, cfg, out=None) -> np.ndarray:
        """One lognormal int64 budget per cell, at least 1, drawn from
        ``cfg`` (a :class:`WearOutConfig` or :class:`DriftConfig`: both
        lead with mean, sigma, seed and end with the immortal prefix);
        cells of the immortal prefix never run out.  A pure function of
        ``cfg`` and the geometry — budgets are redrawn when needed, never
        stored — so the seed must be an int (no OS entropy, no shared
        stream).  ``out`` receives them in place of a fresh array."""
        mean, sigma, seed, _, immortal_segments = astuple(cfg)
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"budget seed must be an int, not {seed!r}")
        budgets = rng_from_seed(seed).lognormal(
            mean=math.log(mean), sigma=sigma, size=self.capacity_bytes * 8
        )
        # Clamped in place and cast once: each extra pass is a fresh 4 MB
        # per 64 KiB of media.
        np.maximum(budgets, 1.0, out=budgets)
        if out is None:
            out = budgets.astype(np.int64)
        else:
            np.copyto(out, budgets, casting="unsafe")
        out[: immortal_segments * self.segment_size * 8] = _IMMORTAL_BUDGET
        return out

    def segment_address(self, index: int) -> int:
        """Byte address of segment ``index``."""
        if not 0 <= index < self.n_segments:
            raise IndexError(f"segment {index} out of range")
        return index * self.segment_size

    # ------------------------------------------------------------------ reads

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``addr`` (accounted)."""
        arr = self.read_array(addr, length)
        return arr.tobytes()

    def read_array(self, addr: int, length: int) -> np.ndarray:
        """Read ``length`` bytes as a fresh ``uint8`` array (accounted).

        With a drift model the returned bytes are the *sensed* content:
        drifted cells read back flipped until some write re-programs them.
        """
        self._check_range(addr, length)
        self.stats.reads += 1
        self.stats.bytes_read += length
        self.stats.read_energy_pj += self.energy_model.read_energy(length)
        self.stats.read_latency_ns += self.latency_model.read_latency(length)
        out = self._content[addr : addr + length].copy()
        if self._n_drifted:
            np.bitwise_xor(
                out, self._drift_packed[addr : addr + length], out=out
            )
        return out

    def read_arrays(self, addrs, length: int) -> np.ndarray:
        """Read ``length`` bytes at each address as a ``(B, length)`` array.

        Accounting is identical to ``B`` individual :meth:`read_array`
        calls; the gather itself is one fancy-indexed copy.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        self._check_ranges(addrs, length)
        n = addrs.size
        self.stats.reads += n
        self.stats.bytes_read += n * length
        self.stats.read_energy_pj += n * self.energy_model.read_energy(length)
        self.stats.read_latency_ns += n * self.latency_model.read_latency(
            length
        )
        out = self._rows(self._content, length)[addrs]
        if self._n_drifted:
            np.bitwise_xor(
                out, self._rows(self._drift_packed, length)[addrs], out=out
            )
        return out

    def peek(self, addr: int, length: int) -> np.ndarray:
        """Inspect media content without accounting (for tooling/tests).

        Like all reads this senses drifted cells flipped — a peek models a
        margin-less array read, not access to the true stored charge.
        """
        self._check_range(addr, length)
        out = self._content[addr : addr + length].copy()
        if self._n_drifted:
            np.bitwise_xor(
                out, self._drift_packed[addr : addr + length], out=out
            )
        return out

    # ----------------------------------------------------------------- writes

    def program(
        self,
        addr: int,
        new: np.ndarray | bytes,
        program_mask: np.ndarray | None = None,
        aux_bits: int = 0,
    ) -> WriteResult:
        """Program cells at ``addr``.

        Args:
            new: bytes to store (only bits selected by ``program_mask`` take
                effect).
            program_mask: ``uint8`` array, same length as ``new``; set bits
                mark cells that receive a programming pulse.  ``None`` pulses
                every cell (a naive write-all scheme).
            aux_bits: scheme metadata cells programmed alongside the data
                (e.g. FNW flip flags); they add wear/energy but no content.

        Returns:
            A :class:`WriteResult` with the activity and cost of this write.
        """
        new = self._as_u8(new)
        length = new.size
        self._check_range(addr, length)
        if program_mask is None:
            mask = np.full(length, 0xFF, dtype=np.uint8)
        else:
            mask = self._as_u8(program_mask)
            if mask.size != length:
                raise ValueError("program_mask length must match data length")
        if self._n_drifted:
            # Any write refreshes drifted cells in its range: schemes plan
            # masks against *sensed* old content, so a drifted cell whose
            # sensed value happens to match the target would otherwise be
            # skipped and keep its stale true charge.  The extra pulses are
            # charged to wear/energy — refresh is not free.
            mask = np.bitwise_or(
                mask, self._drift_packed[addr : addr + length]
            )
        bits_programmed = popcount_array(mask)
        cells = (
            addr * 8 + self._pulsed_bits(mask) if self._tracks_cells else None
        )

        if self.faults is not None:
            self._fire_program(addr, new, mask, cells)
        # Pulses aimed at stuck cells silently fail: they cost energy and
        # wear (counted from the full mask) but can no longer flip anything.
        bits_flipped = popcount_array(
            self._apply_masked(addr, new, mask, cells)
        )
        offset = addr % self.energy_model.cache_line_bytes
        dirty_lines = int(self._dirty_lines(offset, offset, mask[None, :])[0])

        energy = self.energy_model.write_energy(
            length, bits_programmed, dirty_lines, aux_bits
        )
        latency = self.latency_model.write_latency(
            length, bits_programmed + aux_bits, dirty_lines
        )

        self.stats.writes += 1
        self.stats.bytes_written += length
        self.stats.bits_programmed += bits_programmed
        self.stats.bits_flipped += bits_flipped
        self.stats.aux_bits_programmed += aux_bits
        self.stats.dirty_lines_written += dirty_lines
        self.stats.write_energy_pj += energy
        self.stats.write_latency_ns += latency

        first_seg = addr // self.segment_size
        last_seg = (addr + length - 1) // self.segment_size
        self.segment_write_count[first_seg : last_seg + 1] += 1

        if self._bit_wear is not None:
            self._bit_wear[cells] += 1
        if self._pulses_left is not None:
            self._note_wear(cells)

        return WriteResult(
            bits_programmed, bits_flipped, dirty_lines, aux_bits,
            energy, latency,
        )

    def program_many(
        self,
        addrs,
        new: np.ndarray,
        program_masks: np.ndarray | None = None,
        aux_bits=0,
    ) -> BatchWriteResult:
        """Program a batch of equal-length, non-overlapping writes.

        Semantically identical to calling :meth:`program` once per row (in
        row order) — including the per-row ``"device.program"`` fault site,
        so a mid-batch crash or torn write persists exactly the rows (and
        row prefix) that a sequential loop would have — but the accounting
        is one vectorised pass instead of ``B`` scalar ones: a dozen NumPy
        calls over the packed bytes plus work proportional to the cells
        actually pulsed, its results one :class:`BatchWriteResult`.

        Args:
            addrs: one media address per row.
            new: ``(B, L)`` bytes to store.
            program_masks: ``(B, L)`` per-row masks; ``None`` pulses all.
            aux_bits: scalar or length-``B`` per-row metadata cell counts.

        Raises:
            ValueError: when rows overlap (sequential writes to overlapping
                ranges are order-dependent; callers must serialise those).
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        new = np.atleast_2d(np.asarray(new, dtype=np.uint8))
        n_rows, length = new.shape
        if addrs.size != n_rows:
            raise ValueError("addrs length must match data row count")
        ordered = self._check_ranges(addrs, length)
        if n_rows == 0:
            return BatchWriteResult(*np.empty((6, 0), dtype=np.int64))
        if n_rows > 1 and int((ordered[1:] - ordered[:-1]).min()) < length:
            raise ValueError("program_many rows must not overlap")
        if program_masks is None:
            masks = np.full((n_rows, length), 0xFF, dtype=np.uint8)
        else:
            masks = np.atleast_2d(np.asarray(program_masks, dtype=np.uint8))
            if masks.shape != new.shape:
                raise ValueError("program_mask shape must match data shape")
        aux = np.empty(n_rows, dtype=np.int64)
        aux[:] = aux_bits

        if self._n_drifted:
            # Force-pulse drifted cells in every written row (see program()).
            masks = np.bitwise_or(
                masks, self._rows(self._drift_packed, length)[addrs]
            )
        bits_programmed = popcount_rows(masks)
        cells = None
        if self._tracks_cells:
            # Flat (row * 8L + column) positions plus each row's offset.
            row_starts = (addrs - np.arange(0, n_rows * length, length)) * 8
            cells = self._pulsed_bits(masks) + np.repeat(
                row_starts, bits_programmed
            )

        if self.faults is None:
            # Rows never overlap, so one pass over the whole batch writes,
            # charges and kills exactly the cells a row loop would.
            flips = self._apply_masked(addrs, new, masks, cells)
            if self._pulses_left is not None:
                self._note_wear(cells)
        else:
            # Fire the fault site and persist row by row, in row order, so
            # crash points land between rows exactly as in a scalar loop
            # (including ``device.stuck_at`` firings between rows).
            flips = np.empty_like(new)
            row_cells = (
                np.split(cells, np.cumsum(bits_programmed)[:-1])
                if cells is not None
                else [None] * n_rows
            )
            for i, addr in enumerate(addrs.tolist()):
                self._fire_program(addr, new[i], masks[i], row_cells[i])
                flips[i] = self._apply_masked(
                    addr, new[i], masks[i], row_cells[i]
                )
                if self._pulses_left is not None:
                    self._note_wear(row_cells[i])

        bits_flipped = popcount_rows(flips)
        offsets = addrs % self.energy_model.cache_line_bytes
        dirty_lines = self._dirty_lines(offsets, int(offsets.max()), masks)
        energy = self.energy_model.write_energy(
            length, bits_programmed, dirty_lines, aux
        )
        latency = self.latency_model.write_latency(
            length, bits_programmed + aux, dirty_lines
        )

        # One sum per column: the integer totals are exact, the float ones
        # keep NumPy's summation order.
        self.stats.writes += n_rows
        self.stats.bytes_written += n_rows * length
        self.stats.bits_programmed += int(bits_programmed.sum())
        self.stats.bits_flipped += int(bits_flipped.sum())
        self.stats.aux_bits_programmed += int(aux.sum())
        self.stats.dirty_lines_written += int(dirty_lines.sum())
        self.stats.write_energy_pj += float(energy.sum())
        self.stats.write_latency_ns += float(latency.sum())

        size = self.segment_size
        segs, within = np.divmod(addrs, size)
        reach = int(within.max()) + length - 1
        if reach >= size:
            # Rows crossing segment boundaries count once in each.
            last = segs + (within + (length - 1)) // size
            grid = segs[:, None] + np.arange(reach // size + 1)
            segs = grid[grid <= last[:, None]]
        np.add.at(self.segment_write_count, segs, 1)

        if self._bit_wear is not None:
            self._bit_wear[cells] += 1

        return BatchWriteResult(
            bits_programmed, bits_flipped, dirty_lines, aux, energy, latency
        )

    # ------------------------------------------------------------------ wear

    def _note_wear(self, cells: np.ndarray) -> None:
        """Charge one program cycle to every pulsed cell (``cells``:
        distinct absolute bit indices) and mark cells with no pulses left
        as stuck (at their current value).

        The exhausting pulse itself still landed — a cell fails *after*
        reaching its budget, so subsequent programs are the ones that
        silently fail.  Fires ``"device.stuck_at"`` once per call that
        kills at least one new cell.
        """
        left = self._pulses_left[cells] - 1
        self._pulses_left[cells] = left
        exhausted = left <= 0
        if not exhausted.any():
            return
        if self._kill(cells[exhausted]) and self.faults is not None:
            self.faults.fire("device.stuck_at")

    def age(self, cycles: int) -> int:
        """Accelerated aging: charge ``cycles`` extra program cycles to
        every cell at once (no content change, no stats).

        Cells whose budget is exhausted become stuck at their *current*
        value, exactly as organic wear-out would leave them (see
        :meth:`_kill`).  Returns the number of cells that died.  Requires a
        wear-out model.
        """
        if self._pulses_left is None:
            raise RuntimeError("device was created without a wearout model")
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._pulses_left -= cycles
        return self._kill(np.flatnonzero(self._pulses_left <= 0))

    def _kill(self, cells: np.ndarray) -> int:
        """Mark ``cells`` stuck at their stored charge; returns how many
        were alive.

        A dead cell is frozen charge: it neither drifts nor heals, so one
        that dies while drifted stops sensing flipped and reads what it
        stores.  Organic wear only kills a cell its own pulse just healed;
        :meth:`age` kills cells in place, drifted ones included.
        """
        fresh = self._mark(self._stuck_packed, cells)
        self._n_stuck += fresh
        if fresh and self._n_drifted:
            self._n_drifted -= self._unmark(self._drift_packed, cells)
        return fresh

    def wear_count(self) -> np.ndarray:
        """Program cycles charged so far to each cell of mortal media (a
        fresh array): the redrawn endurance budgets minus the pulses
        left.  Requires a wear-out model."""
        if self._pulses_left is None:
            raise RuntimeError("device was created without a wearout model")
        return self._cell_budgets(self.wearout) - self._pulses_left

    # ------------------------------------------------------------------ drift

    @property
    def clock(self) -> int:
        """Logical retention clock (ticks since device creation)."""
        return int(self._header[_CLOCK])

    def advance_time(self, ticks: int) -> int:
        """Advance the retention clock and drift every cell whose last
        program is now older than its (wear-scaled) retention budget.

        Drifted cells sense flipped on every read until a write pulses
        them; the true stored charge is untouched.  Fires
        ``"device.drift_flip"`` once per call that drifts at least one new
        cell.  Returns the number of newly drifted cells.  Requires a
        drift model.
        """
        if self.drift is None:
            raise RuntimeError("device was created without a drift model")
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        self._header[_CLOCK] += ticks
        age = self._header[_CLOCK] - self._last_program_tick
        due = np.flatnonzero(age >= self._effective_drift_budget())
        if self._n_stuck and due.size:
            # Stuck cells are frozen charge — they neither drift nor heal.
            due = due[self._flagged(self._stuck_packed, due) == 0]
        fresh = self._mark(self._drift_packed, due)
        self._n_drifted += fresh
        if fresh and self.faults is not None:
            self.faults.fire("device.drift_flip")
        return fresh

    def _effective_drift_budget(self) -> np.ndarray:
        """Per-cell retention budget after wear acceleration."""
        base = self._drift_budget
        scale = self.drift.wear_scale
        if scale <= 0:
            return base
        wear = self.wear_count() if self.wearout is not None \
            else self._bit_wear
        if wear is None:
            return base
        return np.maximum(base / (1.0 + scale * wear), 1.0)

    def drift_mask(self, addr: int, length: int) -> np.ndarray:
        """Packed per-bit drifted flags for ``[addr, addr + length)``.

        This is the device's *margin read*: a slow sensing mode real PCM
        controllers use during scrubbing to tell drifted cells apart from
        healthy ones.  All-zero without a drift model.
        """
        if self._drift_packed is None:
            return np.zeros(length, dtype=np.uint8)
        self._check_range(addr, length)
        return self._drift_packed[addr : addr + length].copy()

    def drifted_cell_count(self) -> int:
        """Cells currently sensing flipped (0 without a drift model)."""
        return self._n_drifted

    def stuck_cell_count(self) -> int:
        """Cells permanently stuck at their current value (0 without a
        wear-out model)."""
        return self._n_stuck

    def stuck_mask(self, addr: int, length: int) -> np.ndarray:
        """Packed per-bit stuck flags for ``[addr, addr + length)``."""
        if self._stuck_packed is None:
            return np.zeros(length, dtype=np.uint8)
        self._check_range(addr, length)
        return self._stuck_packed[addr : addr + length].copy()

    @property
    def bit_wear(self) -> np.ndarray:
        """Per-bit programming counters (requires ``track_bit_wear=True``)."""
        if self._bit_wear is None:
            raise RuntimeError("device was created with track_bit_wear=False")
        return self._bit_wear

    def reset_stats(self) -> None:
        """Zero all aggregate counters (content and wear are kept)."""
        self.stats = DeviceStats()

    # ------------------------------------------------------------ snapshots

    def save(self, path) -> None:
        """Persist media content and wear state to an ``.npz`` snapshot.

        This models the *non-volatility* of the device: a later
        :meth:`load` resumes with identical content and wear counters.
        The snapshot holds the content, segment write counts, geometry,
        ``bit_wear`` when tracked and, per fault model, its config row,
        per-cell wear, the stuck plane, ECP and health state (wear-out) or
        the retention timers, drifted plane and clock (drift).  The
        per-cell budgets are not stored: they are a pure function of the
        config row and the geometry, and :meth:`load` redraws them.
        Aggregate stats are transient (they model the measurement session)
        and are not saved.
        """
        arrays = {
            "content": self._content,
            "segment_write_count": self.segment_write_count,
            "geometry": np.array([self.capacity_bytes, self.segment_size]),
        }
        if self._bit_wear is not None:
            arrays["bit_wear"] = self._bit_wear
        if self.wearout is not None:
            arrays["wearout_params"] = self._params(self.wearout)
            # Wear rather than the countdown: mostly zeros, so it compresses.
            arrays["wear_count"] = self.wear_count()
            arrays["stuck_packed"] = self._stuck_packed
            arrays.update(zip(_ECP_KEYS, self.ecc.state_arrays()))
            arrays.update(
                (key, np.asarray(values, dtype=np.int64))
                for key, values in zip(
                    _HEALTH_KEYS, self.health.snapshot_arrays()
                )
            )
        if self.drift is not None:
            arrays["drift_params"] = self._params(self.drift)
            arrays["drift_last_program"] = self._last_program_tick
            arrays["drift_packed"] = self._drift_packed
            arrays["drift_clock"] = np.array([self.clock], dtype=np.int64)
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(
        cls,
        path,
        energy_model: EnergyModel | None = None,
        content_buffer=None,
    ) -> "NVMDevice":
        """Adopt the medium in ``content_buffer`` as it stands if it holds
        one (it outlived the process that used it); else lay the
        :meth:`save` snapshot at ``path`` into it (or a private block).
        Snapshots that also carry ``endurance_budget`` / ``drift_budget``
        (the layout before budgets were redrawn) load the same way: those
        keys equal the redraw and are not read."""
        device = cls.__new__(cls)
        if content_buffer is not None:
            block = np.frombuffer(content_buffer, dtype=np.uint8)
            header = np.ndarray(5, np.int64, block)
            if header[_MARK] == _FORMATTED:
                wearout, drift = (
                    cls._config(kind, row if row[0] else None)
                    for kind, row in zip(
                        (WearOutConfig, DriftConfig),
                        np.ndarray((2, 5), np.float64, block, 40),
                    )
                )
                layout, _ = medium_layout(
                    *header[_CAPACITY:_CLOCK].tolist(), wearout, drift
                )
                device._adopt(
                    _carve(block, layout), wearout, drift, energy_model, None
                )
                return device
        with np.load(path) as archive:
            shape = cls._snapshot_shape(archive)
            wearout, drift = shape[3:]
            # Formatting redraws every per-cell budget from the configs;
            # what follows restores the state on top of them.
            device._format(*shape, content_buffer, energy_model, None)
            device._content[:] = archive["content"]
            device.segment_write_count[:] = archive["segment_write_count"]
            if "bit_wear" in archive:
                device._bit_wear[:] = archive["bit_wear"]
            if wearout is not None:
                # Countdowns resume where the wear left them, and dead
                # cells never resurrect on a reopened store.
                device._pulses_left -= archive["wear_count"]
                device._stuck_packed[:] = archive["stuck_packed"]
                device._n_stuck = popcount_array(device._stuck_packed)
                device.ecc.restore_state(*(archive[k] for k in _ECP_KEYS))
                device.health.restore_arrays(
                    *(archive[k] for k in _HEALTH_KEYS)
                )
            if drift is not None:
                # Restore the exact timers, clock and drifted set — a
                # reopened device must keep sensing the same flips.
                device._last_program_tick[:] = archive["drift_last_program"]
                device._drift_packed[:] = archive["drift_packed"]
                device._n_drifted = popcount_array(device._drift_packed)
                device._header[_CLOCK] = archive["drift_clock"][0]
        device._header[_MARK] = _FORMATTED
        return device

    @classmethod
    def snapshot_block_bytes(cls, path) -> int:
        """Size of the block :meth:`load` lays the snapshot at ``path``
        into."""
        with np.load(path) as archive:
            return medium_layout(*cls._snapshot_shape(archive))[1]

    @classmethod
    def _snapshot_shape(cls, archive) -> tuple:
        """A snapshot's :func:`medium_layout` arguments."""
        capacity, segment_size = (int(x) for x in archive["geometry"])
        return (
            capacity, segment_size, "bit_wear" in archive,
            cls._config(WearOutConfig, archive.get("wearout_params")),
            cls._config(DriftConfig, archive.get("drift_params")),
        )

    @staticmethod
    def _params(cfg) -> np.ndarray:
        """A fault-model config as the float64 row a snapshot stores: its
        fields in declaration order.  The budgets are redrawn from this
        row on load, so every field must survive the cast exactly."""
        values = astuple(cfg)
        row = np.array(values, dtype=np.float64)
        if row.tolist() != list(values):
            raise ValueError(f"{cfg!r} does not survive a float64 snapshot")
        return row

    @staticmethod
    def _config(kind, row):
        """The ``kind`` config a :meth:`_params` row describes (each field
        cast back to its default's type), or ``None`` for no row."""
        if row is None:
            return None
        return kind(
            *(type(f.default)(value) for f, value in zip(fields(kind), row))
        )

    # -------------------------------------------------------------- internals

    def _fire_program(self, addr: int, new, mask, cells) -> None:
        """Fire ``"device.program"`` ahead of one row's write.  A torn
        write persists only the first ``n`` programmed bytes; no
        accounting happens (the stats are DRAM and die with the process
        the injector is about to kill)."""
        self.faults.fire(
            "device.program",
            payload_len=new.size,
            payload_writer=lambda n: self._apply_masked(
                addr,
                new[:n],
                mask[:n],
                None if cells is None else cells[cells < (addr + n) * 8],
            ),
        )

    def _apply_masked(self, at, new, mask, cells) -> np.ndarray:
        """Masked bits take the new value, unmasked bits keep the old;
        returns the mask of cells whose value changed.

        The single choke point through which all media mutation flows
        (scalar, batched and torn-write paths alike; ``at`` is one address
        or one per row of a ``(B, L)`` batch): stuck cells are stripped
        from the mask here, so no path can ever change one.  ``cells`` are
        the positions of ``mask``'s set bits (see :meth:`_pulsed_bits`),
        read only with a drift model.
        """
        length = new.shape[-1]
        if self._n_stuck:
            mask = np.bitwise_and(
                mask,
                np.bitwise_not(self._rows(self._stuck_packed, length)[at]),
            )
        content = self._rows(self._content, length)
        old = content[at]
        flips = np.bitwise_and(mask, np.bitwise_xor(old, new))
        content[at] = np.bitwise_xor(old, flips)
        if self._drift_packed is not None:
            # An effective pulse restores a drifted cell and restarts its
            # retention timer (stuck cells were stripped above and never
            # drift in the first place).
            if self._n_drifted:
                drift = self._rows(self._drift_packed, length)
                drifted = drift[at]
                healed = np.bitwise_and(drifted, mask)
                drift[at] = np.bitwise_xor(drifted, healed)
                self._n_drifted -= popcount_array(healed)
            if self._n_stuck:
                cells = cells[self._flagged(self._stuck_packed, cells) == 0]
            self._last_program_tick[cells] = self._header[_CLOCK]
        return flips

    @staticmethod
    def _rows(plane: np.ndarray, length: int) -> np.ndarray:
        """Every ``length``-byte window of a per-byte plane (the content
        or a packed overlay) as an ``(n, length)`` view: ``rows[addrs]``
        gathers a batch (and ``rows[addrs] = x`` scatters one) as one
        contiguous copy per row in place of one index per byte;
        ``rows[addr]`` is the slice.  Built per use (0.6 us) — a kept view
        would have to follow every rebinding of its plane."""
        return np.ndarray(
            (plane.size - length + 1, length), np.uint8, plane, 0, (1, 1)
        )

    @staticmethod
    def _pulsed_bits(masks: np.ndarray) -> np.ndarray:
        """Flat bit indices (``byte * 8 + bit``, MSB first, ascending) of
        every set cell of ``masks`` — the one place that turns masks into
        cell positions; callers add where their rows start."""
        return np.flatnonzero(np.unpackbits(masks).view(np.bool_))

    @staticmethod
    def _flagged(packed: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The 0/1 flag of each cell in a packed per-bit overlay."""
        return (packed[cells >> 3] >> (7 - (cells & 7))) & 1

    @classmethod
    def _mark(cls, packed: np.ndarray, cells: np.ndarray) -> int:
        """Set the flags of ``cells`` in a packed overlay; returns how
        many were not set before."""
        fresh = cells[cls._flagged(packed, cells) == 0]
        np.bitwise_or.at(
            packed, fresh >> 3, (0x80 >> (fresh & 7)).astype(np.uint8)
        )
        return int(fresh.size)

    @classmethod
    def _unmark(cls, packed: np.ndarray, cells: np.ndarray) -> int:
        """Clear the flags of ``cells`` in a packed overlay; returns how
        many were set before."""
        flagged = cells[cls._flagged(packed, cells) == 1]
        np.bitwise_and.at(
            packed,
            flagged >> 3,
            (0xFF ^ (0x80 >> (flagged & 7))).astype(np.uint8),
        )
        return int(flagged.size)

    def _dirty_lines(self, offsets, reach: int, masks: np.ndarray):
        """Per-row count of cache lines holding at least one masked cell
        of a ``(B, L)`` batch.  ``offsets``: where each row starts within
        its first line (one int for a lone row); ``reach``: the largest."""
        line = self.energy_model.cache_line_bytes
        n_rows, length = masks.shape
        n_slots = -(-(reach + length) // line)
        if n_slots == 1:
            return masks.any(axis=1).astype(np.int64)
        if n_slots * line != length:
            # Unaligned rows: lay each out at its offset in a row of whole
            # lines — at most ``ceil(L / line) + 1`` line slots.
            slots = np.zeros((n_rows, n_slots * line), dtype=np.uint8)
            if n_rows == 1:
                slots[0, reach : reach + length] = masks[0]
            else:
                slots.reshape(-1)[
                    (np.arange(n_rows) * (n_slots * line) + offsets)[:, None]
                    + np.arange(length)
                ] = masks
            masks = slots
        return masks.reshape(n_rows, n_slots, line).any(axis=2).sum(axis=1)

    def _check_ranges(self, addrs: np.ndarray, length: int) -> np.ndarray:
        """:meth:`_check_range` for a whole batch — only the extreme
        addresses can fall outside the device.  Returns the addresses
        sorted (``program_many`` reads its overlap test off them)."""
        if length <= 0:
            raise ValueError("length must be positive")
        ordered = np.sort(addrs)
        if ordered.size and (
            ordered[0] < 0 or ordered[-1] + length > self.capacity_bytes
        ):
            raise IndexError(
                f"access [{ordered[0]}, {ordered[-1] + length}) outside "
                f"device of {self.capacity_bytes} bytes"
            )
        return ordered

    def _check_range(self, addr: int, length: int) -> None:
        if length <= 0:
            raise ValueError("length must be positive")
        if addr < 0 or addr + length > self.capacity_bytes:
            raise IndexError(
                f"access [{addr}, {addr + length}) outside device of "
                f"{self.capacity_bytes} bytes"
            )

    @staticmethod
    def _as_u8(data: np.ndarray | bytes) -> np.ndarray:
        if isinstance(data, (bytes, bytearray, memoryview)):
            return np.frombuffer(bytes(data), dtype=np.uint8)
        arr = np.asarray(data)
        if arr.dtype != np.uint8:
            raise TypeError("device data must be uint8 or bytes")
        return arr
