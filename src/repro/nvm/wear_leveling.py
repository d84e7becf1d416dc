"""Wear-leveling policies for the simulated memory controller.

The paper (§2.1) models the proprietary controller-level wear leveling as a
*segment swap every ψ writes*, with ψ typically in the tens of writes [22].
Figure 2 sweeps ψ to show that E2-NVM's placement survives the swapping for
realistic ψ.

All policies maintain a logical→physical segment mapping.  Swap traffic goes
through the device with a DCW (differing-bits-only) mask, so the extra flips
that swapping causes are accounted — the paper notes wear leveling "may
introduce more bit flips ... due to the swap operation" (§2.3).

Crash tolerance
---------------

A segment copy is only crash-safe when data is written to a *free* segment
first and the mapping committed *last*: the old location then stays intact
until the mapping no longer points at it.  :class:`StartGapWearLeveling`
has this property by construction (the gap is free).
:class:`SegmentSwapWearLeveling` gets it by reserving one physical segment
as a rotating scratch area and performing every swap as two gap-style
moves, each committing the mapping only after its copy landed — an
in-place exchange would leave one segment half-overwritten, with the
mapping still pointing at it, if a crash fell between its two programs.

Policies expose ``mapping_state()`` / ``restore_mapping()`` plus an
``on_mapping_commit`` callback, modelling the hardware's persistent remap
table: the crash-sweep harness snapshots the state at every commit and
rebuilds the leveler from the last committed snapshot after an injected
crash (see :func:`repro.testing.crash_sweep.run_wear_leveling_crash_sweep`).
The ``"wl.swap"`` / ``"wl.gap_move"`` fault sites fire (through the
device's injector) at the start of each copy operation so sweeps can crash
at every one.
"""

from __future__ import annotations

import numpy as np

from repro.nvm.device import NVMDevice
from repro.util.rng import rng_from_seed


class NoWearLeveling:
    """Identity mapping: the controller never moves segments."""

    def attach(self, device: NVMDevice) -> None:
        """Bind to a device (no state needed)."""
        self._n_segments = device.n_segments

    @property
    def logical_segments(self) -> int:
        """Logical segments exposed (every physical one)."""
        return self._n_segments

    def to_physical(self, logical_segment: int) -> int:
        """Physical segment currently backing ``logical_segment``."""
        return logical_segment

    def after_write(self, device: NVMDevice, logical_segment: int) -> None:
        """Hook invoked by the controller after every segment write."""


class SegmentSwapWearLeveling:
    """Swap the just-written segment with a random peer every ψ writes.

    The last physical segment starts as a rotating scratch area (one
    segment of logical capacity) and every swap is two crash-safe
    gap-style moves through it: copy-to-free first, mapping commit last.

    Args:
        period: ψ, the number of writes between swaps; ``period=1`` swaps on
            every write (the adversarial case of Figure 2).
        seed: RNG seed for peer selection.
    """

    def __init__(
        self, period: int, seed: int | np.random.Generator | None = 0
    ):
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self._rng = rng_from_seed(seed)
        self._writes_since_swap = 0
        self.swaps_performed = 0
        self._logical_to_physical: np.ndarray | None = None
        self._scratch_seg: int | None = None
        self._n: int | None = None
        #: Called after every mapping-table commit (models the hardware
        #: persisting its remap table); crash harnesses snapshot here.
        self.on_mapping_commit = None

    def attach(self, device: NVMDevice) -> None:
        n = device.n_segments
        if n < 2:
            raise ValueError("segment swap needs at least 2 segments")
        self._n = n
        self._logical_to_physical = np.arange(n - 1, dtype=np.int64)
        self._scratch_seg = n - 1

    @property
    def logical_segments(self) -> int:
        """Logical segments exposed (physical minus the scratch)."""
        if self._n is None:
            raise RuntimeError("wear leveler not attached to a device")
        return self._n - 1

    def to_physical(self, logical_segment: int) -> int:
        if self._logical_to_physical is None:
            raise RuntimeError("wear leveler not attached to a device")
        return int(self._logical_to_physical[logical_segment])

    def after_write(self, device: NVMDevice, logical_segment: int) -> None:
        self._writes_since_swap += 1
        if self._writes_since_swap < self.period:
            return
        self._writes_since_swap = 0
        self._swap(device, logical_segment)

    # --------------------------------------------------- mapping persistence

    def mapping_state(self) -> dict:
        """Snapshot of the (logically media-resident) remap table."""
        assert self._logical_to_physical is not None
        return {
            "l2p": self._logical_to_physical.copy(),
            "scratch_seg": self._scratch_seg,
            "writes_since_swap": self._writes_since_swap,
            "swaps_performed": self.swaps_performed,
        }

    def restore_mapping(self, state: dict) -> None:
        """Reinstate a :meth:`mapping_state` snapshot (crash recovery)."""
        self._logical_to_physical = state["l2p"].copy()
        self._scratch_seg = state["scratch_seg"]
        self._writes_since_swap = state["writes_since_swap"]
        self.swaps_performed = state["swaps_performed"]

    def _commit_mapping(self) -> None:
        if self.on_mapping_commit is not None:
            self.on_mapping_commit()

    # ----------------------------------------------------------------- swaps

    def _swap(self, device: NVMDevice, logical_segment: int) -> None:
        """Crash-safe swap: two gap-style moves through the scratch segment.

        Each move copies into the currently *free* segment and commits the
        mapping afterwards, so at every instant the mapping points at fully
        intact data; a crash loses at most not-yet-committed moves.  The
        scratch rotates (a → b's old home → ...) which adds start-gap-like
        drift on top of the random swaps.
        """
        others = self.logical_segments - 1
        if others < 1:
            return  # one scratch + one data segment: nothing to swap with
        # Random peer among the other logical segments.
        peer = int(self._rng.integers(0, others))
        if peer >= logical_segment:
            peer += 1

        if device.faults is not None:
            device.faults.fire("wl.swap")
        # Move 1: a's content into the scratch; a's old home becomes free.
        self._move_into_free(device, logical_segment)
        # Move 2: b's content into a's old home; b's becomes the scratch.
        self._move_into_free(device, peer)
        self.swaps_performed += 1

    def _move_into_free(self, device: NVMDevice, logical: int) -> None:
        """One gap-style move: program the free scratch segment with the
        logical segment's content, then commit the mapping update."""
        assert self._scratch_seg is not None
        if device.faults is not None:
            device.faults.fire("wl.gap_move")
        size = device.segment_size
        src = int(self._logical_to_physical[logical])
        dst = self._scratch_seg
        content = device.read_array(src * size, size)
        resident = device.read_array(dst * size, size)
        diff = np.bitwise_xor(content, resident)
        if diff.any():
            device.program(dst * size, content, program_mask=diff)
        self._logical_to_physical[logical] = dst
        self._scratch_seg = src
        self._commit_mapping()


class StartGapWearLeveling:
    """Start-Gap wear leveling (Qureshi et al., MICRO'09).

    One spare "gap" segment rotates through the device: every ψ writes the
    segment adjacent to the gap is copied into it and the gap advances, so
    hot logical segments slowly migrate over the whole media.

    Crash-safe by construction: the copy lands in the (free) gap first and
    the gap pointer — the mapping — moves only afterwards, so a crash
    mid-copy leaves the mapping pointing at the intact donor segment.
    """

    def __init__(self, period: int):
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self._writes_since_move = 0
        self.moves_performed = 0
        self._start = 0
        self._gap: int | None = None
        self._n: int | None = None
        #: Called after every gap-pointer commit (see SegmentSwap's note).
        self.on_mapping_commit = None

    def attach(self, device: NVMDevice) -> None:
        # The last physical segment starts as the gap; logical space is one
        # segment smaller than physical space.
        self._n = device.n_segments
        self._gap = self._n - 1
        self._start = 0
        if self._n < 2:
            raise ValueError("start-gap needs at least 2 segments")

    @property
    def logical_segments(self) -> int:
        """Number of logical segments exposed (physical minus the gap)."""
        if self._n is None:
            raise RuntimeError("wear leveler not attached to a device")
        return self._n - 1

    def to_physical(self, logical_segment: int) -> int:
        if self._n is None or self._gap is None:
            raise RuntimeError("wear leveler not attached to a device")
        if not 0 <= logical_segment < self._n - 1:
            raise IndexError(f"logical segment {logical_segment} out of range")
        raw = (logical_segment + self._start) % (self._n - 1)
        # Skip over the gap: raw positions at or above the gap shift up by 1.
        return raw + 1 if raw >= self._gap else raw

    def after_write(self, device: NVMDevice, logical_segment: int) -> None:
        self._writes_since_move += 1
        if self._writes_since_move < self.period:
            return
        self._writes_since_move = 0
        self._move_gap(device)

    def mapping_state(self) -> dict:
        """Snapshot of the (logically media-resident) gap/start pointers."""
        return {
            "start": self._start,
            "gap": self._gap,
            "writes_since_move": self._writes_since_move,
            "moves_performed": self.moves_performed,
        }

    def restore_mapping(self, state: dict) -> None:
        """Reinstate a :meth:`mapping_state` snapshot (crash recovery)."""
        self._start = state["start"]
        self._gap = state["gap"]
        self._writes_since_move = state["writes_since_move"]
        self.moves_performed = state["moves_performed"]

    def _move_gap(self, device: NVMDevice) -> None:
        assert self._n is not None and self._gap is not None
        if device.faults is not None:
            device.faults.fire("wl.gap_move")
        size = device.segment_size
        donor = (self._gap - 1) % self._n
        content = device.read_array(donor * size, size)
        old_gap = device.read_array(self._gap * size, size)
        # Gap-first write order: the donor keeps its data until the gap
        # pointer (the mapping) commits below.
        diff = np.bitwise_xor(content, old_gap)
        if diff.any():
            device.program(self._gap * size, content, program_mask=diff)
        wrapped = self._gap == 0
        self._gap = donor
        self.moves_performed += 1
        if wrapped:
            # The gap jumped from physical 0 back to the top: one full
            # revolution completed, so the logical ring rotates by one.
            self._start = (self._start + 1) % (self._n - 1)
        if self.on_mapping_commit is not None:
            self.on_mapping_commit()
