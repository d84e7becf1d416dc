"""A slow, per-bit reference model of the simulated medium.

Pure Python loops over individual cells — no packed bytes, no NumPy on the
write side — restating what :class:`repro.nvm.NVMDevice` promises: content
with stuck-at cells (the killing pulse still lands), the drift overlay
(force-pulse of drifted cells, timer reset; a dying cell stops drifting),
per-cell wear,
``segment_write_count``, ``bit_wear`` and the energy/latency formulas.
``tests/nvm/test_device_twin.py`` drives it and the real device with the
same operations and requires them to agree after every step; it lives
under ``tests/`` because it is the instrument the fast kernels are checked
against, never a code path of the product.
"""

from __future__ import annotations

from repro.nvm import NVMDevice
from repro.nvm.stats import DeviceStats

LINE = 64


def _bits(data: bytes) -> list[int]:
    """MSB-first bits of ``data`` (``np.unpackbits`` order)."""
    return [(byte >> (7 - bit)) & 1 for byte in data for bit in range(8)]


def _pack(bits: list[int]) -> bytes:
    out = bytearray(len(bits) // 8)
    for i, bit in enumerate(bits):
        out[i // 8] |= bit << (7 - i % 8)
    return bytes(out)


class ReferenceDevice:
    """Per-cell twin of ``device``; adopts its seeded content and per-cell
    budgets (the draws are the device's, everything after is restated)."""

    def __init__(self, device: NVMDevice) -> None:
        self.capacity = device.capacity_bytes
        self.segment_size = device.segment_size
        n_cells = self.capacity * 8
        self.cells = _bits(device.peek(0, self.capacity).tobytes())
        self.energy = device.energy_model
        self.latency = device.latency_model
        assert self.energy.cache_line_bytes == LINE
        self.stats = DeviceStats()
        self.segment_writes = [0] * device.n_segments
        self.bit_wear = [0] * n_cells if device._bit_wear is not None else None

        self.mortal = device.wearout is not None
        self.wear = [0] * n_cells
        self.stuck = [False] * n_cells
        self.endurance = (
            device._cell_budgets(device.wearout).tolist()
            if self.mortal
            else None
        )

        self.drifting = device.drift is not None
        self.drifted = [False] * n_cells
        self.last_program = [0] * n_cells
        self.clock = 0
        if self.drifting:
            self.retention = device._drift_budget.tolist()
            self.wear_scale = device.drift.wear_scale

        #: What an attached injector would count at each site.
        self.fired = {"device.stuck_at": 0, "device.drift_flip": 0}

    # ----------------------------------------------------------------- reads

    def sensed(self, addr: int, length: int) -> bytes:
        """What any read returns: true charge, drifted cells flipped."""
        span = range(addr * 8, (addr + length) * 8)
        return _pack([self.cells[c] ^ self.drifted[c] for c in span])

    def read(self, addr: int, length: int) -> bytes:
        self.stats.reads += 1
        self.stats.bytes_read += length
        self.stats.read_energy_pj += (
            self.energy.static_read_energy_pj
            + length * self.energy.read_energy_per_byte_pj
        )
        self.stats.read_latency_ns += (
            self.latency.static_read_ns + length * self.latency.byte_read_ns
        )
        return self.sensed(addr, length)

    def mask_of(self, flags: list[bool], addr: int, length: int) -> bytes:
        return _pack([int(f) for f in flags[addr * 8 : (addr + length) * 8]])

    # ---------------------------------------------------------------- writes

    def program(
        self,
        addr: int,
        new: bytes,
        mask: bytes | None,
        aux_bits: int = 0,
        torn_at: int | None = None,
        accounted: bool = True,
    ) -> tuple | None:
        """One media write; returns the six ``WriteResult`` fields.

        ``torn_at``: power fails after that many bytes — the prefix's
        pulses land and nothing else happens.  ``accounted=False``: a row
        of a batch that a later row's crash interrupts — pulses and wear
        are on the media, the accounting (DRAM) died with the process.
        """
        length = len(new)
        want = _bits(new)
        pulse = _bits(mask) if mask is not None else [1] * (length * 8)
        first = addr * 8
        pulsed, flipped, lines = [], 0, set()
        landed = length if torn_at is None else torn_at
        for i in range(landed * 8):
            cell = first + i
            # A drifted cell in the written range is force-pulsed.
            if not (pulse[i] or self.drifted[cell]):
                continue
            pulsed.append(cell)
            lines.add(cell // 8 // LINE)
            if self.stuck[cell]:
                continue  # the pulse is paid for and silently fails
            flipped += self.cells[cell] != want[i]
            self.cells[cell] = want[i]
            self.drifted[cell] = False
            self.last_program[cell] = self.clock

        if torn_at is not None:
            return None
        # Wear is charged after the pulse landed: the exhausting program
        # still takes effect, the next one is the first to fail.
        died = False
        for cell in pulsed:
            if self.bit_wear is not None and accounted:
                self.bit_wear[cell] += 1
            if self.mortal:
                self.wear[cell] += 1
                if (
                    self.wear[cell] >= self.endurance[cell]
                    and not self.stuck[cell]
                ):
                    self.stuck[cell] = died = True
        self.fired["device.stuck_at"] += died
        if not accounted:
            return None

        n_pulsed, dirty = len(pulsed), len(lines)
        energy = (
            self.energy.static_write_energy_pj
            + dirty * self.energy.line_energy_pj
            + (n_pulsed + aux_bits) * self.energy.flip_energy_pj
        )
        latency = (
            self.latency.static_write_ns
            + dirty * self.latency.line_write_ns
            + (n_pulsed + aux_bits) * self.latency.bit_program_ns
        )
        self.stats.writes += 1
        self.stats.bytes_written += length
        self.stats.bits_programmed += n_pulsed
        self.stats.bits_flipped += flipped
        self.stats.aux_bits_programmed += aux_bits
        self.stats.dirty_lines_written += dirty
        self.stats.write_energy_pj += energy
        self.stats.write_latency_ns += latency
        last_byte = addr + length - 1
        for seg in range(
            addr // self.segment_size, last_byte // self.segment_size + 1
        ):
            self.segment_writes[seg] += 1
        return (n_pulsed, flipped, dirty, aux_bits, energy, latency)

    # ------------------------------------------------------- aging and time

    def age(self, cycles: int) -> int:
        died = 0
        for cell in range(self.capacity * 8):
            self.wear[cell] += cycles
            if self.stuck[cell] or self.wear[cell] < self.endurance[cell]:
                continue
            # Dead cells are frozen charge: one that dies drifted stops
            # sensing flipped (a pulse-killed cell was healed by its pulse).
            self.stuck[cell] = True
            self.drifted[cell] = False
            died += 1
        return died

    def advance_time(self, ticks: int) -> int:
        self.clock += ticks
        wear = self.wear if self.mortal else self.bit_wear
        fresh = 0
        for cell in range(self.capacity * 8):
            budget = self.retention[cell]
            if self.wear_scale > 0 and wear is not None:
                budget = max(
                    budget / (1.0 + self.wear_scale * wear[cell]), 1.0
                )
            if (
                self.clock - self.last_program[cell] >= budget
                and not self.stuck[cell]  # frozen charge neither drifts...
                and not self.drifted[cell]
            ):
                self.drifted[cell] = True
                fresh += 1
        self.fired["device.drift_flip"] += fresh > 0
        return fresh
