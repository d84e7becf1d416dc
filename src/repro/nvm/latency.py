"""Analytic latency model for the simulated NVM device.

Figure 1 of the paper shows that write latency, like energy, improves when the
overwritten content is similar: the controller can skip flushing cache lines
that are identical to the media content [26].  We model::

    T(write) = T_static + n_dirty_lines * T_line + n_programmed_bits * T_bit

Defaults approximate Optane DC PMem: ~300 ns base write overhead and ~100 ns
per written 64 B line; the per-bit term is small and models iterative
program-and-verify in PCM.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyModel:
    """Per-operation latency constants, in nanoseconds."""

    static_write_ns: float = 300.0
    line_write_ns: float = 100.0
    bit_program_ns: float = 0.05
    static_read_ns: float = 170.0
    byte_read_ns: float = 0.35

    def write_latency(
        self, n_bytes: int, n_programmed_bits: int, n_dirty_lines: int
    ) -> float:
        """Latency (ns) for one write with the given activity (ints, or
        per-write arrays for a batch of same-size writes)."""
        if n_bytes <= 0:
            raise ValueError("write size must be positive")
        return (
            self.static_write_ns
            + n_dirty_lines * self.line_write_ns
            + n_programmed_bits * self.bit_program_ns
        )

    def read_latency(self, n_bytes: int) -> float:
        """Latency (ns) for one read of ``n_bytes``."""
        if n_bytes <= 0:
            raise ValueError("read size must be positive")
        return self.static_read_ns + n_bytes * self.byte_read_ns
