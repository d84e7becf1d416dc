"""Shared plumbing for the NVM index structures of Figure 12.

``NVMIndex`` tracks the logical data volume so the figure's metric —
programmed bits per written data bit — is uniform across structures, and the
value-store strategies implement the standalone vs. plugged-into-E2-NVM
split described in the package docstring.
"""

from __future__ import annotations

import abc
import struct

from repro.nvm.controller import MemoryController


class InlineValues:
    """Standalone mode: the structure stores value bytes itself."""

    plugged = False

    def store(self, value: bytes) -> bytes:
        """Return the bytes the structure should embed for this value."""
        return value

    def load(self, controller: MemoryController, stored: bytes) -> bytes:
        """Recover the value from the embedded bytes."""
        return stored

    def release(self, stored: bytes) -> None:
        """Nothing to free: the bytes die with the structure's node."""

    def extra_bits_programmed(self) -> int:
        """Programmed bits on storage the strategy owns (none inline)."""
        return 0


class PluggedValues:
    """Plugged mode: values are placed by an E2-NVM engine; the structure
    embeds an 8-byte little-endian address + 4-byte length pointer."""

    plugged = True
    POINTER_BYTES = 12

    def __init__(self, engine) -> None:
        self.engine = engine
        self._stats_base = engine.stats.snapshot()

    def store(self, value: bytes) -> bytes:
        addr, _ = self.engine.write(value)
        return struct.pack("<QI", addr, len(value))

    def load(self, controller: MemoryController, stored: bytes) -> bytes:
        addr, length = struct.unpack("<QI", stored[: self.POINTER_BYTES])
        return self.engine.controller.read(addr, length)

    def release(self, stored: bytes) -> None:
        addr, _ = struct.unpack("<QI", stored[: self.POINTER_BYTES])
        self.engine.release(addr)

    def extra_bits_programmed(self) -> int:
        delta = self.engine.stats.snapshot() - self._stats_base
        return delta.bits_programmed


class NVMIndex(abc.ABC):
    """An index structure persisted on simulated NVM.

    Args:
        controller: NVM front-end for the structure's own nodes.
        values: value-store strategy (:class:`InlineValues` or
            :class:`PluggedValues`).
    """

    name: str = "index"

    def __init__(
        self, controller: MemoryController, values=None
    ) -> None:
        self.controller = controller
        self.values = values if values is not None else InlineValues()
        self.logical_data_bits = 0
        self._stats_base = controller.stats.snapshot()

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update one key/value pair."""

    @abc.abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """Look up a key; ``None`` when absent."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> bool:
        """Remove a key; returns whether it existed."""

    def record_data(self, key: bytes, value: bytes) -> None:
        """Account the logical payload of one write (for the Fig. 12 ratio)."""
        self.logical_data_bits += 8 * (len(key) + len(value))

    def bits_programmed(self) -> int:
        """Programmed bits since construction, on the structure's device
        plus (in plugged mode) the engine's device."""
        delta = self.controller.stats.snapshot() - self._stats_base
        return delta.bits_programmed + self.values.extra_bits_programmed()

    def bit_updates_per_data_bit(self) -> float:
        """The Figure 12 metric."""
        if not self.logical_data_bits:
            return 0.0
        return self.bits_programmed() / self.logical_data_bits


def encode_kv(key: bytes, stored_value: bytes) -> bytes:
    """Length-prefixed key/value encoding used by several structures."""
    return struct.pack("<HH", len(key), len(stored_value)) + key + stored_value
