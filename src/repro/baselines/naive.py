"""The no-optimisation baselines: program every cell, place anywhere.

``NaiveWrite`` models a controller without read-before-write: every cell in
the written range receives a pulse.  ``ArbitraryPlacer`` models the placement
behaviour the paper ascribes to prior systems (§1): "new data items select an
arbitrary location in memory" — a FIFO free list.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.baselines.base import Placer, WritePlan, WriteScheme


class NaiveWrite(WriteScheme):
    """Program all cells on every write (no read-before-write)."""

    name = "naive"

    def prepare(
        self, logical_addr: int, old_stored: np.ndarray, new_logical: np.ndarray
    ) -> WritePlan:
        return WritePlan(stored=new_logical, program_mask=None)


class ArbitraryPlacer(Placer):
    """Content-oblivious placement: a FIFO free list of segment addresses."""

    name = "arbitrary"

    def __init__(self, free_addresses) -> None:
        self._free: deque[int] = deque(free_addresses)

    def choose(self, value_bits: np.ndarray) -> int:
        if not self._free:
            raise RuntimeError("no free segments available")
        return self._free.popleft()

    def release(self, addr: int, content_bits: np.ndarray) -> None:
        self._free.append(addr)

    def free_count(self) -> int:
        return len(self._free)


class BestFitPlacer(Placer):
    """Oracle placement: exhaustively scan every free segment for the minimum
    Hamming distance.

    This is the upper bound that clustering approximates; it is quadratic in
    pool size and exists for the first-fit-vs-best-fit ablation bench.
    """

    name = "best-fit"

    def __init__(self, free_addresses, contents) -> None:
        """``contents`` maps address -> current bit vector of that segment."""
        self._free: dict[int, np.ndarray] = {
            addr: np.asarray(contents[addr], dtype=np.float32)
            for addr in free_addresses
        }

    def choose(self, value_bits: np.ndarray) -> int:
        if not self._free:
            raise RuntimeError("no free segments available")
        value_bits = np.asarray(value_bits, dtype=np.float32)
        best_addr, best_dist = -1, None
        for addr, content in self._free.items():
            dist = float(np.sum(np.abs(content - value_bits)))
            if best_dist is None or dist < best_dist:
                best_addr, best_dist = addr, dist
        del self._free[best_addr]
        return best_addr

    def release(self, addr: int, content_bits: np.ndarray) -> None:
        self._free[addr] = np.asarray(content_bits, dtype=np.float32)

    def free_count(self) -> int:
        return len(self._free)

