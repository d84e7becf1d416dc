"""Data-Comparison Write (DCW) — Yang et al., ISCAS 2007 [52].

The canonical read-before-write scheme: read the old content, compare, and
pulse only the cells whose value must change.  Real Optane controllers do
this at cache-line granularity; DCW is also the substrate every placement
strategy (PNW, Hamming-Tree, E2-NVM) runs on.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import WritePlan, WriteScheme


class DCW(WriteScheme):
    """Program only the cells that differ from the stored content."""

    name = "dcw"

    def prepare(
        self, logical_addr: int, old_stored: np.ndarray, new_logical: np.ndarray
    ) -> WritePlan:
        mask = np.bitwise_xor(old_stored, new_logical)
        return WritePlan(stored=new_logical, program_mask=mask)

    def prepare_many(
        self,
        logical_addrs,
        old_stored: np.ndarray,
        new_logical: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        # DCW keeps no per-address metadata, so the whole batch is one XOR
        # and no row programs an aux cell.
        return new_logical, np.bitwise_xor(old_stored, new_logical), 0
