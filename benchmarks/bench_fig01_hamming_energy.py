"""Figure 1: latency and energy vs. overwrite similarity on "Optane".

The paper allocates 256 B blocks via PMDK, initialises them with random
data, then overwrites each block with content x% different (Hamming) and
measures per-round latency and energy, observing up to ~56% energy savings
for similar content.

We reproduce the protocol over the simulated device + pmem layer: each
overwrite is one pool transaction (a commit group with no undo log, as
the durable store commits), and the controller's DCW substrate programs
only differing cells.  PMDK's undo-log write is not modelled.
"""

from __future__ import annotations

import numpy as np

from common import print_table, run_once

from repro.nvm import MemoryController, NVMDevice
from repro.pmem import PersistentPool

BLOCK_SIZE = 256
N_BLOCKS = 64
PERCENTS = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]


def flip_fraction(data: np.ndarray, fraction: float, rng) -> np.ndarray:
    """Return a copy of ``data`` with exactly ``fraction`` of bits flipped."""
    bits = np.unpackbits(data)
    n_flip = int(round(bits.size * fraction))
    positions = rng.choice(bits.size, size=n_flip, replace=False)
    bits[positions] ^= 1
    return np.packbits(bits)


def run_figure1(seed: int = 0) -> list[list]:
    rng = np.random.default_rng(seed)
    rows = []
    for percent in PERCENTS:
        device = NVMDevice(
            capacity_bytes=(N_BLOCKS + 2) * BLOCK_SIZE,
            segment_size=BLOCK_SIZE,
            initial_fill="zero",
        )
        pool = PersistentPool(MemoryController(device))
        blocks = [pool.object_address(i) for i in range(N_BLOCKS)]
        # Round setup: initialise all blocks with random data.
        contents = {}
        for addr in blocks:
            data = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
            pool.write(addr, data.tobytes())
            contents[addr] = data
        device.reset_stats()
        # The measured round: overwrite with x%-different content through
        # PMDK-style transactions.
        for addr in blocks:
            new = flip_fraction(contents[addr], percent / 100.0, rng)
            with pool.transaction() as tx:
                tx.write(addr, new.tobytes())
        stats = device.stats
        rows.append(
            [
                percent,
                stats.write_energy_pj / N_BLOCKS / 1000.0,  # nJ per block
                stats.write_latency_ns / N_BLOCKS / 1000.0,  # us per block
            ]
        )
    # Energy saving of each point relative to the 100%-different round.
    e_max = rows[-1][1]
    return [row + [100.0 * (1.0 - row[1] / e_max)] for row in rows]


def report(rows: list[list]) -> None:
    print_table(
        "Figure 1: energy & latency vs overwrite hamming distance",
        ["diff_%", "energy_nJ/block", "latency_us/block", "saving_vs_100%"],
        rows,
    )


def test_fig01_hamming_energy(benchmark):
    rows = run_once(benchmark, run_figure1)
    report(rows)
    energies = [r[1] for r in rows]
    assert energies == sorted(energies), "energy must rise with difference"
    assert rows[0][3] >= 45.0, "identical overwrite should save ~56%"


if __name__ == "__main__":
    report(run_figure1())
