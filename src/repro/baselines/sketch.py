"""The durable store's sketch kernel (:class:`repro.core.sketch.
SegmentSketch`) as a baseline placer at any width, for the sketch-16/64/128
arms of the ablation and lifetime benches."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Placer
from repro.core.sketch import SegmentSketch


class SketchPlacer(Placer):
    """Sketch placement over ``free_addresses`` (segment-aligned), whose
    ``contents`` map each address to its current bit vector."""

    def __init__(self, free_addresses, contents, segment_size: int,
                 n_bits: int, seed: int = 0) -> None:
        self.name = f"sketch-{n_bits}"
        self.segment_size = segment_size
        addrs = list(free_addresses)
        self.sketch = SegmentSketch(
            segment_size, max(addrs) // segment_size + 1, seed, n_bits
        )
        for addr in addrs:
            self.release(addr, contents[addr])

    def choose(self, value_bits: np.ndarray) -> int:
        words, masks = self.sketch.sketch_values([np.packbits(value_bits)])
        (segment,), _, _ = self.sketch.claim(words, masks)
        return int(segment) * self.segment_size

    def release(self, addr: int, content_bits: np.ndarray) -> None:
        segment = addr // self.segment_size
        row = np.packbits(np.asarray(content_bits, dtype=np.uint8))
        self.sketch.words[segment] = self.sketch.sketch(row[None, :])[0]
        self.sketch.release([segment])

    def free_count(self) -> int:
        return int(self.sketch.free.sum())

    def bytes_per_segment(self) -> float:
        """DRAM bytes the sketch and free set keep per segment."""
        return self.sketch.memory_footprint_bytes() / len(self.sketch.free)
