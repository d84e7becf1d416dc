"""Baseline write schemes and placement strategies from the paper's evaluation.

Two families are reproduced (§5.2):

**Read-before-write (RBW) bit-flip reduction schemes** — run inside the
memory controller and transform the data written to a *fixed* address:

- :class:`~repro.baselines.naive.NaiveWrite` — program every cell (no RBW).
- :class:`~repro.baselines.dcw.DCW` — Data-Comparison Write [52]: program
  only differing cells.
- :class:`~repro.baselines.fnw.FNW` — Flip-N-Write [10]: per word, store the
  value or its complement, whichever flips fewer cells.
- :class:`~repro.baselines.minshift.MinShift` — [37]: choose a per-word
  circular shift minimising flips.
- :class:`~repro.baselines.captopril.Captopril` — [23]: mask flips on the
  hottest bit positions within each word.
- :class:`~repro.baselines.fmr.FMR` — Flip-Mirror-Rotate [46]: per-word
  minimum over four encodings.
- :class:`~repro.baselines.fpc.FPC` — frequent-pattern-compressed writes
  [15]: compressible words program only their short form.

**Memory-aware placement strategies** — run in software and choose *which*
free address an incoming value is written to:

- :class:`~repro.baselines.pnw.PNWPlacer` — Predict-and-Write [26]: K-means
  (optionally PCA+K-means) over raw segment bits.
- :class:`~repro.baselines.hamming_tree.HammingTreePlacer` — Hamming-Tree
  [28, 30]: a BK-tree over free-segment contents, nearest-neighbour lookup.
- :class:`~repro.baselines.sketch.SketchPlacer` — nearest free segment by
  a bit-sampled content sketch (the durable store's own placement; import
  it from its module, which loads :mod:`repro.core`);
- :class:`~repro.baselines.naive.ArbitraryPlacer` — FIFO free list (what
  "prior methods pick arbitrarily" means in §1).

E2-NVM itself is the VAE+K-means placer in :mod:`repro.core`.
"""

from repro.baselines.base import Placer, WritePlan, WriteScheme
from repro.baselines.naive import ArbitraryPlacer, NaiveWrite
from repro.baselines.dcw import DCW
from repro.baselines.fnw import FNW
from repro.baselines.minshift import MinShift
from repro.baselines.captopril import Captopril
from repro.baselines.datacon import DataConPlacer
from repro.baselines.fmr import FMR
from repro.baselines.fpc import FPC
from repro.baselines.hamming_tree import HammingTreePlacer
from repro.baselines.pnw import PNWPlacer

__all__ = [
    "WritePlan",
    "WriteScheme",
    "Placer",
    "NaiveWrite",
    "ArbitraryPlacer",
    "DCW",
    "FNW",
    "MinShift",
    "Captopril",
    "FMR",
    "FPC",
    "DataConPlacer",
    "HammingTreePlacer",
    "PNWPlacer",
]
