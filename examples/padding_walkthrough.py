"""The paper's worked padding example (Table 1 and Figure 5), executable.

A 12-segment PCM grouped into 3 clusters receives the 4-bit item
d1 = [0,0,0,1], which must be padded to the 8-bit model width.  This script
prints every strategy x position combination, the padded output, and the
Hamming-nearest Table-1 cluster — reproducing the structure of Figure 5.

Run:  python examples/padding_walkthrough.py
"""

import numpy as np

from repro.core.padding import Padder
from repro.ml.lstm import LSTMPredictor

TABLE_1 = {
    0: [[0, 0, 1, 1, 1, 1, 0, 1], [0, 0, 1, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 0, 0, 0]],
    1: [[1, 0, 0, 0, 1, 0, 1, 1], [0, 0, 0, 0, 1, 0, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 0, 1, 0, 1, 0]],
    2: [[1, 0, 1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0, 1, 0],
        [1, 1, 1, 1, 0, 0, 0, 0], [1, 1, 0, 1, 0, 0, 0, 0]],
}
D1 = np.array([0.0, 0.0, 0.0, 1.0])


def nearest_cluster(bits: np.ndarray) -> int:
    best, best_dist = -1, None
    for cluster, members in TABLE_1.items():
        dist = float(np.mean([np.abs(np.array(m) - bits).sum() for m in members]))
        if best_dist is None or dist < best_dist:
            best, best_dist = cluster, dist
    return best


def trained_lstm() -> LSTMPredictor:
    """Train the toy LSTM on (repetitions of) the Table 1 contents, as in
    the paper's §4.1.3 snippet."""
    rows = [np.array(m, dtype=float) for ms in TABLE_1.values() for m in ms]
    train = np.stack([np.tile(r, 6) for r in rows])
    lstm = LSTMPredictor(window_bits=8, chunk_bits=1, hidden_dim=12, seed=0)
    lstm.fit(train, epochs=8, lr=1e-2)
    return lstm


def fmt(bits: np.ndarray) -> str:
    return "[" + ",".join(str(int(b)) for b in bits) + "]"


def main() -> None:
    print(f"input item d1 = {fmt(D1)}; model width = 8 bits")
    print("Table 1 memory pool: 12 segments in 3 clusters\n")
    lstm = trained_lstm()
    memory_ones = float(
        np.mean([b for ms in TABLE_1.values() for m in ms for b in m])
    )
    for position in ("begin", "middle", "end"):
        print(f"--- padding position: {position} ---")
        for strategy in ("zero", "one", "random", "input", "dataset",
                         "memory", "learned"):
            padder = Padder(
                8, strategy=strategy, position=position, seed=4,
                lstm=lstm if strategy == "learned" else None,
            )
            padded = padder.pad(D1, memory_ones_fraction=memory_ones)
            print(
                f"  {strategy:>8}: {fmt(padded)}  ->  "
                f"cluster {nearest_cluster(padded)}"
            )
        print()
    print("(padded bits are used only for prediction; only d1's 4 real "
          "bits would be written to NVM)")


if __name__ == "__main__":
    main()
