"""The paper's worked padding example (Table 1 + Figure 5).

A 12-segment PCM grouped into 3 clusters; input d1 = [0,0,0,1] padded to 8
bits under each strategy/position.  The paper's exact cluster predictions
depend on its trained model, but the *structural* properties it illustrates
are checkable exactly:

- padded outputs have the model width and embed d1 at the right place;
- one-padding of d1 ([1,1,1,1,0,0,0,1]) is nearest (Hamming) to cluster 2 of
  Table 1, as the paper's walk-through states;
- zero-padding at the beginning lands nearest to cluster 1 ([0,0,0,0,0,0,0,1]
  is closest to [0,0,0,0,1,0,1,0]-style contents), matching Figure 5's row.
"""

import importlib.util
import pathlib

import numpy as np

from repro.core.padding import Padder

WALKTHROUGH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "examples" / "padding_walkthrough.py"
)

# Table 1 of the paper: 12 memory segments in 3 clusters.
TABLE_1 = {
    0: [
        [0, 0, 1, 1, 1, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 1, 1, 0, 0],
        [0, 0, 1, 1, 1, 0, 0, 0],
    ],
    1: [
        [1, 0, 0, 0, 1, 0, 1, 1],
        [0, 0, 0, 0, 1, 0, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 0, 0, 0, 1, 0, 1, 0],
    ],
    2: [
        [1, 0, 1, 1, 0, 0, 0, 0],
        [0, 1, 1, 1, 0, 0, 1, 0],
        [1, 1, 1, 1, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0, 0, 0],
    ],
}

D1 = np.array([0.0, 0.0, 0.0, 1.0])


def nearest_cluster(bits: np.ndarray) -> int:
    """Hamming-nearest cluster of Table 1 (average member distance)."""
    best, best_dist = -1, None
    for cluster, members in TABLE_1.items():
        dist = float(
            np.mean([np.abs(np.array(m) - bits).sum() for m in members])
        )
        if best_dist is None or dist < best_dist:
            best, best_dist = cluster, dist
    return best


class TestPaperExample:
    def test_one_padding_beginning_matches_walkthrough(self):
        """§4.1.1: one-padding d1 at the beginning gives [1,1,1,1,0,0,0,1],
        and 'cluster 2 is predicted to be the best cluster'."""
        out = Padder(8, strategy="one", position="begin").pad(D1)
        assert out.tolist() == [1, 1, 1, 1, 0, 0, 0, 1]
        assert nearest_cluster(out) == 2

    def test_zero_padding_beginning(self):
        """Figure 5's zero/beginning row: output [0,0,0,0,0,0,0,1],
        predicted cluster 1."""
        out = Padder(8, strategy="zero", position="begin").pad(D1)
        assert out.tolist() == [0, 0, 0, 0, 0, 0, 0, 1]
        assert nearest_cluster(out) == 1

    def test_input_based_middle_distribution(self):
        """§4.1.2: for d1 the padded part contains 1s with probability 0.25.
        Check the long-run frequency of the IB padding bits."""
        ones = 0
        total = 0
        for seed in range(40):
            padder = Padder(8, strategy="input", position="middle", seed=seed)
            out = padder.pad(D1)
            # middle position: data halves at the ends, pad in between.
            pad_bits = out[2:6]
            ones += int(pad_bits.sum())
            total += 4
        assert abs(ones / total - 0.25) < 0.1

    def test_every_strategy_embeds_d1(self):
        """All outputs are 8 bits and contain d1 at the position's slot."""
        for strategy in ("zero", "one", "random", "input", "dataset"):
            out = Padder(
                8, strategy=strategy, position="begin", seed=1
            ).pad(D1)
            assert out.size == 8
            assert np.array_equal(out[4:], D1)
            out = Padder(
                8, strategy=strategy, position="end", seed=1
            ).pad(D1)
            assert np.array_equal(out[:4], D1)

    def test_table1_clusters_are_internally_similar(self):
        """Sanity: Table 1's clusters group by Hamming similarity — the
        within-cluster distance is below the between-cluster distance."""
        within, between = [], []
        clusters = list(TABLE_1.items())
        for ci, members in clusters:
            arr = np.array(members)
            for i in range(len(arr)):
                for j in range(i + 1, len(arr)):
                    within.append(np.abs(arr[i] - arr[j]).sum())
            for cj, others in clusters:
                if cj <= ci:
                    continue
                for a in members:
                    for b in others:
                        between.append(np.abs(np.array(a) - np.array(b)).sum())
        assert np.mean(within) < np.mean(between)

    def test_lstm_toy_example_last_bit_prediction(self):
        """§4.1.3's toy: a 7-bits-in / 1-bit-out LSTM learns to complete
        Table-1-like items so they join the right cluster.  We train on the
        full 8-bit members and check the learned continuation of the
        cluster-1 prefixes is a high bit (cluster 1 items end in 1, 1, 1, 0
        — mostly 1), matching the paper's predictions ~[1.056, 0.869,
        1.038] for the cluster-1 items.  The model is the walkthrough
        example's, trained one way for both."""
        spec = importlib.util.spec_from_file_location("walkthrough", WALKTHROUGH)
        walkthrough = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(walkthrough)
        lstm = walkthrough.trained_lstm()
        # Predict the 8th bit of the first three cluster-1 items from their
        # repeated prefix.
        votes = []
        for member in TABLE_1[1][:3]:
            context = np.tile(np.array(member, dtype=float), 3)[:-1]
            pad = lstm.generate(context, 1)
            votes.append(pad[0])
        assert np.mean(votes) >= 0.5
