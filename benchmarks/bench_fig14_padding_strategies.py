"""Figure 14: bit flips per word under each padding strategy and position.

Protocol (§5.3): train the model on 80% of the dataset; build the test set
by cropping one-third of each test item (so it is shorter than the model
width), pad it back with each of the 7 strategies x 3 positions, and
measure the bit flips of the resulting placements.

Expected ordering: data-aware (IB/DB/MB) beats data-agnostic (0/1/random);
learned (LSTM) padding is best; edge padding is the most variable.

The paper runs this per dataset; we use the multi-class image-like dataset,
where cluster identity (and therefore padding quality) matters most —
single-scene video content collapses to one cluster and all paddings tie.
"""

from __future__ import annotations

import numpy as np

from common import bench_config, print_table, run_once, values_from_bits

from repro.core import E2NVM
from repro.core.padding import Padder
from repro.ml.lstm import LSTMPredictor
from repro.nvm import MemoryController, NVMDevice
from repro.workloads.datasets import make_image_dataset

SEGMENT = 64
N_SEGMENTS = 192
N_TEST = 120
STRATEGIES = ["zero", "one", "random", "input", "dataset", "memory", "learned"]
POSITIONS = ["begin", "edges", "end"]
WORD_BITS = 32


def build_engine_and_data(seed: int):
    bits, _ = make_image_dataset(
        N_SEGMENTS + N_TEST, SEGMENT * 8, n_classes=8, noise=0.05, seed=seed
    )
    train_bits, test_bits = bits[:N_SEGMENTS], bits[N_SEGMENTS:]

    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="zero",
    )
    controller = MemoryController(device)
    for i, value in enumerate(values_from_bits(train_bits)):
        controller.write(i * SEGMENT, value)
    device.reset_stats()
    engine = E2NVM(controller, bench_config(n_clusters=6, seed=seed))
    engine.train()

    lstm = LSTMPredictor(window_bits=64, chunk_bits=8, hidden_dim=24, seed=seed)
    lstm.fit(train_bits, epochs=4, lr=5e-3)
    return engine, train_bits, test_bits, lstm


def crop(item: np.ndarray, position: str, keep_fraction: float = 2 / 3):
    """Crop one third of the item away, from the side the padding will
    later fill (begin-padding fills a beginning crop, and so on)."""
    n_keep = int(item.size * keep_fraction)
    n_keep -= n_keep % 8
    if position == "begin":
        return item[item.size - n_keep :]
    if position == "end":
        return item[:n_keep]
    # edges: keep the middle.
    start = (item.size - n_keep) // 2
    return item[start : start + n_keep]


def run_figure14(seed: int = 0) -> list[list]:
    engine, train_bits, test_bits, lstm = build_engine_and_data(seed)
    memory_fraction = float(train_bits.mean())
    rows = []
    for position in POSITIONS:
        for strategy in STRATEGIES:
            padder = Padder(
                SEGMENT * 8,
                strategy=strategy,
                position=position,
                seed=seed,
                lstm=lstm if strategy == "learned" else None,
            )
            flips = []
            crops = [crop(item, position) for item in test_bits]
            clusters = engine.pipeline.model.predict(
                padder.pad_batch(crops, memory_ones_fraction=memory_fraction)
            )
            for cropped, cluster in zip(crops, clusters.tolist()):
                addr = engine.dap.get(cluster, centroids=engine.pipeline.centroids)
                old_bits = np.unpackbits(engine.controller.peek(addr, SEGMENT))
                # Only the real (cropped) bits are written; measure their
                # flips against the matching region of the old content.
                if position == "begin":
                    region = old_bits[-cropped.size :]
                elif position == "end":
                    region = old_bits[: cropped.size]
                else:
                    start = (old_bits.size - cropped.size) // 2
                    region = old_bits[start : start + cropped.size]
                flips.append(float(np.abs(region - cropped).sum()))
                engine.dap.add(cluster, addr)  # non-destructive probe
            per_word = np.mean(flips) / (len(flips) and (cropped.size / WORD_BITS))
            rows.append([position, strategy, per_word, float(np.std(flips))])
    return rows


def report(rows: list[list]) -> None:
    print_table(
        "Figure 14: bit flips per 32-bit word by padding strategy/position",
        ["position", "strategy", "flips_per_word", "stddev"],
        rows,
    )


def test_fig14_padding_strategies(benchmark):
    rows = run_once(benchmark, run_figure14)
    report(rows)
    by_pos = {}
    for position, strategy, flips, std in rows:
        by_pos.setdefault(position, {})[strategy] = (flips, std)
    for position, strategies in by_pos.items():
        agnostic_best = min(
            strategies[s][0] for s in ("zero", "one", "random")
        )
        aware_best = min(
            strategies[s][0] for s in ("input", "dataset", "memory")
        )
        # Data-aware padding is at least competitive with data-agnostic.
        assert aware_best <= agnostic_best * 1.15, position
        # Learned padding is the best (or ties) overall.
        assert strategies["learned"][0] <= aware_best * 1.1, position


if __name__ == "__main__":
    report(run_figure14())
