"""Figure 18: retraining latency and energy per epoch vs. segment count.

More memory segments mean more training samples per epoch, so per-epoch
retraining time and energy grow — the number that sets the retrain load
factor (§5.3: trigger retraining early enough that the new model is ready
before the old one starves).

Wall-clock per epoch is measured on the real NumPy training loop; energy
uses the FLOP-based compute model.

``--check`` gates the host cost of one training step as a ratio, so that
it arms on any runner: the wall of one ``VAE.train_batch`` on the shipped
model shape (64 x 2048 batch, 32-wide hidden layer) over the wall of that
step's irreducible kernels — its forward and backward GEMMs, one ``exp``
and two ``log`` over preallocated 64 x 2048 arrays — the two interleaved
in one process, best of N.  Everything above 1.0 is the elementwise
arithmetic float64 bit-identity fixes (Adam's 14 passes, the loss's 10,
the sigmoid's 6) plus whatever the step wastes on memory traffic; the
gate catches the latter coming back.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from common import bench_arg_parser, print_table, run_once

from repro.ml.optim import Adam
from repro.ml.vae import VAE
from repro.profiling import ComputeCostModel
from repro.workloads.datasets import make_image_dataset

INPUT_BITS = 1024
SEGMENT_COUNTS = [128, 512, 2048, 8192]
EPOCHS = 3


#: The model ``benchmarks/e2e`` ships: 256-byte segments, ``hidden=(32,)``.
STEP_INPUT_BITS = 2048
STEP_HIDDEN = (32,)
STEP_LATENT = 6
STEP_BATCH = 64
STEP_REPS = 12
STEP_CALLS_PER_REP = 6
#: ``--check`` fails when one ``train_batch`` costs more than this many
#: kernel sets.  PR 23 (which rewrote the step's memory traffic, same
#: arithmetic) reads 2.82-3.36 over 11 runs on the 2-vCPU reference box
#: and 2.34-2.50 over 8 confined to one core (``taskset -c 0``: the GEMMs
#: lose their second thread, the elementwise passes never had one); its
#: parent read 5.33-5.83 and 4.02-4.61.  The gate sits between the two
#: trees in both modes.
STEP_RATIO_CEILING = 3.8


def run_step_ratio(seed: int = 0) -> dict:
    """Best-of-N wall of one training step and of its kernels, the two
    interleaved so both see the same machine."""
    rng = np.random.default_rng(seed)
    vae = VAE(
        STEP_INPUT_BITS, latent_dim=STEP_LATENT, hidden=STEP_HIDDEN, seed=seed
    )
    optimizer = Adam()
    x = (rng.random((STEP_BATCH, STEP_INPUT_BITS)) > 0.5).astype(np.float64)

    # One GEMM per product the step needs: each layer's forward, its
    # weight gradient, and (all but the data-fed first) its input gradient.
    layers = [
        *vae.trunk.layers, vae.mu_head, vae.logvar_head, *vae.decoder.layers
    ]
    gemms = []
    for layer in layers:
        n_in, n_out = layer.W.shape
        a = rng.normal(size=(STEP_BATCH, n_in))
        g = rng.normal(size=(STEP_BATCH, n_out))
        gemms.append((a, layer.W, np.empty((STEP_BATCH, n_out))))
        gemms.append((a.T, g, np.empty((n_in, n_out))))
        if layer is not layers[0]:
            gemms.append((g, layer.W.T, np.empty((STEP_BATCH, n_in))))
    wide = rng.random((STEP_BATCH, STEP_INPUT_BITS)) + 0.5
    out = np.empty_like(wide)

    def kernels() -> None:
        for a, b, c in gemms:
            np.matmul(a, b, out=c)
        np.exp(wide, out=out)
        np.log(wide, out=out)
        np.log(wide, out=out)

    def per_call_us(call) -> float:
        start = time.perf_counter()
        for _ in range(STEP_CALLS_PER_REP):
            call()
        return (time.perf_counter() - start) / STEP_CALLS_PER_REP * 1e6

    step_us = kernel_us = float("inf")
    for _ in range(STEP_REPS):
        step_us = min(
            step_us, per_call_us(lambda: vae.train_batch(x, optimizer))
        )
        kernel_us = min(kernel_us, per_call_us(kernels))
    return {
        "train_batch_us": round(step_us, 1),
        "kernels_us": round(kernel_us, 1),
        "step_kernel_ratio": round(step_us / kernel_us, 2),
    }


def check_step_ratio(result: dict) -> int:
    ratio = result["step_kernel_ratio"]
    if ratio > STEP_RATIO_CEILING:
        print(
            f"REGRESSION: one train_batch costs {ratio}x its kernels, over "
            f"the {STEP_RATIO_CEILING}x ceiling"
        )
        return 1
    print(f"[training step OK: {ratio}x its kernels <= {STEP_RATIO_CEILING}x]")
    return 0


def run_figure18(seed: int = 0) -> list[list]:
    compute = ComputeCostModel()
    rows = []
    for n_segments in SEGMENT_COUNTS:
        bits, _ = make_image_dataset(
            n_segments, INPUT_BITS, n_classes=16, noise=0.08, seed=seed
        )
        vae = VAE(INPUT_BITS, latent_dim=8, hidden=(64,), seed=seed)
        t0 = time.perf_counter()
        vae.fit(bits, epochs=EPOCHS, batch_size=64, val_fraction=0.0)
        wall_per_epoch = (time.perf_counter() - t0) / EPOCHS
        flops_per_epoch = compute.vae_training_flops(
            INPUT_BITS, (64,), 8, n_segments, 1
        )
        energy_mj = compute.energy_pj(flops_per_epoch) / 1e9
        rows.append([n_segments, wall_per_epoch, energy_mj])
    return rows


def report(rows: list[list]) -> None:
    print_table(
        "Figure 18: per-epoch retraining cost vs segment count",
        ["segments", "wall_s/epoch", "energy_mJ/epoch"],
        rows,
    )


def test_fig18_training_cost(benchmark):
    rows = run_once(benchmark, run_figure18)
    report(rows)
    walls = [r[1] for r in rows]
    energies = [r[2] for r in rows]
    # Both latency and energy grow with the number of segments...
    assert walls[-1] > walls[0]
    assert energies == sorted(energies)
    # ...roughly linearly (within a factor of ~4 of proportional).
    ratio = walls[-1] / walls[0]
    expected = SEGMENT_COUNTS[-1] / SEGMENT_COUNTS[0]
    assert expected / 4 <= ratio <= expected * 4


def main() -> None:
    parser = bench_arg_parser(__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="instead of the figure, time one training step against its "
        "irreducible kernels; exit 1 when the ratio exceeds "
        f"{STEP_RATIO_CEILING}",
    )
    args = parser.parse_args()
    if not args.check:
        report(run_figure18())
        return
    result = run_step_ratio()
    print_table(
        "Training step vs its kernels (64 x 2048 batch, hidden 32)",
        list(result),
        [list(result.values())],
    )
    sys.exit(check_step_ratio(result))


if __name__ == "__main__":
    main()
