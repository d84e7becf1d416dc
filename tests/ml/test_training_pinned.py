"""Pinned training results.

The placement model is the instrument behind every simulated counter: a
change meant only to make training cheaper on the host must leave the
trained model the same model, to the last bit.  This test trains the
two model shapes the tree ships (the end-to-end benchmark's config and a
``padding_strategy="learned"`` config that also trains the LSTM) for two
seeds each, and compares a sha256 over every VAE parameter, the
centroids, the loss history, the LSTM parameters and the
labels of the rebuilt pool with digests recorded at PR 23's parent commit
(bb4257d), *before* any line of ``repro.ml`` was edited.  The benchmark's
local config differs only in its memo-cache size, which training never
reads.

Every case pins the engine's first ``train()``.  The ``ship`` cases pin
two more fits (the other configs train the same VAE, so theirs would be
the same digests): a second ``fit`` on the same pipeline instance (reused
step buffers must not carry state from one fit into the next), and a fit
on 200 rows, whose pretraining and joint epochs both end on a short
minibatch (buffers are keyed by shape, not assumed full).

The digests depend on the BLAS build's summation order, so they are
pinned for the reference image; ``python tests/ml/test_training_pinned.py``
prints the current values.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import E2NVM
from repro.core.config import E2NVMConfig
from repro.core.pipeline import EncoderPipeline
from repro.nvm import MemoryController, NVMDevice

SEGMENT_SIZE = 256
N_SEGMENTS = 256
SHORT_ROWS = 200

#: ``benchmarks/e2e/workloads.py``'s model, spelled out so that tuning the
#: benchmark never moves these digests (and vice versa).
_SHIP = dict(
    n_clusters=6,
    latent_dim=6,
    hidden=(32,),
    pretrain_epochs=5,
    joint_epochs=2,
    batch_size=64,
    train_sample_limit=256,
    lstm_epochs=3,
    lstm_hidden=16,
    ones_fraction_refresh_writes=0,
)
CONFIGS = {
    "ship": _SHIP,
    # One LSTM epoch (313 BPTT steps) keeps the case under a second.
    "learned_padding": dict(_SHIP, padding_strategy="learned", lstm_epochs=1),
}
SEEDS = (0, 1)
CASES = [(name, seed) for name in CONFIGS for seed in SEEDS]


def _update(digest, *arrays) -> None:
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str((array.dtype.str, array.shape)).encode())
        digest.update(array.tobytes())


def _digest(pipeline: EncoderPipeline, labels=None) -> str:
    digest = hashlib.sha256()
    _update(digest, *pipeline.model.vae.params, pipeline.centroids)
    for name in sorted(pipeline.model.history):
        digest.update(name.encode())
        _update(digest, np.asarray(pipeline.model.history[name], np.float64))
    if pipeline.lstm is not None:
        _update(
            digest, *pipeline.lstm.cell.params, *pipeline.lstm.head.params
        )
    if labels is not None:
        _update(digest, np.asarray(labels, np.int64))
    return digest.hexdigest()


def measure(name: str, seed: int) -> dict[str, str]:
    config = E2NVMConfig(**CONFIGS[name], seed=seed)
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT_SIZE,
        segment_size=SEGMENT_SIZE,
        initial_fill="random",
        seed=seed + 1,
    )
    engine = E2NVM(MemoryController(device), config)
    engine.train()
    free = engine.dap.snapshot_addresses()
    bits = engine._segment_bits(sorted(free))
    out = {
        "first": _digest(
            engine.pipeline, engine.pipeline.predict_segments(bits)
        )
    }
    if name != "ship":
        return out
    engine.pipeline.fit(bits)
    out["refit"] = _digest(engine.pipeline)
    short = EncoderPipeline(engine.input_bits, config)
    short.fit(bits[:SHORT_ROWS])
    out["short"] = _digest(short)
    return out


#: Recorded at bb4257d (PR 23's parent), before the training step was
#: rewritten.  A PR that changes the model on purpose (float32, another
#: optimiser) re-records these in the open, in the same diff.
PINNED: dict[tuple[str, int], dict[str, str]] = {
    ("ship", 0): {
        "first": (
            "17a0b1d3e31d65b1bf42f75733218834"
            "860e67bb14ae6c3317a429fa40d0dc55"
        ),
        "refit": (
            "66aea39f2c73fa696d1f6e94a0bf20ed"
            "16ee9a95662d1df42c5da2879a57d132"
        ),
        "short": (
            "7f5c6e40ccbf451938b05e34e3dece29"
            "44a11c775087323e489b00d1cebc542c"
        ),
    },
    ("ship", 1): {
        "first": (
            "0f15b4c450f61498b68c670b44a2c4be"
            "16ee3c9053471595b682b942ae1e14bf"
        ),
        "refit": (
            "99e4914d4801dfe06b9eb8dded88906a"
            "88bc6e8f89c75068387118d66d8f4f2c"
        ),
        "short": (
            "2cc888f6bc3a86dd8be6c98be9864665"
            "e14c8435482a27f5085c1f39f406805f"
        ),
    },
    ("learned_padding", 0): {
        "first": (
            "3ba0491ab80a7bdc422eebc5ab8fc164"
            "c775b384617d36c5954ce62da2e989a3"
        ),
    },
    ("learned_padding", 1): {
        "first": (
            "1c84191e8756530803940d321dcc6f35"
            "8322d60acf539c3b9800da04b95ecf55"
        ),
    },
}


@pytest.mark.parametrize("name,seed", CASES)
def test_trained_model_matches_the_recorded_parent(name, seed):
    assert measure(name, seed) == PINNED[(name, seed)]


if __name__ == "__main__":
    import pprint

    pprint.pprint({case: measure(*case) for case in CASES}, width=100)
