"""Configuration for the E2-NVM stack.

One dataclass gathers the tunables of the placement engine: the cluster
count K (Figure 8), the VAE architecture (§3.1), the joint-training weight
(§3.2), the retrain trigger (§4.1.4) and the memo cache.  Padding (§4.1) is
not an option: the store predicts a short value as its bits followed by
zeros; Figures 14 and 15 compare the paper's other strategies with
:mod:`repro.core.padding` directly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class E2NVMConfig:
    """Hyperparameters of the E2-NVM placement engine.

    Attributes:
        n_clusters: K, the number of content clusters.
        latent_dim: VAE latent width (paper example: 10).
        hidden: encoder trunk widths; the decoder mirrors them.
        gamma: weight of the K-means loss during joint fine-tuning.
        pretrain_epochs: VAE-only epochs before joint training.
        joint_epochs: joint VAE+K-means fine-tuning epochs.
        batch_size: SGD mini-batch size.
        lr: Adam learning rate.
        train_sample_limit: cap on free segments sampled for (re)training.
        retrain_threshold: minimum free addresses per cluster before a
            retrain is triggered (§4.1.4).
        auto_retrain: let the engine retrain itself when the threshold
            trips; off by default so experiments control retrain timing.
        retrain_cooldown_writes: minimum writes between automatic retrains,
            preventing thrash when the pool is nearly full.  A failed
            retrain also resets the cooldown, so retries back off.
        fastpath_cache_size: capacity of the value → cluster memo cache
            consulted before any model forward pass (0 disables it).  It
            holds the values themselves: 1 MiB at 4 096 entries of 256-B
            values.  It is invalidated wholesale on every model swap, so it
            never changes *which* cluster a value lands in — only how fast
            repeated content is placed.
        student_enabled / student_confidence, and the last three fields
            (the LSTM padder's shape and the padding statistics' refresh
            interval): accepted and ignored.  The frozen end-to-end
            benchmark's configs (``benchmarks/e2e/workloads.py``) still set
            them, until its next change (ROADMAP item 8(a)) drops them.
        seed: seed for every stochastic component.
    """

    n_clusters: int = 10
    latent_dim: int = 10
    hidden: tuple[int, ...] = (128, 64)
    gamma: float = 0.1
    pretrain_epochs: int = 8
    joint_epochs: int = 4
    batch_size: int = 64
    lr: float = 1e-3
    train_sample_limit: int = 4096
    retrain_threshold: int = 1
    auto_retrain: bool = False
    retrain_cooldown_writes: int = 256
    fastpath_cache_size: int = 4096
    # Inert: the frozen e2e benchmark's configs set these (ROADMAP item
    # 8(a) frees them).
    student_enabled: bool = False
    student_confidence: float = 0.9
    lstm_hidden: int = 32
    lstm_epochs: int = 4
    ones_fraction_refresh_writes: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        if self.retrain_threshold < 0:
            raise ValueError("retrain_threshold must be non-negative")
        if self.fastpath_cache_size < 0:
            raise ValueError("fastpath_cache_size must be >= 0")
        self.hidden = tuple(self.hidden)
        if not self.hidden:
            raise ValueError("hidden must name at least one layer width")


#: Small-model settings for unit tests and quick examples.
FAST_TEST_CONFIG = E2NVMConfig(
    n_clusters=3,
    latent_dim=4,
    hidden=(32,),
    pretrain_epochs=3,
    joint_epochs=2,
    batch_size=32,
    train_sample_limit=512,
)


def fast_test_config(**overrides) -> E2NVMConfig:
    """Return a fresh small-model config, optionally overriding fields."""
    base = {
        field_name: getattr(FAST_TEST_CONFIG, field_name)
        for field_name in FAST_TEST_CONFIG.__dataclass_fields__
    }
    base.update(overrides)
    return E2NVMConfig(**base)
