"""Configuration for the E2-NVM stack.

One dataclass gathers every tunable the paper discusses: the cluster count K
(Figure 8), the VAE architecture (§3.1), the joint-training weight (§3.2),
the padding strategy and position (§4.1), and the retrain trigger threshold
(§4.1.4).
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
        padding_strategy: one of ``zero``, ``one``, ``random``, ``input``,
            ``dataset``, ``memory``, ``learned``.
        padding_position: one of ``begin``, ``end``, ``middle``, ``edges``.
        retrain_threshold: minimum free addresses per cluster before a
            retrain is triggered (§4.1.4).
        auto_retrain: let the engine retrain itself when the threshold
            trips; off by default so experiments control retrain timing.
        retrain_cooldown_writes: minimum writes between automatic retrains,
            preventing thrash when the pool is nearly full.  A failed
            retrain also resets the cooldown, so retries back off.
        ones_fraction_refresh_writes: refresh the memory ones-fraction used
            by ``memory`` padding from a sample of free segments every this
            many writes, so padding tracks content drift (0 disables).
        ones_fraction_sample_segments: free segments sampled per refresh.
        lstm_window_bits / lstm_chunk_bits / lstm_hidden / lstm_epochs:
            learned-padding LSTM shape and schedule (§4.1.3; paper uses a
            64-bit window predicting 8 bits per step).
        fastpath_cache_size: capacity of the content-fingerprint → cluster
            memo cache consulted before any model forward pass (0 disables
            it).  The cache is invalidated wholesale on every model swap,
            so it never changes *which* cluster a value lands in — only how
            fast repeated content is placed.
        student_enabled / student_confidence: accepted and ignored.  The
            frozen end-to-end benchmark's ``LOCAL_CONFIG``
            (``benchmarks/e2e/workloads.py``) still sets them, until its
            next change (ROADMAP item 8) drops them.
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
    padding_strategy: str = "zero"
    padding_position: str = "end"
    retrain_threshold: int = 1
    auto_retrain: bool = False
    retrain_cooldown_writes: int = 256
    ones_fraction_refresh_writes: int = 1024
    ones_fraction_sample_segments: int = 64
    lstm_window_bits: int = 64
    lstm_chunk_bits: int = 8
    lstm_hidden: int = 32
    lstm_epochs: int = 4
    fastpath_cache_size: int = 4096
    # Inert: the frozen e2e benchmark's LOCAL_CONFIG sets both (ROADMAP
    # item 8 frees them).
    student_enabled: bool = False
    student_confidence: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        if self.retrain_threshold < 0:
            raise ValueError("retrain_threshold must be non-negative")
        if self.ones_fraction_refresh_writes < 0:
            raise ValueError("ones_fraction_refresh_writes must be >= 0")
        if self.ones_fraction_sample_segments <= 0:
            raise ValueError("ones_fraction_sample_segments must be positive")
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
    lstm_epochs=2,
    lstm_hidden=12,
)


def fast_test_config(**overrides) -> E2NVMConfig:
    """Return a fresh small-model config, optionally overriding fields."""
    base = {
        field_name: getattr(FAST_TEST_CONFIG, field_name)
        for field_name in FAST_TEST_CONFIG.__dataclass_fields__
    }
    base.update(overrides)
    return E2NVMConfig(**base)
