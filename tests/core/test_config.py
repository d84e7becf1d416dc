"""Config and retrain-policy tests."""

import pytest

from repro.core.config import E2NVMConfig, fast_test_config
from repro.core.retraining import RetrainDecision, RetrainPolicy


class TestConfig:
    def test_defaults_are_valid(self):
        config = E2NVMConfig()
        assert config.n_clusters == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            E2NVMConfig(n_clusters=0)
        with pytest.raises(ValueError):
            E2NVMConfig(retrain_threshold=-1)
        with pytest.raises(ValueError):
            E2NVMConfig(hidden=())

    def test_hidden_normalised_to_tuple(self):
        config = E2NVMConfig(hidden=[64, 32])
        assert config.hidden == (64, 32)

    def test_fast_config_overrides(self):
        config = fast_test_config(n_clusters=7, seed=99)
        assert config.n_clusters == 7
        assert config.seed == 99
        # Other fast-test values kept.
        assert config.pretrain_epochs == 3

    def test_fast_config_returns_fresh_instances(self):
        a = fast_test_config()
        b = fast_test_config()
        assert a is not b


class TestRetrainPolicy:
    def test_fires_when_threshold_and_cooldown_met(self):
        policy = RetrainPolicy(min_free_per_cluster=2, cooldown_writes=0)
        assert policy.decide(1, 50, 5) is RetrainDecision.FIRE
        assert policy.triggers == 1

    def test_threshold_not_tripped(self):
        policy = RetrainPolicy(min_free_per_cluster=2, cooldown_writes=0)
        assert policy.decide(2, 50, 5) is not RetrainDecision.FIRE

    def test_cooldown_blocks(self):
        policy = RetrainPolicy(min_free_per_cluster=2, cooldown_writes=10)
        assert policy.decide(0, 50, 5) is not RetrainDecision.FIRE
        for _ in range(10):
            policy.record_write()
        assert policy.decide(0, 50, 5) is RetrainDecision.FIRE

    def test_retrain_resets_cooldown(self):
        policy = RetrainPolicy(min_free_per_cluster=1, cooldown_writes=5)
        for _ in range(5):
            policy.record_write()
        assert policy.decide(0, 50, 5) is RetrainDecision.FIRE
        policy.record_retrain()
        assert policy.decide(0, 50, 5) is not RetrainDecision.FIRE

    def test_needs_enough_free_to_train(self):
        policy = RetrainPolicy(min_free_per_cluster=1, cooldown_writes=0)
        assert policy.decide(0, 3, 5) is not RetrainDecision.FIRE
        assert policy.decide(0, 5, 5) is RetrainDecision.FIRE


class TestRetrainDecide:
    def test_skip_when_threshold_not_tripped(self):
        policy = RetrainPolicy(min_free_per_cluster=2, cooldown_writes=0)
        assert policy.decide(2, 50, 5) is RetrainDecision.SKIP

    def test_defer_when_too_few_free_segments(self):
        """A wanted retrain with < n_clusters free defers instead of firing
        (training would be impossible) — and counts no trigger."""
        policy = RetrainPolicy(min_free_per_cluster=1, cooldown_writes=0)
        assert policy.decide(0, 3, 5) is RetrainDecision.DEFER
        assert policy.triggers == 0

    def test_pending_retry_ignores_threshold(self):
        policy = RetrainPolicy(min_free_per_cluster=1, cooldown_writes=0)
        # Threshold healthy, but a deferred retrain is pending.
        assert policy.decide(5, 50, 5, pending=True) is RetrainDecision.FIRE
        assert policy.triggers == 0  # a retry is not a new trigger

    def test_pending_retry_respects_cooldown_backoff(self):
        policy = RetrainPolicy(min_free_per_cluster=1, cooldown_writes=5)
        policy.record_retrain()  # e.g. a failed attempt resets the window
        assert policy.decide(0, 50, 5, pending=True) is RetrainDecision.SKIP
        for _ in range(5):
            policy.record_write()
        assert policy.decide(0, 50, 5, pending=True) is RetrainDecision.FIRE

