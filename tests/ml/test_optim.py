"""Optimiser tests: convergence on convex problems, state handling."""

import numpy as np
import pytest

from repro.ml.optim import Adam


def quadratic_step(opt, steps=200, lr_check=True):
    """Minimise f(x) = ||x - target||^2 from a fixed start."""
    target = np.array([1.0, -2.0, 3.0])
    x = np.zeros(3)
    for _ in range(steps):
        grad = 2.0 * (x - target)
        opt.step([x], [grad])
    return x, target


class TestAdam:
    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(lr=-1)

    def test_converges_on_quadratic(self):
        x, target = quadratic_step(Adam(lr=0.1), steps=500)
        assert np.allclose(x, target, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        """With bias correction the first Adam step is ~lr in each coord."""
        x = np.zeros(3)
        Adam(lr=0.01).step([x], [np.array([1.0, -5.0, 100.0])])
        assert np.allclose(np.abs(x), 0.01, atol=1e-4)

    def test_state_tracks_multiple_params(self):
        a, b = np.zeros(2), np.zeros(3)
        opt = Adam(lr=0.1)
        for _ in range(10):
            opt.step([a, b], [np.ones(2), -np.ones(3)])
        assert (a < 0).all() and (b > 0).all()
