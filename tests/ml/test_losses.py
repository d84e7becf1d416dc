"""Loss function tests: values and analytic gradients vs finite differences."""

import numpy as np
import pytest

from repro.ml.losses import bernoulli_nll, gaussian_kl, mse


class TestBernoulliNLL:
    def test_perfect_prediction_near_zero(self):
        targets = np.array([[1.0, 0.0, 1.0]])
        probs = np.array([[1.0, 0.0, 1.0]])
        loss, _ = bernoulli_nll(targets, probs)
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_known_value(self):
        targets = np.array([[1.0]])
        probs = np.array([[0.5]])
        loss, _ = bernoulli_nll(targets, probs)
        assert loss == pytest.approx(np.log(2.0), abs=1e-5)

    def test_gradient_is_fused_sigmoid_form(self):
        rng = np.random.default_rng(0)
        targets = (rng.random((4, 6)) > 0.5).astype(float)
        logits = rng.normal(size=(4, 6))
        probs = 1.0 / (1.0 + np.exp(-logits))
        _, grad = bernoulli_nll(targets, probs)
        # Finite-difference check through the sigmoid.
        eps = 1e-6
        for idx in [(0, 0), (1, 3), (3, 5)]:
            up = logits.copy()
            up[idx] += eps
            down = logits.copy()
            down[idx] -= eps
            loss_up, _ = bernoulli_nll(targets, 1 / (1 + np.exp(-up)))
            loss_down, _ = bernoulli_nll(targets, 1 / (1 + np.exp(-down)))
            num = (loss_up - loss_down) / (2 * eps)
            assert grad[idx] == pytest.approx(num, abs=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bernoulli_nll(np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("rows", [64, 5, 0])
    def test_in_place_form_gives_the_expression_bits(self, rows):
        """The work-array form is the one-expression form of before PR 23,
        bit for bit, whether the caller lends the arrays or not — soft
        targets and saturated probabilities included."""
        rng = np.random.default_rng(rows)
        targets = (rng.random((rows, 96)) > 0.5).astype(np.float64)
        targets[::3] = rng.random(targets[::3].shape)
        probs = rng.random((rows, 96))
        probs[:, :4] = [0.0, 1.0, 1e-300, 1.0 - 2**-53]
        batch = max(rows, 1)
        eps = 1e-7
        want_loss = float(
            -(
                targets * np.log(probs + eps)
                + (1.0 - targets) * np.log(1.0 - probs + eps)
            ).sum()
            / batch
        )
        want_grad = (probs - targets) / batch
        kept = (targets.copy(), probs.copy())
        # A work array sized for a larger batch, lent as a leading slice.
        work = np.full((2, rows + 3, 96), np.nan)
        for lent in (None, work[:, :rows]):
            loss, grad = bernoulli_nll(targets, probs, work=lent)
            assert loss.hex() == want_loss.hex()
            assert grad.tobytes() == want_grad.tobytes()
        assert rows == 0 or np.shares_memory(grad, work)
        assert np.isnan(work[:, rows:]).all()
        assert targets.tobytes() == kept[0].tobytes()
        assert probs.tobytes() == kept[1].tobytes()


class TestGaussianKL:
    def test_standard_normal_is_zero(self):
        mu = np.zeros((3, 4))
        logvar = np.zeros((3, 4))
        loss, gmu, glv = gaussian_kl(mu, logvar)
        assert loss == pytest.approx(0.0)
        assert not gmu.any()
        assert not glv.any()

    def test_positive_for_nonstandard(self):
        loss, _, _ = gaussian_kl(np.ones((2, 2)), np.ones((2, 2)) * 0.5)
        assert loss > 0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=(3, 2))
        logvar = rng.normal(size=(3, 2)) * 0.5
        _, gmu, glv = gaussian_kl(mu, logvar)
        eps = 1e-6
        for arr, grad in ((mu, gmu), (logvar, glv)):
            idx = (1, 1)
            orig = arr[idx]
            arr[idx] = orig + eps
            up, _, _ = gaussian_kl(mu, logvar)
            arr[idx] = orig - eps
            down, _, _ = gaussian_kl(mu, logvar)
            arr[idx] = orig
            assert grad[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kl(np.zeros((2, 3)), np.zeros((3, 2)))


class TestMSE:
    def test_zero_at_match(self):
        x = np.ones((2, 3))
        loss, grad = mse(x, x.copy())
        assert loss == pytest.approx(0.0)
        assert not grad.any()

    def test_known_value(self):
        targets = np.zeros((2, 1))
        predictions = np.array([[1.0], [2.0]])
        loss, grad = mse(targets, predictions)
        assert loss == pytest.approx((1 + 4) / 2)
        assert np.allclose(grad, [[1.0], [2.0]])

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(2)
        targets = rng.normal(size=(3, 3))
        predictions = rng.normal(size=(3, 3))
        _, grad = mse(targets, predictions)
        eps = 1e-6
        idx = (2, 0)
        predictions[idx] += eps
        up, _ = mse(targets, predictions)
        predictions[idx] -= 2 * eps
        down, _ = mse(targets, predictions)
        predictions[idx] += eps
        assert grad[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-5)
