"""VAE tests: gradcheck of the full loss, training behaviour, shapes."""

import numpy as np
import pytest

from repro.ml.optim import Adam
from repro.ml.vae import VAE, _EPS
from repro.workloads.datasets import make_image_dataset


def tiny_vae(input_dim=16, latent_dim=3, hidden=(8,), seed=0):
    return VAE(input_dim, latent_dim=latent_dim, hidden=hidden, seed=seed)


def clustered_bits(n=120, d=32, seed=0):
    bits, _ = make_image_dataset(n, d, n_classes=3, noise=0.1, seed=seed)
    return bits


class TestVAEForward:
    def test_encode_shapes(self):
        vae = tiny_vae()
        mu, logvar = vae.encode(np.zeros((5, 16)))
        assert mu.shape == (5, 3)
        assert logvar.shape == (5, 3)

    def test_transform_is_posterior_mean(self):
        """``transform`` skips the log-variance head, and its result is
        ``encode``'s ``mu`` bit for bit."""
        vae = tiny_vae()
        X = np.random.default_rng(3).integers(0, 2, (4, 16)).astype(float)
        mu, _ = vae.encode(X)
        assert np.array_equal(vae.transform(X), mu)
        assert np.array_equal(vae.transform(X[0]), vae.encode(X[0])[0])

    def test_reconstruct_returns_probabilities(self):
        vae = tiny_vae()
        probs = vae.reconstruct(np.ones((3, 16)))
        assert probs.shape == (3, 16)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError):
            tiny_vae().encode(np.zeros((2, 7)))

    def test_bad_dims_raise(self):
        with pytest.raises(ValueError):
            VAE(0)


class TestVAEGradients:
    def test_full_loss_gradcheck(self):
        """Finite-difference check of d(loss)/d(params) through the
        reparameterisation trick, with the noise held fixed."""
        rng = np.random.default_rng(0)
        vae = tiny_vae(input_dim=6, latent_dim=2, hidden=(5,), seed=1)
        x = (rng.random((3, 6)) > 0.5).astype(np.float64)
        eps = rng.standard_normal((3, 2))

        def loss():
            h = vae.trunk.forward(x)
            mu = vae.mu_head.forward(h)
            logvar = np.clip(vae.logvar_head.forward(h), -8, 8)
            z = mu + eps * np.exp(0.5 * logvar)
            logits = vae.decoder.forward(z)
            probs = 1.0 / (1.0 + np.exp(-logits))
            bce = -(
                x * np.log(probs + _EPS)
                + (1 - x) * np.log(1 - probs + _EPS)
            ).sum() / len(x)
            kl = -0.5 * (1 + logvar - mu**2 - np.exp(logvar)).sum() / len(x)
            return float(bce + kl)

        # Analytic pass with the same eps, via a no-op "optimizer" that
        # captures gradients instead of stepping.
        captured = {}

        class Capture:
            def step(self, params, grads):
                captured["grads"] = [g.copy() for g in grads]

        vae._rng = _FixedEps(eps)
        vae.train_batch(x, Capture())

        for param, grad in zip(vae.params, captured["grads"]):
            num = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            # Sample a few entries per tensor; full FD would be slow.
            checked = 0
            while not it.finished and checked < 5:
                idx = it.multi_index
                orig = param[idx]
                h = 1e-6
                param[idx] = orig + h
                up = loss()
                param[idx] = orig - h
                down = loss()
                param[idx] = orig
                num[idx] = (up - down) / (2 * h)
                assert grad[idx] == pytest.approx(num[idx], abs=1e-4), idx
                checked += 1
                for _ in range(7):
                    if not it.finished:
                        it.iternext()


class _FixedEps:
    """RNG stub returning a fixed standard-normal draw."""

    def __init__(self, eps):
        self._eps = eps

    def standard_normal(self, shape):
        assert shape == self._eps.shape
        return self._eps


class TestVAETraining:
    def test_loss_decreases(self):
        X = clustered_bits()
        vae = VAE(32, latent_dim=4, hidden=(16,), seed=0)
        history = vae.fit(X, epochs=8, batch_size=32, lr=3e-3)
        assert history["train_loss"][-1] < history["train_loss"][0]

    def test_history_lengths(self):
        X = clustered_bits(n=60)
        vae = VAE(32, latent_dim=4, hidden=(16,), seed=1)
        history = vae.fit(X, epochs=3, batch_size=32)
        assert len(history["train_loss"]) == 3
        assert len(history["val_loss"]) == 3

    def test_validation_tracks_training(self):
        X = clustered_bits(n=200, seed=2)
        vae = VAE(32, latent_dim=4, hidden=(16,), seed=2)
        history = vae.fit(X, epochs=8, batch_size=32, lr=3e-3)
        assert history["val_loss"][-1] < history["val_loss"][0]

    def test_early_stopping_trims_epochs(self):
        """With a tight patience and an easily learned dataset, training
        stops before the epoch budget."""
        X = clustered_bits(n=150, seed=9)
        vae = VAE(32, latent_dim=4, hidden=(16,), seed=9)
        history = vae.fit(
            X, epochs=60, batch_size=32, lr=3e-3, patience=2,
            min_improvement=0.05,
        )
        assert len(history["train_loss"]) < 60

    def test_early_stopping_disabled_runs_all_epochs(self):
        X = clustered_bits(n=60, seed=10)
        vae = VAE(32, latent_dim=4, hidden=(16,), seed=10)
        history = vae.fit(X, epochs=5, batch_size=32)
        assert len(history["train_loss"]) == 5

    def test_evaluate_deterministic(self):
        X = clustered_bits(n=50, seed=3)
        vae = tiny_vae(input_dim=32, seed=3)
        assert vae.evaluate(X) == pytest.approx(vae.evaluate(X))

    def test_evaluate_empty_raises(self):
        with pytest.raises(ValueError):
            tiny_vae().evaluate(np.zeros((0, 16)))

    def test_latents_cluster_by_class(self):
        """Same-class inputs should land closer in latent space."""
        bits, labels = make_image_dataset(200, 32, n_classes=2, noise=0.05, seed=4)
        vae = VAE(32, latent_dim=4, hidden=(16,), seed=4)
        vae.fit(bits, epochs=15, batch_size=32, lr=3e-3)
        Z = vae.transform(bits)
        c0, c1 = Z[labels == 0].mean(0), Z[labels == 1].mean(0)
        within = np.linalg.norm(Z[labels == 0] - c0, axis=1).mean()
        between = np.linalg.norm(c0 - c1)
        assert between > within

    def test_adam_state_survives_epochs(self):
        X = clustered_bits(n=40, seed=5)
        vae = tiny_vae(input_dim=32, seed=5)
        opt = Adam(lr=1e-3)
        r1 = vae.train_batch(X, opt)
        r2 = vae.train_batch(X, opt)
        assert np.isfinite(r1["loss"]) and np.isfinite(r2["loss"])

    def test_z_grad_hook_receives_latents(self):
        X = clustered_bits(n=40, seed=6)
        vae = tiny_vae(input_dim=32, seed=6)
        seen = {}

        def hook(z):
            seen["shape"] = z.shape
            return 0.0, np.zeros_like(z)

        vae.train_batch(X, Adam(), z_grad_hook=hook)
        assert seen["shape"] == (40, 3)
