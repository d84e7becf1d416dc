"""Variational Autoencoder (§3.1) with hand-written backprop.

The encoder compresses a memory segment's bit vector ``x`` into a latent
``z`` (default 10 dimensions, as the paper's "e.g., size 10"); the decoder
reconstructs Bernoulli bit probabilities.  The per-sample loss is the
standard ELBO negative:

    l(θ, φ) = BCE(x, p_φ(x|z)) + KL(q_θ(z|x) || N(0, I))

Training supports an optional per-batch latent gradient hook, which is how
:mod:`repro.ml.joint` injects the K-means clustering loss for joint training.
"""

from __future__ import annotations

import numpy as np

from repro.ml.activations import Sigmoid
from repro.ml.data import iterate_minibatches, train_val_split
from repro.ml.layers import Dense
from repro.ml.losses import bernoulli_nll, gaussian_kl
from repro.ml.network import MLP
from repro.ml.optim import Adam
from repro.util.rng import rng_from_seed

_LOGVAR_CLIP = 8.0
_EPS = 1e-7


class VAE:
    """MLP-based VAE over fixed-length bit vectors.

    Args:
        input_dim: number of features (bits per memory segment).
        latent_dim: size of the latent code ``z``.
        hidden: encoder trunk widths; the decoder mirrors them.
        kl_weight: weight of the KL regulariser in the total loss.
        seed: RNG seed for weights and the reparameterisation noise.
    """

    def __init__(
        self,
        input_dim: int,
        latent_dim: int = 10,
        hidden: tuple[int, ...] = (256, 64),
        kl_weight: float = 1.0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if input_dim <= 0 or latent_dim <= 0:
            raise ValueError("dimensions must be positive")
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.kl_weight = kl_weight
        self._rng = rng_from_seed(seed)
        self._sigmoid = Sigmoid()
        #: Step buffer of :meth:`train_batch`, sized for the largest batch
        #: seen: the decoded probabilities and the loss's two work arrays.
        self._step_buffer: np.ndarray | None = None

        hidden = tuple(hidden)
        self.trunk = MLP(
            (input_dim, *hidden),
            hidden_activation="relu",
            output_activation="relu",
            seed=self._rng,
        )
        self.mu_head = Dense(hidden[-1], latent_dim, "identity", seed=self._rng)
        self.logvar_head = Dense(hidden[-1], latent_dim, "identity", seed=self._rng)
        self.decoder = MLP(
            (latent_dim, *reversed(hidden), input_dim),
            hidden_activation="relu",
            output_activation="identity",
            seed=self._rng,
        )

    # ---------------------------------------------------------------- forward

    def encode(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return the posterior parameters (mu, logvar) for each row.

        Uses the stateless inference path: no backprop caches are touched,
        so the write path can encode concurrently with no shared state
        (training runs its own explicit forward inside :meth:`train_batch`).
        """
        X = self._as_batch(X)
        h = self.trunk.infer(X)
        mu = self.mu_head.infer(h)
        logvar = np.clip(self.logvar_head.infer(h), -_LOGVAR_CLIP, _LOGVAR_CLIP)
        return mu, logvar

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Deterministic latent representation (the posterior mean):
        :meth:`encode`'s ``mu`` without the log-variance head."""
        return self.mu_head.infer(self.trunk.infer(self._as_batch(X)))

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Bit probabilities reconstructed through the posterior mean."""
        return self._sigmoid.forward(self.decoder.infer(self.transform(X)))

    # --------------------------------------------------------------- training

    def train_batch(self, x: np.ndarray, optimizer, z_grad_hook=None) -> dict:
        """One optimisation step on batch ``x``; returns the loss parts.

        ``z_grad_hook(z)`` may return ``(extra_loss, extra_grad_wrt_z)`` —
        both already normalised per batch — to co-train auxiliary objectives.
        """
        x = self._as_batch(x)
        if self._step_buffer is None or self._step_buffer.shape[1] < len(x):
            self._step_buffer = np.empty((3, *x.shape))
        buffers = self._step_buffer[:, : len(x)]

        h = self.trunk.forward(x)
        mu = self.mu_head.forward(h)
        logvar = np.clip(self.logvar_head.forward(h), -_LOGVAR_CLIP, _LOGVAR_CLIP)
        std = np.exp(0.5 * logvar)
        eps = self._rng.standard_normal(mu.shape)
        z = mu + eps * std

        logits = self.decoder.forward(z)
        probs = self._sigmoid.forward(logits, out=buffers[0])
        bce, dlogits = bernoulli_nll(x, probs, work=buffers[1:])
        kl, kl_dmu, kl_dlogvar = gaussian_kl(mu, logvar)

        extra_loss = 0.0
        extra_grad = 0.0
        if z_grad_hook is not None:
            extra_loss, extra_grad = z_grad_hook(z)

        self.zero_grad()
        dz = self.decoder.backward(dlogits) + extra_grad
        dmu = dz + self.kl_weight * kl_dmu
        dlogvar = dz * eps * 0.5 * std + self.kl_weight * kl_dlogvar
        dh = self.mu_head.backward(dmu) + self.logvar_head.backward(dlogvar)
        # The trunk reads data, not a layer: nothing consumes d(loss)/dx.
        self.trunk.backward(dh, input_grad=False)
        optimizer.step(self.params, self.grads)

        total = bce + self.kl_weight * kl + float(extra_loss)
        return {"loss": total, "bce": bce, "kl": kl, "extra": float(extra_loss)}

    def fit(
        self,
        X: np.ndarray,
        epochs: int = 20,
        batch_size: int = 64,
        lr: float = 1e-3,
        val_fraction: float = 0.1,
        z_grad_hook=None,
        patience: int | None = None,
        min_improvement: float = 1e-3,
        verbose: bool = False,
    ) -> dict:
        """Train on the rows of ``X``; returns per-epoch loss history.

        Args:
            patience: if set, stop early after this many epochs without the
                validation loss improving by at least ``min_improvement``
                (relative) — trims the retraining energy budget when the
                model converges quickly (§5.3).
        """
        X = self._as_batch(X)
        optimizer = Adam(lr=lr)
        train, val = train_val_split(X, val_fraction, seed=self._rng)
        if len(train) == 0:
            raise ValueError("training split is empty")
        history: dict = {"train_loss": [], "val_loss": []}
        best_val = np.inf
        stale_epochs = 0
        for epoch in range(epochs):
            losses = []
            for batch in iterate_minibatches(
                train, batch_size, seed=self._rng, shuffle=True
            ):
                result = self.train_batch(batch, optimizer, z_grad_hook)
                losses.append(result["loss"])
            history["train_loss"].append(float(np.mean(losses)))
            history["val_loss"].append(
                self.evaluate(val) if len(val) else history["train_loss"][-1]
            )
            if verbose:
                print(
                    f"epoch {epoch + 1:3d}/{epochs}  "
                    f"train {history['train_loss'][-1]:.3f}  "
                    f"val {history['val_loss'][-1]:.3f}"
                )
            if patience is not None:
                current = history["val_loss"][-1]
                if current < best_val * (1.0 - min_improvement):
                    best_val = current
                    stale_epochs = 0
                else:
                    stale_epochs += 1
                    if stale_epochs >= patience:
                        break
        self.release_step_buffers()
        return history

    def evaluate(self, X: np.ndarray, batch_size: int = 256) -> float:
        """Deterministic loss (z = posterior mean) over the rows of ``X``."""
        X = self._as_batch(X)
        if len(X) == 0:
            raise ValueError("cannot evaluate on an empty array")
        total = 0.0
        for start in range(0, len(X), batch_size):
            x = X[start : start + batch_size]
            mu, logvar = self.encode(x)
            probs = self._sigmoid.forward(self.decoder.infer(mu))
            bce, _ = bernoulli_nll(x, probs)
            kl, _, _ = gaussian_kl(mu, logvar)
            total += (bce + self.kl_weight * kl) * len(x)
        return float(total / len(X))

    # -------------------------------------------------------------- plumbing

    @property
    def _parts(self) -> tuple:
        """The four sub-networks, in parameter order."""
        return (self.trunk, self.mu_head, self.logvar_head, self.decoder)

    def zero_grad(self) -> None:
        for part in self._parts:
            part.zero_grad()

    def release_step_buffers(self) -> None:
        """Drop the training pass's buffers, here and in every layer; a
        training loop calls this when it is done (:meth:`fit` does)."""
        self._step_buffer = None
        for part in self._parts:
            part.release_step_buffers()

    @property
    def params(self) -> list[np.ndarray]:
        return [p for part in self._parts for p in part.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for part in self._parts for g in part.grads]

    def _as_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.input_dim:
            raise ValueError(
                f"expected {self.input_dim} features, got {X.shape[1]}"
            )
        return X
