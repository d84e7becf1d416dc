"""Joint VAE + K-means training (§3.2).

E2-NVM "integrates the VAE's reconstruction loss and the K-means clustering
loss to jointly train cluster label assignment and learning of suitable
features for clustering".  We follow the DEC-style recipe [20] the paper
cites:

1. pretrain the VAE on reconstruction + KL alone;
2. run K-means once on the latent means to initialise centroids;
3. fine-tune the VAE with an added clustering term
   ``γ/2 · ‖z − μ_c(z)‖²`` (nearest-centroid pull), refreshing centroids by
   re-running K-means on the latents after every joint epoch.

The result is a single model that maps a bit vector to a cluster id — the
``predict`` the write path of Algorithm 1 calls.
"""

from __future__ import annotations

import numpy as np

from repro.ml.data import iterate_minibatches
from repro.ml.kmeans import KMeans
from repro.ml.optim import Adam
from repro.ml.vae import VAE
from repro.util.rng import rng_from_seed


class JointVAEKMeans:
    """The paper's clustering model: a VAE encoder feeding K-means.

    Args:
        input_dim: bits per memory segment.
        n_clusters: K.
        latent_dim: latent width (paper example: 10).
        hidden: encoder trunk widths.
        gamma: weight of the clustering loss during joint fine-tuning.
        pretrain_epochs / joint_epochs: schedule lengths.
        batch_size, lr: optimisation hyperparameters.
        seed: RNG seed shared by the VAE and K-means.
    """

    def __init__(
        self,
        input_dim: int,
        n_clusters: int,
        latent_dim: int = 10,
        hidden: tuple[int, ...] = (256, 64),
        gamma: float = 0.1,
        pretrain_epochs: int = 10,
        joint_epochs: int = 5,
        batch_size: int = 64,
        lr: float = 1e-3,
        kl_weight: float = 1.0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        self._rng = rng_from_seed(seed)
        self.n_clusters = n_clusters
        self.gamma = gamma
        self.pretrain_epochs = pretrain_epochs
        self.joint_epochs = joint_epochs
        self.batch_size = batch_size
        self.lr = lr
        self.vae = VAE(
            input_dim,
            latent_dim=latent_dim,
            hidden=hidden,
            kl_weight=kl_weight,
            seed=self._rng,
        )
        self.kmeans = KMeans(n_clusters, seed=self._rng)
        self.history: dict = {}

    @property
    def input_dim(self) -> int:
        """Bits per input segment."""
        return self.vae.input_dim

    @property
    def centroids(self) -> np.ndarray:
        """Latent-space cluster centroids."""
        if self.kmeans.cluster_centers_ is None:
            raise RuntimeError("model is not trained yet")
        return self.kmeans.cluster_centers_

    def fit(self, X: np.ndarray, verbose: bool = False) -> "JointVAEKMeans":
        """Pretrain, initialise centroids, then fine-tune jointly."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if len(X) < self.n_clusters:
            raise ValueError(
                f"need at least n_clusters={self.n_clusters} segments to train"
            )
        self.history = self.vae.fit(
            X,
            epochs=self.pretrain_epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            verbose=verbose,
        )
        self.kmeans.fit(self.vae.transform(X))

        optimizer = Adam(lr=self.lr)
        self.history["joint_loss"] = []
        for _ in range(self.joint_epochs):
            losses = []
            for batch in iterate_minibatches(
                X, self.batch_size, seed=self._rng, shuffle=True
            ):
                result = self.vae.train_batch(
                    batch, optimizer, z_grad_hook=self._cluster_grad
                )
                losses.append(result["loss"])
            self.history["joint_loss"].append(float(np.mean(losses)))
            # Refresh the centroids against the moved latent space.
            self.kmeans.fit(self.vae.transform(X))
        self.vae.release_step_buffers()
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Cluster ids for the rows of ``X`` (bit vectors)."""
        return self.kmeans.predict(self.vae.transform(X))

    def predict_one(self, bits: np.ndarray) -> int:
        """Cluster id for a single bit vector."""
        return int(self.predict(np.atleast_2d(bits))[0])

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Latent representations of the rows of ``X``."""
        return self.vae.transform(X)

    def sse(self, X: np.ndarray) -> float:
        """Sum of squared latent distances to assigned centroids (Eq. 1)."""
        Z = self.vae.transform(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        labels = self.kmeans.predict(Z)
        diffs = Z - self.centroids[labels]
        return float(np.einsum("ij,ij->", diffs, diffs))

    def _cluster_grad(self, z: np.ndarray):
        centers = self.centroids
        d = (
            np.einsum("ij,ij->i", z, z)[:, None]
            - 2.0 * (z @ centers.T)
            + np.einsum("ij,ij->i", centers, centers)[None, :]
        )
        nearest = d.argmin(axis=1)
        diff = z - centers[nearest]
        batch = len(z)
        loss = 0.5 * self.gamma * float(np.einsum("ij,ij->", diff, diff)) / batch
        grad = self.gamma * diff / batch
        return loss, grad
