"""K-means clustering with k-means++ seeding (Lloyd's algorithm)."""

from __future__ import annotations

import numpy as np

from repro.util.rng import rng_from_seed

#: Lloyd iteration cap, and the relative inertia improvement below which a
#: run counts as converged.
MAX_ITER = 100
TOL = 1e-4


def _pairwise_sq_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (len(X), len(C))."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 — avoids the (n, k, d) tensor.
    d = (
        np.einsum("ij,ij->i", X, X)[:, None]
        - 2.0 * (X @ C.T)
        + np.einsum("ij,ij->i", C, C)[None, :]
    )
    return np.maximum(d, 0.0)


class KMeans:
    """Lloyd's K-means.

    Attributes (after :meth:`fit`):
        cluster_centers_: array (k, d) of centroids.
        labels_: training-point assignments.
        inertia_: sum of squared distances to assigned centroids (the SSE of
            the paper's Equation 1).
        n_iter_: Lloyd iterations actually run.
    """

    def __init__(
        self,
        n_clusters: int,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        self.n_clusters = n_clusters
        self._rng = rng_from_seed(seed)
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float | None = None
        self.n_iter_: int = 0

    def fit(self, X: np.ndarray) -> "KMeans":
        """Cluster the rows of ``X`` (one k-means++ seeded Lloyd run)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("X must be a non-empty 2D array")
        if len(X) < self.n_clusters:
            raise ValueError(
                f"need at least n_clusters={self.n_clusters} points, got {len(X)}"
            )
        self.cluster_centers_, self.labels_, self.inertia_, self.n_iter_ = (
            self._lloyd(X)
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign each row of ``X`` to its nearest centroid."""
        if self.cluster_centers_ is None:
            raise RuntimeError("predict called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return _pairwise_sq_distances(X, self.cluster_centers_).argmin(axis=1)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Distances from each row to every centroid."""
        if self.cluster_centers_ is None:
            raise RuntimeError("transform called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.sqrt(_pairwise_sq_distances(X, self.cluster_centers_))

    def _lloyd(self, X: np.ndarray):
        centers = self._init_plus_plus(X)
        prev_inertia = np.inf
        iteration = 0
        for iteration in range(1, MAX_ITER + 1):
            dists = _pairwise_sq_distances(X, centers)
            labels = dists.argmin(axis=1)
            inertia = float(dists[np.arange(len(X)), labels].sum())
            if np.isfinite(prev_inertia) and (
                prev_inertia - inertia <= TOL * max(prev_inertia, 1e-12)
            ):
                # Converged: centers were not moved after this assignment, so
                # (centers, labels, inertia) are mutually consistent.
                return centers, labels, inertia, iteration
            prev_inertia = inertia
            for c in range(self.n_clusters):
                members = labels == c
                if members.any():
                    centers[c] = X[members].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the farthest point.
                    farthest = dists.min(axis=1).argmax()
                    centers[c] = X[farthest]
        # Ran out of iterations after a center move: refresh the assignment.
        dists = _pairwise_sq_distances(X, centers)
        labels = dists.argmin(axis=1)
        inertia = float(dists[np.arange(len(X)), labels].sum())
        return centers, labels, inertia, iteration

    def _init_plus_plus(self, X: np.ndarray) -> np.ndarray:
        n = len(X)
        centers = np.empty((self.n_clusters, X.shape[1]), dtype=np.float64)
        first = int(self._rng.integers(0, n))
        centers[0] = X[first]
        closest_sq = _pairwise_sq_distances(X, centers[:1]).ravel()
        for c in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0:
                # All points coincide with chosen centers; pick uniformly.
                idx = int(self._rng.integers(0, n))
            else:
                probs = closest_sq / total
                idx = int(self._rng.choice(n, p=probs))
            centers[c] = X[idx]
            new_sq = _pairwise_sq_distances(X, centers[c : c + 1]).ravel()
            closest_sq = np.minimum(closest_sq, new_sq)
        return centers
