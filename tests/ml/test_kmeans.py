"""K-means tests: recovery of planted clusters, invariants, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.kmeans import KMeans, _pairwise_sq_distances


def planted_clusters(n_per=30, k=3, d=4, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 5.0, size=(k, d))
    X = np.concatenate(
        [c + rng.normal(0.0, spread, size=(n_per, d)) for c in centers]
    )
    labels = np.repeat(np.arange(k), n_per)
    return X, labels, centers


class TestPairwiseDistances:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        C = rng.normal(size=(4, 3))
        naive = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(_pairwise_sq_distances(X, C), naive)

    def test_non_negative(self):
        X = np.ones((5, 2)) * 1e8
        assert (_pairwise_sq_distances(X, X) >= 0).all()


class TestKMeans:
    def test_validation(self):
        with pytest.raises(ValueError):
            KMeans(0)
        with pytest.raises(ValueError):
            KMeans(5).fit(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            KMeans(2).fit(np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(2).predict(np.zeros((1, 2)))

    def test_recovers_planted_clusters(self):
        X, truth, _ = planted_clusters()
        km = KMeans(3, seed=0).fit(X)
        # Cluster labels are a permutation of the planted labels.
        for c in range(3):
            members = km.labels_[truth == c]
            assert len(np.unique(members)) == 1

    def test_inertia_matches_definition(self):
        X, _, _ = planted_clusters(seed=2)
        km = KMeans(3, seed=2).fit(X)
        diffs = X - km.cluster_centers_[km.labels_]
        assert km.inertia_ == pytest.approx(float((diffs**2).sum()), rel=1e-6)

    def test_inertia_decreases_with_k(self):
        X, _, _ = planted_clusters(n_per=40, k=4, seed=3)
        inertias = [KMeans(k, seed=3).fit(X).inertia_ for k in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(inertias, inertias[1:]))

    def test_predict_assigns_nearest_center(self):
        X, _, _ = planted_clusters(seed=4)
        km = KMeans(3, seed=4).fit(X)
        pred = km.predict(X)
        d = _pairwise_sq_distances(X, km.cluster_centers_)
        assert np.array_equal(pred, d.argmin(axis=1))

    def test_single_point_per_cluster(self):
        X = np.array([[0.0, 0.0], [10.0, 10.0]])
        km = KMeans(2, seed=5).fit(X)
        assert sorted(km.labels_.tolist()) == [0, 1]
        assert km.inertia_ == pytest.approx(0.0)

    def test_duplicate_points(self):
        X = np.zeros((10, 3))
        km = KMeans(2, seed=6).fit(X)
        assert km.inertia_ == pytest.approx(0.0)

    def test_transform_shape(self):
        X, _, _ = planted_clusters(seed=7)
        km = KMeans(3, seed=7).fit(X)
        assert km.transform(X[:5]).shape == (5, 3)

    @given(st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_every_point_gets_a_label_in_range(self, k):
        rng = np.random.default_rng(k)
        X = rng.normal(size=(30, 3))
        km = KMeans(k, seed=k).fit(X)
        assert km.labels_.shape == (30,)
        assert set(np.unique(km.labels_)) <= set(range(k))
