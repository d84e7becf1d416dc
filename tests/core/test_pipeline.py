"""EncoderPipeline tests: training gate, padding integration, latency stats."""

import numpy as np
import pytest

from repro.core.config import fast_test_config
from repro.core.pipeline import EncoderPipeline
from repro.workloads.datasets import bits_to_values, make_image_dataset


def trained_pipeline(seed=0, bits=128):
    config = fast_test_config(seed=seed)
    pipeline = EncoderPipeline(bits, config)
    X, _ = make_image_dataset(120, bits, n_classes=3, noise=0.1, seed=seed)
    pipeline.fit(X)
    return pipeline, X


class TestPipeline:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderPipeline(0, fast_test_config())

    def test_fit_checks_width(self):
        pipeline = EncoderPipeline(64, fast_test_config())
        with pytest.raises(ValueError):
            pipeline.fit(np.zeros((10, 32)))

    def test_predict_full_width_bytes(self):
        pipeline, X = trained_pipeline()
        value = bits_to_values(X[:1])[0]
        cluster = pipeline.predict_cluster(value)
        assert 0 <= cluster < 3

    def test_predict_short_value_uses_padding(self):
        pipeline, _ = trained_pipeline()
        cluster = pipeline.predict_cluster(b"hi")  # 16 bits of 128
        assert 0 <= cluster < 3

    def test_predict_bit_vector_input(self):
        pipeline, X = trained_pipeline()
        assert 0 <= pipeline.predict_cluster(X[0]) < 3

    def test_predict_segments_matches_model(self):
        pipeline, X = trained_pipeline()
        labels = pipeline.predict_segments(X[:10])
        assert labels.shape == (10,)

    def test_latency_tracking(self):
        pipeline, X = trained_pipeline()
        assert pipeline.mean_prediction_latency_us == 0.0
        pipeline.predict_cluster(X[0])
        pipeline.predict_cluster(X[1])
        assert pipeline.prediction_count == 2
        assert pipeline.mean_prediction_latency_us > 0.0

    def test_centroids_shape(self):
        pipeline, _ = trained_pipeline()
        assert pipeline.centroids.shape == (3, 4)  # fast config latent_dim=4

    def test_deterministic_given_seed(self):
        p1, X = trained_pipeline(seed=42)
        p2, _ = trained_pipeline(seed=42)
        for row in X[:5]:
            assert p1.predict_cluster(row) == p2.predict_cluster(row)
