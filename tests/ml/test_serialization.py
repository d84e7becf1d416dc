"""Model snapshot/restore tests."""

import numpy as np
import pytest

from repro.ml.joint import JointVAEKMeans
from repro.ml.serialization import load_joint, load_vae, save_joint, save_vae
from repro.ml.vae import VAE
from repro.workloads.datasets import make_image_dataset


@pytest.fixture(scope="module")
def trained_bits():
    bits, _ = make_image_dataset(120, 64, n_classes=3, noise=0.08, seed=0)
    return bits


class TestVAESnapshot:
    def test_roundtrip_preserves_outputs(self, tmp_path, trained_bits):
        vae = VAE(64, latent_dim=4, hidden=(16,), seed=1)
        vae.fit(trained_bits, epochs=3, batch_size=32)
        path = tmp_path / "vae.npz"
        save_vae(vae, path)
        restored = load_vae(path)
        assert np.allclose(
            restored.transform(trained_bits), vae.transform(trained_bits)
        )
        assert restored.evaluate(trained_bits) == pytest.approx(
            vae.evaluate(trained_bits)
        )

    def test_wrong_kind_rejected(self, tmp_path, trained_bits):
        model = JointVAEKMeans(
            64, 3, latent_dim=4, hidden=(16,), pretrain_epochs=1,
            joint_epochs=1, seed=0,
        ).fit(trained_bits)
        path = tmp_path / "joint.npz"
        save_joint(model, path)
        with pytest.raises(ValueError):
            load_vae(path)

    def test_restored_model_is_trainable(self, tmp_path, trained_bits):
        vae = VAE(64, latent_dim=4, hidden=(16,), seed=2)
        vae.fit(trained_bits, epochs=2, batch_size=32)
        path = tmp_path / "cont.npz"
        save_vae(vae, path)
        restored = load_vae(path)
        history = restored.fit(trained_bits, epochs=2, batch_size=32)
        assert len(history["train_loss"]) == 2


class TestJointSnapshot:
    def test_roundtrip_preserves_predictions(self, tmp_path, trained_bits):
        model = JointVAEKMeans(
            64, 3, latent_dim=4, hidden=(16,), pretrain_epochs=3,
            joint_epochs=1, seed=4,
        ).fit(trained_bits)
        path = tmp_path / "joint.npz"
        save_joint(model, path)
        restored = load_joint(path)
        assert np.array_equal(
            restored.predict(trained_bits), model.predict(trained_bits)
        )
        assert np.allclose(restored.centroids, model.centroids)

    def test_untrained_rejected(self, tmp_path):
        model = JointVAEKMeans(64, 3, latent_dim=4, hidden=(16,), seed=5)
        with pytest.raises(ValueError):
            save_joint(model, tmp_path / "nope.npz")

    def test_restored_model_drives_engine_predictions(self, tmp_path, trained_bits):
        """A restored model can serve as a placement predictor."""
        model = JointVAEKMeans(
            64, 3, latent_dim=4, hidden=(16,), pretrain_epochs=3,
            joint_epochs=1, seed=6,
        ).fit(trained_bits)
        path = tmp_path / "deploy.npz"
        save_joint(model, path)
        restored = load_joint(path)
        for row in trained_bits[:10]:
            assert 0 <= restored.predict_one(row) < 3
