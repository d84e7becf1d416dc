"""LSTM tests: gradcheck, learning a periodic pattern, generation."""

import numpy as np
import pytest

from repro.ml.lstm import LSTMCell, LSTMPredictor


class TestLSTMCell:
    def test_forward_shape(self):
        cell = LSTMCell(4, 6, seed=0)
        h = cell.forward(np.zeros((3, 5, 4)))
        assert h.shape == (3, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMCell(0, 4)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            LSTMCell(2, 2).backward(np.zeros((1, 2)))

    def test_forget_bias_initialised_to_one(self):
        cell = LSTMCell(3, 5, seed=1)
        assert np.allclose(cell.b[5:10], 1.0)
        assert np.allclose(cell.b[:5], 0.0)

    def test_gradcheck_through_time(self):
        rng = np.random.default_rng(2)
        cell = LSTMCell(2, 3, seed=2)
        x = rng.normal(size=(2, 4, 2))

        def loss():
            return float((cell.forward(x) ** 2).sum())

        cell.zero_grad()
        h = cell.forward(x)
        cell.backward(2.0 * h)
        analytic_W = cell.grad_W.copy()
        analytic_b = cell.grad_b.copy()
        eps = 1e-6
        for param, analytic in ((cell.W, analytic_W), (cell.b, analytic_b)):
            flat = param.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss()
                flat[idx] = orig - eps
                down = loss()
                flat[idx] = orig
                num = (up - down) / (2 * eps)
                assert analytic.reshape(-1)[idx] == pytest.approx(num, abs=1e-4)


class TestLSTMPredictor:
    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMPredictor(window_bits=10, chunk_bits=3, hidden_dim=32, seed=0)
        with pytest.raises(ValueError):
            LSTMPredictor(window_bits=0, chunk_bits=8, hidden_dim=32, seed=0)

    def test_predict_next_shape_and_range(self):
        model = LSTMPredictor(window_bits=16, chunk_bits=4, hidden_dim=6, seed=0)
        probs = model.predict_next(np.zeros(16))
        assert probs.shape == (4,)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_predict_wrong_window_raises(self):
        model = LSTMPredictor(window_bits=16, chunk_bits=4, hidden_dim=32, seed=0)
        with pytest.raises(ValueError):
            model.predict_next(np.zeros(12))

    def test_learns_periodic_pattern(self):
        """A strictly periodic bit stream should be continued correctly."""
        pattern = np.tile([1, 1, 1, 1, 0, 0, 0, 0], 16).astype(float)  # 128 bits
        data = np.stack([pattern] * 8)
        model = LSTMPredictor(window_bits=16, chunk_bits=8, hidden_dim=16, seed=1)
        model.fit(data, epochs=30, lr=1e-2)
        generated = model.generate(pattern[:64], 16)
        expected = pattern[64:80]
        accuracy = (generated == expected).mean()
        assert accuracy >= 0.8

    def test_generate_length_and_values(self):
        model = LSTMPredictor(window_bits=16, chunk_bits=4, hidden_dim=6, seed=2)
        out = model.generate(np.ones(20), 10)
        assert out.shape == (10,)
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_generate_zero_bits(self):
        model = LSTMPredictor(window_bits=16, chunk_bits=4, hidden_dim=6, seed=3)
        assert model.generate(np.ones(16), 0).size == 0

    def test_generate_with_short_context_tiles(self):
        model = LSTMPredictor(window_bits=16, chunk_bits=4, hidden_dim=6, seed=4)
        out = model.generate(np.array([1.0, 0.0]), 8)
        assert out.shape == (8,)

    def test_fit_without_material_raises(self):
        model = LSTMPredictor(window_bits=64, chunk_bits=8, hidden_dim=32, seed=0)
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 16)))  # vectors shorter than one window

    def test_loss_decreases(self):
        rng = np.random.default_rng(5)
        data = np.tile((rng.random(32) > 0.5).astype(float), (20, 4))
        model = LSTMPredictor(window_bits=32, chunk_bits=8, hidden_dim=12, seed=5)
        history = model.fit(data, epochs=10, lr=5e-3)
        assert history[-1] < history[0]
