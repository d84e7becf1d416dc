"""Dense layer and activation tests, including finite-difference gradchecks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.activations import Identity, ReLU, Sigmoid, Tanh, get_activation
from repro.ml.layers import Dense
from repro.ml.network import MLP


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = f()
        x[idx] = orig - eps
        minus = f()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestActivations:
    @pytest.mark.parametrize("name,cls", [
        ("identity", Identity), ("relu", ReLU), ("sigmoid", Sigmoid),
        ("tanh", Tanh),
    ])
    def test_lookup_by_name(self, name, cls):
        assert isinstance(get_activation(name), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_activation("swish")

    def test_instance_passthrough(self):
        act = ReLU()
        assert get_activation(act) is act

    def test_relu_forward(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert ReLU().forward(x).tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_stable_for_large_inputs(self):
        out = Sigmoid().forward(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("act", [Identity(), ReLU(), Sigmoid(), Tanh()])
    def test_backward_matches_numerical(self, act):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5,)) + 0.1  # avoid ReLU kink at 0
        out = act.forward(x)
        grad = act.backward(np.ones_like(x), out)
        num = numerical_grad(lambda: act.forward(x).sum(), x)
        assert np.allclose(grad, num, atol=1e-5)


def _masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """``Sigmoid.forward`` as it stood before PR 23 (gather and scatter
    through two boolean masks), kept as the bit-exact reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


#: Zeros of both signs, the last values before the result rounds to 1 or
#: underflows, the edges of ``exp``'s range, infinities and subnormals.
_SIGMOID_EDGES = [
    0.0, -0.0, 36.7, -36.7, 709.0, -709.0, 745.0, -745.0, 1000.0, -1000.0,
    np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
    np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
]


class TestSigmoidBitExact:
    """The rewritten forward must give the masked implementation's bits:
    every trained weight — and so every placement and simulated counter —
    is downstream of them."""

    @staticmethod
    def _same_bits(x: np.ndarray) -> None:
        got = Sigmoid().forward(x)
        want = _masked_sigmoid(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
            elements=st.floats(
                allow_nan=False, allow_infinity=True, allow_subnormal=True
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_floats(self, x):
        self._same_bits(x)

    @given(
        hnp.arrays(
            np.float64, (7, 24), elements=st.floats(-40.0, 40.0, width=64)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_the_range_training_lives_in(self, x):
        self._same_bits(x)

    def test_edge_values(self):
        self._same_bits(np.array(_SIGMOID_EDGES))
        # Long enough for the vector body of exp, not only its tail.
        self._same_bits(np.tile(np.array(_SIGMOID_EDGES), 9))

    def test_empty(self):
        self._same_bits(np.empty((0,)))
        self._same_bits(np.empty((0, 8)))

    def test_non_contiguous_column_slices(self):
        """``LSTMCell`` passes gate quarters ``z[:, :hd]`` of one matrix."""
        rng = np.random.default_rng(5)
        z = rng.normal(scale=6.0, size=(9, 64))
        for start in range(0, 64, 16):
            quarter = z[:, start : start + 16]
            assert not quarter.flags.c_contiguous
            self._same_bits(quarter)

    def test_out_argument_and_in_place(self):
        rng = np.random.default_rng(6)
        x = rng.normal(scale=6.0, size=(5, 33))
        want = _masked_sigmoid(x)
        out = np.empty_like(x)
        assert Sigmoid().forward(x, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert Sigmoid().forward(x, out=x) is x
        assert x.tobytes() == want.tobytes()

    def test_nan_stays_nan(self):
        assert np.isnan(Sigmoid().forward(np.array([np.nan, 1.0]))[0])


class TestDense:
    def test_shapes(self):
        layer = Dense(4, 3, seed=0)
        out = layer.forward(np.zeros((7, 4)))
        assert out.shape == (7, 3)

    def test_bad_dims_raise(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2).backward(np.zeros((1, 2)))

    def test_gradcheck_weights(self):
        rng = np.random.default_rng(1)
        layer = Dense(4, 3, activation="tanh", seed=1)
        x = rng.normal(size=(6, 4))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        layer.zero_grad()
        out = layer.forward(x)
        layer.backward(2.0 * out)
        num_W = numerical_grad(loss, layer.W)
        num_b = numerical_grad(loss, layer.b)
        assert np.allclose(layer.grad_W, num_W, atol=1e-4)
        assert np.allclose(layer.grad_b, num_b, atol=1e-4)

    def test_gradcheck_input(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, activation="sigmoid", seed=2)
        x = rng.normal(size=(4, 3))
        out = layer.forward(x)
        layer.zero_grad()
        grad_in = layer.backward(2.0 * out)

        def loss():
            return float((layer.forward(x) ** 2).sum())

        num = numerical_grad(loss, x)
        assert np.allclose(grad_in, num, atol=1e-4)

    def test_grads_accumulate_until_zeroed(self):
        layer = Dense(2, 2, seed=3)
        x = np.ones((1, 2))
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        first = layer.grad_W.copy()
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        assert np.allclose(layer.grad_W, 2 * first)
        layer.zero_grad()
        assert not layer.grad_W.any()


    def test_infer_is_stateless(self):
        """The write path calls ``infer`` lock-free from several threads:
        it must not write a single attribute of the layer, the training
        pass's buffer and caches included."""
        rng = np.random.default_rng(7)
        layer = Dense(4, 3, activation="sigmoid", seed=7)
        x = rng.normal(size=(6, 4))
        trained_out = layer.forward(x)  # buffers and caches now exist
        expected = trained_out.copy()
        before = dict(vars(layer))
        inferred = layer.infer(x)
        after = vars(layer)
        assert after.keys() == before.keys()
        for name, value in before.items():
            assert after[name] is value, name
        assert inferred.tobytes() == expected.tobytes()
        assert not np.shares_memory(inferred, trained_out)
        assert trained_out.tobytes() == expected.tobytes()

    def test_forward_reuses_its_buffer_across_batch_sizes(self):
        rng = np.random.default_rng(8)
        layer = Dense(4, 3, activation="tanh", seed=8)
        full, short = rng.normal(size=(6, 4)), rng.normal(size=(2, 4))
        first = layer.forward(full)
        want_short = layer.infer(short)
        got_short = layer.forward(short)
        assert np.shares_memory(first, got_short)
        assert got_short.shape == (2, 3) and got_short.flags.c_contiguous
        assert got_short.tobytes() == want_short.tobytes()
        assert layer.forward(full).tobytes() == layer.infer(full).tobytes()
        layer.release_step_buffers()
        assert layer._out_buffer is None
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((6, 3)))

    def test_backward_can_skip_the_input_gradient(self):
        rng = np.random.default_rng(9)
        a = Dense(4, 3, activation="relu", seed=9)
        b = Dense(4, 3, activation="relu", seed=9)
        x = rng.normal(size=(5, 4))
        grad = rng.normal(size=(5, 3))
        a.forward(x)
        b.forward(x)
        assert a.backward(grad) is not None
        assert b.backward(grad, input_grad=False) is None
        assert a.grad_W.tobytes() == b.grad_W.tobytes()
        assert a.grad_b.tobytes() == b.grad_b.tobytes()


class TestMLP:
    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_forward_shape(self):
        net = MLP((4, 8, 2), seed=0)
        assert net.forward(np.zeros((5, 4))).shape == (5, 2)

    def test_params_and_grads_align(self):
        net = MLP((4, 8, 2), seed=0)
        assert len(net.params) == len(net.grads) == 4  # 2 layers x (W, b)
        for p, g in zip(net.params, net.grads):
            assert p.shape == g.shape

    def test_backward_without_input_grad_skips_only_the_first_layer(self):
        rng = np.random.default_rng(10)
        a = MLP((3, 5, 2), hidden_activation="tanh", seed=10)
        b = MLP((3, 5, 2), hidden_activation="tanh", seed=10)
        x = rng.normal(size=(4, 3))
        grad = rng.normal(size=(4, 2))
        a.forward(x)
        b.forward(x)
        assert a.backward(grad).shape == x.shape
        assert b.backward(grad, input_grad=False) is None
        for ga, gb in zip(a.grads, b.grads):
            assert ga.tobytes() == gb.tobytes()

    def test_gradcheck_end_to_end(self):
        rng = np.random.default_rng(4)
        net = MLP((3, 5, 2), hidden_activation="tanh", seed=4)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((net.forward(x) ** 2).sum())

        net.zero_grad()
        out = net.forward(x)
        net.backward(2.0 * out)
        for p, g in zip(net.params, net.grads):
            num = numerical_grad(loss, p)
            assert np.allclose(g, num, atol=1e-4)
