"""LSTM sequence model for the learned padding strategy (§4.1.3).

The paper's learned padding slides a window over the input bits: an LSTM
takes 64 bits and predicts the next 8, the window advances by 8, and the
process repeats until enough padding bits are generated (Figure 6).

We implement a single-layer LSTM cell with full backpropagation-through-time
and a dense sigmoid head, treating the window as a sequence of chunk-sized
timesteps.
"""

from __future__ import annotations

import numpy as np

from repro.ml.activations import Sigmoid, Tanh
from repro.ml.data import iterate_minibatches
from repro.ml.layers import Dense
from repro.ml.losses import bernoulli_nll
from repro.ml.optim import Adam
from repro.util.rng import rng_from_seed

#: Training windows extracted per :meth:`LSTMPredictor.fit`, at most.
MAX_SAMPLES = 20_000


class LSTMCell:
    """One LSTM layer unrolled over fixed-length sequences.

    Gates use the standard formulation: ``z = [x, h] W + b`` split into
    input / forget / output / candidate quarters.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("dimensions must be positive")
        rng = rng_from_seed(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        scale = 1.0 / np.sqrt(input_dim + hidden_dim)
        self.W = rng.normal(
            0.0, scale, size=(input_dim + hidden_dim, 4 * hidden_dim)
        )
        self.b = np.zeros(4 * hidden_dim)
        # Forget-gate bias starts at 1 — the usual trick for gradient flow.
        self.b[hidden_dim : 2 * hidden_dim] = 1.0
        self.grad_W = np.zeros_like(self.W)
        self.grad_b = np.zeros_like(self.b)
        self._sigmoid = Sigmoid()
        self._tanh = Tanh()
        self._cache: list | None = None

    def forward(self, x_seq: np.ndarray) -> np.ndarray:
        """Run the batch of sequences (B, T, input_dim); return final h."""
        batch, steps, _ = x_seq.shape
        hd = self.hidden_dim
        h = np.zeros((batch, hd))
        c = np.zeros((batch, hd))
        self._cache = []
        for t in range(steps):
            x = x_seq[:, t, :]
            xh = np.concatenate([x, h], axis=1)
            z = xh @ self.W + self.b
            i = self._sigmoid.forward(z[:, :hd])
            f = self._sigmoid.forward(z[:, hd : 2 * hd])
            o = self._sigmoid.forward(z[:, 2 * hd : 3 * hd])
            g = self._tanh.forward(z[:, 3 * hd :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            self._cache.append((xh, i, f, o, g, c, tanh_c))
            h, c = h_new, c_new
        return h

    def backward(self, dh: np.ndarray) -> None:
        """BPTT from the gradient of the final hidden state."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        hd = self.hidden_dim
        dc = np.zeros_like(dh)
        for xh, i, f, o, g, c_prev, tanh_c in reversed(self._cache):
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    do * o * (1.0 - o),
                    dg * (1.0 - g * g),
                ],
                axis=1,
            )
            self.grad_W += xh.T @ dz
            self.grad_b += dz.sum(axis=0)
            dxh = dz @ self.W.T
            dh = dxh[:, self.input_dim :]
            dc = dc * f
        self._cache = None

    def zero_grad(self) -> None:
        self.grad_W[:] = 0.0
        self.grad_b[:] = 0.0

    @property
    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.grad_W, self.grad_b]


class LSTMPredictor:
    """Sliding-window bit predictor: ``window_bits`` in, ``chunk_bits`` out.

    Args:
        window_bits: context window size (paper: 64).
        chunk_bits: bits predicted per step and window slide (paper: 8).
        hidden_dim: LSTM state width.
        seed: RNG seed.
    """

    def __init__(
        self,
        window_bits: int,
        chunk_bits: int,
        hidden_dim: int,
        seed: int | np.random.Generator | None,
    ) -> None:
        if window_bits <= 0 or chunk_bits <= 0 or window_bits % chunk_bits:
            raise ValueError("window_bits must be a positive multiple of chunk_bits")
        self.window_bits = window_bits
        self.chunk_bits = chunk_bits
        self.steps = window_bits // chunk_bits
        self._rng = rng_from_seed(seed)
        self.cell = LSTMCell(chunk_bits, hidden_dim, seed=self._rng)
        self.head = Dense(hidden_dim, chunk_bits, "sigmoid", seed=self._rng)
        self.trained = False

    def fit(
        self,
        bit_vectors: np.ndarray,
        epochs: int = 5,
        batch_size: int = 64,
        lr: float = 3e-3,
        include_reversed: bool = True,
        verbose: bool = False,
    ) -> list[float]:
        """Train on sliding windows extracted from training bit vectors.

        ``include_reversed`` also trains on the reversed sequences so the
        model can extrapolate both after (end-padding) and before
        (beginning-padding) the data.
        """
        X, y = self._make_samples(bit_vectors, include_reversed)
        if len(X) == 0:
            raise ValueError("no training windows could be extracted")
        optimizer = Adam(lr=lr)
        history = []
        for epoch in range(epochs):
            order = self._rng.permutation(len(X))
            losses = []
            for batch_idx in iterate_minibatches(
                order, batch_size, seed=self._rng, shuffle=False
            ):
                losses.append(
                    self._train_batch(X[batch_idx], y[batch_idx], optimizer)
                )
            history.append(float(np.mean(losses)))
            if verbose:
                print(f"lstm epoch {epoch + 1}/{epochs}  loss {history[-1]:.4f}")
        self.head.release_step_buffers()
        self.trained = True
        return history

    def predict_next(self, window: np.ndarray) -> np.ndarray:
        """Probabilities of the next ``chunk_bits`` given a full window."""
        window = np.asarray(window, dtype=np.float64).reshape(-1)
        if window.size != self.window_bits:
            raise ValueError(
                f"window must have {self.window_bits} bits, got {window.size}"
            )
        seq = window.reshape(1, self.steps, self.chunk_bits)
        h = self.cell.forward(seq)
        return self.head.infer(h)[0]

    def generate(self, context_bits: np.ndarray, n_bits: int) -> np.ndarray:
        """Continue ``context_bits`` with ``n_bits`` of predicted padding.

        Shorter-than-window contexts are tiled to fill the window (repeating
        short patterns is the least-surprising seed for periodic bit data).
        """
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        context = np.asarray(context_bits, dtype=np.float64).reshape(-1)
        if context.size == 0:
            context = np.zeros(self.window_bits)
        if context.size < self.window_bits:
            reps = -(-self.window_bits // context.size)
            window = np.tile(context, reps)[-self.window_bits :]
        else:
            window = context[-self.window_bits :]
        out = np.empty(0, dtype=np.float64)
        while out.size < n_bits:
            probs = self.predict_next(window)
            chunk = (probs > 0.5).astype(np.float64)
            out = np.concatenate([out, chunk])
            window = np.concatenate([window[self.chunk_bits :], chunk])
        return out[:n_bits]

    def _train_batch(self, X: np.ndarray, y: np.ndarray, optimizer) -> float:
        h = self.cell.forward(X)
        probs = self.head.forward(h)
        bce, dprobs_pre = bernoulli_nll(y, probs)  # grad w.r.t. pre-sigmoid
        self.cell.zero_grad()
        self.head.zero_grad()
        # The head applied sigmoid; bypass its activation backward by feeding
        # the pre-activation gradient through a manual affine backprop.
        self.head.grad_W += self.cell_last_h.T @ dprobs_pre
        self.head.grad_b += dprobs_pre.sum(axis=0)
        dh = dprobs_pre @ self.head.W.T
        self.cell.backward(dh)
        optimizer.step(
            self.cell.params + self.head.params,
            self.cell.grads + self.head.grads,
        )
        return bce

    @property
    def cell_last_h(self) -> np.ndarray:
        """The hidden state cached by the head's forward pass."""
        if self.head._x is None:
            raise RuntimeError("no forward pass recorded")
        return self.head._x

    def _make_samples(
        self, bit_vectors: np.ndarray, include_reversed: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        vectors = [np.asarray(v, dtype=np.float64).reshape(-1) for v in bit_vectors]
        if include_reversed:
            vectors += [v[::-1] for v in list(vectors)]
        xs, ys = [], []
        need = self.window_bits + self.chunk_bits
        for vec in vectors:
            for start in range(0, vec.size - need + 1, self.chunk_bits):
                xs.append(vec[start : start + self.window_bits])
                ys.append(vec[start + self.window_bits : start + need])
                if len(xs) >= MAX_SAMPLES:
                    break
            if len(xs) >= MAX_SAMPLES:
                break
        if not xs:
            return np.empty((0,)), np.empty((0,))
        X = np.stack(xs).reshape(len(xs), self.steps, self.chunk_bits)
        y = np.stack(ys)
        return X, y
