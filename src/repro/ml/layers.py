"""Fully-connected layer with cached-input backprop."""

from __future__ import annotations

import numpy as np

from repro.ml.activations import ReLU, get_activation
from repro.util.rng import rng_from_seed


class Dense:
    """An affine layer ``y = act(x @ W + b)``.

    Weights use He initialisation for ReLU-family activations and Xavier
    otherwise.  ``forward`` caches what ``backward`` needs; gradients
    accumulate into ``grad_W`` / ``grad_b`` until :meth:`zero_grad`.

    ``forward`` / ``backward`` are the training pass and reuse one output
    buffer from step to step: the array ``forward`` returns is overwritten
    by the next ``forward`` and lives until :meth:`release_step_buffers`
    (a fresh megabyte-sized ``x @ W + b`` per step is paged in by the
    kernel and trimmed away again, which costs more than the product).
    :meth:`infer` shares none of this: it allocates per call and touches
    no layer state.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation="identity",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        rng = rng_from_seed(seed)
        self.activation = get_activation(activation)
        scale = np.sqrt(
            (2.0 if isinstance(self.activation, ReLU) else 1.0) / in_dim
        )
        self.W = rng.normal(0.0, scale, size=(in_dim, out_dim)).astype(np.float64)
        self.b = np.zeros(out_dim, dtype=np.float64)
        self.grad_W = np.zeros_like(self.W)
        self.grad_b = np.zeros_like(self.b)
        self._x: np.ndarray | None = None
        self._out: np.ndarray | None = None
        #: ``forward`` writes into the leading rows of this step buffer,
        #: sized for the largest batch seen.
        self._out_buffer: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute activations for a batch ``x`` of shape (B, in_dim)."""
        if self._out_buffer is None or len(self._out_buffer) < len(x):
            self._out_buffer = np.empty((len(x), self.W.shape[1]))
        out = self._out_buffer[: len(x)]
        self._x = x
        np.matmul(x, self.W, out=out)
        out += self.b
        self._out = self.activation.forward(out, out=out)
        return self._out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Stateless forward pass: no backprop caches are written, so
        concurrent inference threads never race on layer state."""
        return self.activation.forward(x @ self.W + self.b)

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backprop ``grad_out`` (B, out_dim); returns the gradient w.r.t.
        the input, or ``None`` when the caller has no use for it
        (``input_grad=False``: the first layer of a network)."""
        if self._x is None or self._out is None:
            raise RuntimeError("backward called before forward")
        grad_pre = self.activation.backward(grad_out, self._out)
        self.grad_W += self._x.T @ grad_pre
        self.grad_b += grad_pre.sum(axis=0)
        if not input_grad:
            return None
        return grad_pre @ self.W.T

    def release_step_buffers(self) -> None:
        """Drop the training pass's output buffer and backprop caches (a
        fitted model keeps only its parameters and gradients)."""
        self._x = self._out = self._out_buffer = None

    def zero_grad(self) -> None:
        """Reset accumulated gradients."""
        self.grad_W[:] = 0.0
        self.grad_b[:] = 0.0

    @property
    def params(self) -> list[np.ndarray]:
        """Trainable arrays, paired index-wise with :attr:`grads`."""
        return [self.W, self.b]

    @property
    def grads(self) -> list[np.ndarray]:
        """Accumulated gradients, paired index-wise with :attr:`params`."""
        return [self.grad_W, self.grad_b]
