"""Sequential multilayer perceptron built from :class:`~repro.ml.layers.Dense`."""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Dense
from repro.util.rng import rng_from_seed


class MLP:
    """A stack of dense layers.

    Args:
        dims: layer widths, e.g. ``(784, 256, 64)``.
        hidden_activation: activation for all but the last layer.
        output_activation: activation for the last layer.
        seed: RNG for weight initialisation.
    """

    def __init__(
        self,
        dims,
        hidden_activation="relu",
        output_activation="identity",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        dims = list(dims)
        if len(dims) < 2:
            raise ValueError("an MLP needs at least an input and output width")
        rng = rng_from_seed(seed)
        self.layers: list[Dense] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            last = i == len(dims) - 2
            act = output_activation if last else hidden_activation
            self.layers.append(Dense(d_in, d_out, activation=act, seed=rng))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the batch through every layer."""
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Stateless forward pass (no backprop caches); thread-safe."""
        for layer in self.layers:
            x = layer.infer(x)
        return x

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backprop through every layer; returns the gradient w.r.t. the
        input (``None`` with ``input_grad=False``, which skips computing
        it — for a network fed by data rather than by another layer)."""
        for layer in reversed(self.layers):
            grad_out = layer.backward(
                grad_out, input_grad or layer is not self.layers[0]
            )
        return grad_out

    def release_step_buffers(self) -> None:
        for layer in self.layers:
            layer.release_step_buffers()

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]
