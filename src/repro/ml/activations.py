"""Elementwise activations with explicit forward/backward passes.

``forward(x, out=None)`` follows NumPy's convention: the result is written
into ``out`` when one is given (``out`` may be ``x`` itself) and into a
fresh array otherwise; either way the result is what is returned.
"""

from __future__ import annotations

import numpy as np


class Identity:
    """f(x) = x."""

    name = "identity"

    def forward(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        if out is None or out is x:
            return x
        np.copyto(out, x)
        return out

    def backward(self, grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
        return grad_out


class ReLU:
    """f(x) = max(0, x)."""

    name = "relu"

    def forward(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.maximum(x, 0.0, out=out)

    def backward(self, grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
        return grad_out * (out > 0.0)


class Sigmoid:
    """f(x) = 1 / (1 + e^-x), computed stably for large |x|.

    With ``e = exp(-|x|)`` the value is ``1 / (1 + e)`` for ``x >= 0`` and
    ``e / (1 + e)`` below: one ``exp`` that cannot overflow and one
    division per element, whichever the sign.
    """

    name = "sigmoid"

    def forward(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        nonneg = x >= 0
        e = np.empty_like(x) if out is None else out
        np.abs(x, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        # e <= 1, so the maximum against the 0/1 mask picks 1 or e.
        numerator = np.maximum(e, nonneg)
        e += 1.0
        return np.divide(numerator, e, out=e)

    def backward(self, grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
        return grad_out * out * (1.0 - out)


class Tanh:
    """f(x) = tanh(x)."""

    name = "tanh"

    def forward(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.tanh(x, out=out)

    def backward(self, grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - out * out)


_ACTIVATIONS = {cls.name: cls for cls in (Identity, ReLU, Sigmoid, Tanh)}


def get_activation(name):
    """Resolve an activation by name or pass an instance through."""
    if isinstance(name, str):
        try:
            return _ACTIVATIONS[name]()
        except KeyError:
            raise ValueError(
                f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
            ) from None
    return name
