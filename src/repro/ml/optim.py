"""First-order optimisers operating on (param, grad) array pairs.

Optimiser state is keyed by position in the parameter list, so callers must
pass the same parameter ordering on every step (as :class:`repro.ml.network.MLP`
and the models do).
"""

from __future__ import annotations

import numpy as np

#: Adam's moment decay rates (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999


class SGD:
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._velocity: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Apply one update in place."""
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self._velocity):
            v *= self.momentum
            v -= self.lr * g
            p += v


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        lr: float = 1e-3,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.eps = eps
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Apply one update in place."""
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        bias1 = 1.0 - BETA1**self._t
        bias2 = 1.0 - BETA2**self._t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
