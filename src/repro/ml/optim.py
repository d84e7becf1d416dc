"""First-order optimisers operating on (param, grad) array pairs.

Optimiser state is keyed by position in the parameter list, so callers must
pass the same parameter ordering on every step (as :class:`repro.ml.network.MLP`
and the models do).
"""

from __future__ import annotations

import numpy as np

#: Adam's moment decay rates and denominator floor (Kingma & Ba's
#: defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, lr: float = 1e-3) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
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
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
