"""Loss functions with paired analytic gradients.

Each function returns ``(loss, *grads)`` where the loss is already averaged
over the batch and the gradients are w.r.t. the function's first argument(s)
with the same averaging — ready to feed straight into backprop.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-7


def bernoulli_nll(
    targets: np.ndarray, probs: np.ndarray, work: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Binary cross-entropy between 0/1 ``targets`` and probabilities.

    Returns ``(loss, grad_wrt_logits)`` — the gradient is w.r.t. the
    *pre-sigmoid logits* (the usual fused form ``probs - targets``), since
    every caller pairs this loss with a sigmoid output.

    ``work``, when given, is a float64 array of shape ``(2, *probs.shape)``
    the function computes in instead of allocating its temporaries — a
    training loop passes the same one every step; the returned gradient is
    then ``work[0]``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if targets.shape != probs.shape:
        raise ValueError(f"shape mismatch: {targets.shape} vs {probs.shape}")
    if work is None:
        work = np.empty((2, *probs.shape))
    batch = max(len(targets), 1)
    # nll = -(targets * log(probs + eps)
    #         + (1 - targets) * log(1 - probs + eps)), second term first.
    term, nll = work
    np.subtract(1.0, probs, out=term)
    term += _EPS
    np.log(term, out=term)
    term *= np.subtract(1.0, targets, out=nll)
    np.add(probs, _EPS, out=nll)
    np.log(nll, out=nll)
    nll *= targets
    nll += term
    loss = float(-nll.sum() / batch)
    grad_logits = np.subtract(probs, targets, out=term)
    grad_logits /= batch
    return loss, grad_logits


def gaussian_kl(
    mu: np.ndarray, logvar: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """KL( N(mu, exp(logvar)) || N(0, I) ), batch-averaged.

    Returns ``(loss, grad_mu, grad_logvar)``.
    """
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise ValueError(f"shape mismatch: {mu.shape} vs {logvar.shape}")
    batch = max(len(mu), 1)
    loss = float(-0.5 * (1.0 + logvar - mu**2 - np.exp(logvar)).sum() / batch)
    grad_mu = mu / batch
    grad_logvar = 0.5 * (np.exp(logvar) - 1.0) / batch
    return loss, grad_mu, grad_logvar


def mse(targets: np.ndarray, predictions: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error (summed over features, averaged over the batch).

    Returns ``(loss, grad_wrt_predictions)``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if targets.shape != predictions.shape:
        raise ValueError(
            f"shape mismatch: {targets.shape} vs {predictions.shape}"
        )
    batch = max(len(targets), 1)
    diff = predictions - targets
    loss = float((diff**2).sum() / batch)
    return loss, 2.0 * diff / batch
