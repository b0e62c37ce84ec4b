"""Composite differentiable functions built on :class:`repro.tensor.Tensor`.

These are the numerical workhorses of the attention and VAE math:
numerically-stable softmax / log-softmax, the multi-hot (next-``k``)
cross-entropy of Eq. 18/20, the Gaussian KL divergence of Eq. 20, the
reparameterized Gaussian sample, and inverted dropout.  The one-hot
cross-entropy fuses the output head into the loss
(:func:`repro.tensor.fused.linear_cross_entropy`).
"""

from __future__ import annotations

import numpy as np

from .compile import mark_dynamic, record_host, tracing
from .fused import fused_multi_hot_cross_entropy
from .tensor import Tensor, _retain, get_default_dtype

__all__ = [
    "softmax",
    "log_softmax",
    "multi_hot_cross_entropy",
    "gaussian_kl_standard_normal",
    "reparameterize",
    "dropout",
    "relu",
    "sigmoid",
    "tanh",
    "softplus",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def multi_hot_cross_entropy(
    logits: Tensor,
    target_multi_hot: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Cross-entropy against multi-hot targets (Eq. 18/20, next-``k`` mode).

    Each position's target is a {0,1} vector over items marking the next
    ``k`` ground-truth items; the loss is ``-sum_i y_i log softmax(x)_i``
    averaged over (weighted) positions, computed by the fused
    log-sum-exp kernel.

    Args:
        logits: shape ``(..., num_classes)``.
        target_multi_hot: {0,1} array broadcastable to ``logits.shape``.
        weights: optional per-position weights, shape ``logits.shape[:-1]``.
    """
    return fused_multi_hot_cross_entropy(
        logits, target_multi_hot, weights=weights
    )


def gaussian_kl_standard_normal(
    mu: Tensor,
    sigma: Tensor,
    weights: np.ndarray | None = None,
) -> Tensor:
    """KL( N(mu, sigma^2) || N(0, I) ), the analytic form in Eq. 20.

    ``0.5 * sum_j (-log sigma_j^2 + mu_j^2 + sigma_j^2 - 1)`` summed over
    the latent dimension (last axis) and averaged over the remaining
    (optionally weighted) positions.
    """
    sigma_sq = sigma * sigma
    per_dim = sigma_sq.log() * (-1.0) + mu * mu + sigma_sq - 1.0
    per_position = per_dim.sum(axis=-1) * 0.5
    if weights is None:
        return per_position.mean()
    weights = np.asarray(weights, dtype=mu.dtype)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("gaussian_kl weights sum to zero")
    weight_leaf = Tensor(weights)
    # The averaging coefficient 1/total depends on the (per-step) weight
    # mask, so under a trace it lives in a replay-refreshed 0-d buffer
    # instead of being frozen into the graph as a python float.
    inv = np.asarray(1.0 / total, dtype=get_default_dtype())
    if tracing():
        if weight_leaf.data is not weights:
            mark_dynamic("gaussian_kl weights dtype differs from default")

        def refresh():
            t = float(weights.sum())
            if t <= 0:
                raise ValueError("gaussian_kl weights sum to zero")
            inv[...] = 1.0 / t

        record_host(refresh)
    return (per_position * weight_leaf).sum() * Tensor(inv)


def reparameterize(mu: Tensor, sigma: Tensor,
                   rng: np.random.Generator) -> Tensor:
    """Reparameterized sample ``mu + sigma * eps``, ``eps ~ N(0, I)``
    drawn from ``rng`` in the shape of ``mu``."""
    shape = mu.shape
    noise = _retain(
        np.asarray(rng.standard_normal(shape), dtype=get_default_dtype())
    )
    if tracing():
        # RNG tap: replay draws from the same generator object, so the
        # sample stream advances exactly as eager would.
        record_host(lambda: np.copyto(noise, rng.standard_normal(shape)))
    return mu + sigma * Tensor(noise)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate``, rescale.

    At evaluation time (``training=False``) or ``rate == 0`` this is the
    identity, so no test-time rescaling is needed.
    """
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    mask_leaf = Tensor(
        _retain(((rng.random(x.shape) < keep) / keep).astype(x.dtype))
    )
    if tracing():
        # Replay must consume the generator exactly as eager would: the
        # closure captures the generator object itself (its state advances
        # in place) and rewrites the retained mask buffer.  All scratch is
        # preallocated — ``Generator.random(out=)`` draws the identical
        # stream as ``random(shape)``, and ``np.less``/``np.divide`` are
        # the ufuncs behind ``<`` and ``/``, so replays stay bitwise equal
        # to eager while allocating nothing.
        dst, shape = mask_leaf.data, x.shape
        draw_buf = _retain(np.empty(shape, dtype=np.float64))
        mask_buf = _retain(np.empty(shape, dtype=np.bool_))

        def refresh():
            rng.random(out=draw_buf)
            np.less(draw_buf, keep, out=mask_buf)
            np.divide(mask_buf, keep, out=draw_buf)
            np.copyto(dst, draw_buf)

        record_host(refresh)
    return x * mask_leaf


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softplus(x: Tensor) -> Tensor:
    return x.softplus()
