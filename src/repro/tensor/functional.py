"""Composite differentiable functions built on :class:`repro.tensor.Tensor`.

These are the numerical workhorses of the attention and VAE math:
numerically-stable softmax / log-softmax, the multi-hot (next-``k``)
cross-entropy of Eq. 18/20, the Gaussian KL divergence of Eq. 20,
and inverted dropout with its mask helper.  The one-hot cross-entropy
fuses the output head into the loss
(:func:`repro.tensor.fused.linear_cross_entropy`), and the
reparameterized sample is the fused
:func:`repro.tensor.fused.reparameterize`.
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
    "dropout",
    "dropout_mask",
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


def dropout_mask(shape: tuple[int, ...], dtype, rate: float,
                 rng: np.random.Generator) -> np.ndarray:
    """A fresh inverted-dropout scale mask: ``1/(1 − rate)`` where a
    unit is kept, 0 where it is dropped, in ``dtype``.

    The keep decisions come from float64 ``rng.random`` draws whatever
    ``dtype`` is, so the stream does not depend on the compute dtype.
    Under a trace each replay rewrites the mask in place from the next
    draws of the same generator object; draws, mask and generator state
    are bitwise those of ``((rng.random(shape) < keep) / keep)
    .astype(dtype)``.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    scale = np.dtype(dtype).type(1.0 / keep)
    mask = _retain(np.empty(shape, dtype=dtype))
    draws = (
        mask if mask.dtype == np.float64
        else _retain(np.empty(shape, dtype=np.float64))
    )

    def refresh():
        rng.random(out=draws)
        # The 0/1 keep decisions land in the mask itself, then scale.
        np.less(draws, keep, out=mask)
        np.multiply(mask, scale, out=mask)

    refresh()
    if tracing():
        record_host(refresh)
    return mask


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate``, rescale.

    At evaluation time (``training=False``) or ``rate == 0`` this is the
    identity, so no test-time rescaling is needed.
    """
    if not training or rate <= 0.0:
        return x
    return x * Tensor(dropout_mask(x.shape, x.dtype, rate, rng))


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softplus(x: Tensor) -> Tensor:
    return x.softplus()
