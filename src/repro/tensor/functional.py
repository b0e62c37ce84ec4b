"""Composite differentiable functions built on :class:`repro.tensor.Tensor`.

These are the numerical workhorses of the attention and VAE math:
numerically-stable softmax / log-softmax, cross-entropy in one-hot and
multi-hot (next-``k``) forms per Eq. 20 of the paper, the Gaussian KL
divergence of Eq. 20, the reparameterized Gaussian sample, and inverted
dropout.
"""

from __future__ import annotations

import numpy as np

from .compile import mark_dynamic, record_host, tracing
from .fused import fused_multi_hot_cross_entropy
from .tensor import Tensor, _retain, get_default_dtype

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "cross_entropy_reference",
    "multi_hot_cross_entropy",
    "multi_hot_cross_entropy_reference",
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


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    Composed from primitives (:func:`cross_entropy_reference`).  Training
    losses never build the full logits: they call
    :func:`repro.tensor.fused.linear_cross_entropy`, which fuses the
    output-head GEMM into the loss over the supervised rows only and is
    held in parity with this function by the gradcheck suite.

    Args:
        logits: shape ``(..., num_classes)``.
        targets: integer array of shape ``(...)`` matching the leading
            dimensions of ``logits``.
        weights: optional per-position weights of the same shape as
            ``targets`` (e.g. 0 for padding positions).  The loss is the
            weighted sum of per-position NLL divided by the total weight.

    Returns:
        Scalar tensor.
    """
    return cross_entropy_reference(logits, targets, weights=weights)


def cross_entropy_reference(
    logits: Tensor,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Composed (primitive-by-primitive) reference for :func:`cross_entropy`."""
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    flat_logp = logp.reshape(-1, logits.shape[-1])
    rows = np.arange(flat_logp.shape[0])
    picked = flat_logp[(rows, targets.reshape(-1))]
    if weights is None:
        return -picked.mean()
    weights = np.asarray(weights, dtype=logits.dtype).reshape(-1)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("cross_entropy weights sum to zero")
    return -(picked * Tensor(weights)).sum() * (1.0 / total)


def multi_hot_cross_entropy(
    logits: Tensor,
    target_multi_hot: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Cross-entropy against multi-hot targets (Eq. 18/20, next-``k`` mode).

    Each position's target is a {0,1} vector over items marking the next
    ``k`` ground-truth items; the loss is ``-sum_i y_i log softmax(x)_i``
    averaged over (weighted) positions.  Dispatches to the fused
    log-sum-exp kernel; :func:`multi_hot_cross_entropy_reference` keeps
    the composed form for parity checks.

    Args:
        logits: shape ``(..., num_classes)``.
        target_multi_hot: {0,1} array broadcastable to ``logits.shape``.
        weights: optional per-position weights, shape ``logits.shape[:-1]``.
    """
    return fused_multi_hot_cross_entropy(
        logits, target_multi_hot, weights=weights
    )


def multi_hot_cross_entropy_reference(
    logits: Tensor,
    target_multi_hot: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Composed reference for :func:`multi_hot_cross_entropy`."""
    target = np.asarray(target_multi_hot, dtype=logits.dtype)
    logp = log_softmax(logits, axis=-1)
    per_position = -(logp * Tensor(target)).sum(axis=-1)
    if weights is None:
        return per_position.mean()
    weights = np.asarray(weights, dtype=logits.dtype)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("multi_hot_cross_entropy weights sum to zero")
    return (per_position * Tensor(weights)).sum() * (1.0 / total)


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
