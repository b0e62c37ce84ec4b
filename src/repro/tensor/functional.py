"""Composite differentiable functions built on :class:`repro.tensor.Tensor`.

These are the numerical workhorses of the attention and VAE math:
numerically-stable softmax / log-softmax and inverted dropout with its
mask helper.  The cross-entropy of Eq. 14 and its next-``k`` form of
Eq. 18/20 fuse the output head into the loss
(:func:`repro.tensor.fused.linear_cross_entropy`), and the
reparameterized sample and the Gaussian KL divergence of Eq. 20 are the
fused :func:`repro.tensor.fused.reparameterize` and
:func:`repro.tensor.fused.gaussian_kl_standard_normal`.
"""

from __future__ import annotations

import numpy as np

from .compile import record_host, tracing
from .fused import gaussian_kl_standard_normal
from .random import keep_mask
from .tensor import Tensor, _retain

__all__ = [
    "softmax",
    "log_softmax",
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


def dropout_mask(shape: tuple[int, ...], dtype, rate: float,
                 rng: np.random.Generator) -> np.ndarray:
    """A fresh inverted-dropout scale mask in ``dtype``: ``2¹⁶ / T``
    where a unit is kept, 0 where it is dropped, drawn by
    :func:`repro.tensor.random.keep_mask` with ``keep = 1 − rate``.

    The keep decisions come from uint16 lanes of raw generator words,
    so they do not depend on the compute dtype.  Under a trace each
    replay rewrites the mask in place from the next words of the same
    generator object, exactly as the eager draw does.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    mask = _retain(np.empty(shape, dtype=dtype))

    def refresh():
        keep_mask(rng, keep, mask)

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
