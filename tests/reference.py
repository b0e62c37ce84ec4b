"""Oracles for the production fast paths.

Production code runs every op one way: attention, layer norm, the
residual connections, the feed-forward network, the reparameterized
sample, the Gaussian KL and the training losses through the fused
kernels of :mod:`repro.tensor.fused`, training steps and scoring
forwards through compiled trace-and-replay programs
(:mod:`repro.tensor.compile`).  The parity suites hold those paths
against the implementations here:

- composed references built from tape primitives, each with its fused
  counterpart's signature — :func:`composed_attention`,
  :func:`composed_layer_norm`, :func:`composed_residual_dropout_norm`,
  :func:`composed_feedforward`, :func:`composed_reparameterize`,
  :func:`composed_gaussian_kl`, :func:`cross_entropy_reference`,
  :func:`multi_hot_cross_entropy_reference` and
  :func:`composed_linear_cross_entropy`;
- dense forms of the next-``k`` target (Eq. 18), which production
  code never builds: :func:`slot_multi_hot` (the count vector of ``k``
  id slots) and :func:`next_k_multi_hot_reference` (the set of the
  next ``k`` items, from a padded batch);
- :func:`scatter_rows_reference`, the ``np.add.at`` scatter that
  ``Tensor.take_rows``'s bincount backward replaces;
- :func:`composed_substrate`, which swaps them in under a whole VSAN;
- eager twins of the two compiled entry points, :func:`eager_step_values`
  (``repro.train.trainer.training_step_values``) and
  :func:`eager_hidden_last` (``NeuralSequentialRecommender.hidden_last``);
- one-list scalar forms of the Section V-C metrics, :func:`precision_at_n`
  (Eq. 21), :func:`recall_at_n` (Eq. 22) and :func:`ndcg_at_n`, that
  ``repro.eval.metrics_batch`` vectorizes.
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.data.batching import pad_left_into
from repro.tensor import (
    Tensor,
    get_default_dtype,
    log_softmax,
    masked_fill_value,
    no_grad,
    softmax,
)
from repro.tensor.compile import mark_dynamic, record_host, tracing
from repro.tensor.random import normal_noise
from repro.tensor.tensor import _retain

__all__ = [
    "composed_attention",
    "composed_feedforward",
    "composed_gaussian_kl",
    "composed_layer_norm",
    "composed_linear_cross_entropy",
    "composed_reparameterize",
    "composed_residual_dropout_norm",
    "composed_substrate",
    "cross_entropy_reference",
    "eager_hidden_last",
    "eager_step_values",
    "multi_hot_cross_entropy_reference",
    "ndcg_at_n",
    "next_k_multi_hot_reference",
    "precision_at_n",
    "recall_at_n",
    "scatter_rows_reference",
    "slot_multi_hot",
]


def composed_attention(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    mask: np.ndarray | None,
    scale: float,
    return_weights: bool = False,
):
    """Composed reference for :func:`repro.tensor.fused_attention`."""
    scores = (queries @ keys.swapaxes(-1, -2)) * scale
    if mask is not None:
        # masked_fill retains its mask for the backward, while attention
        # reuses its mask buffer across calls: take a private copy.
        full_mask = np.broadcast_to(mask, scores.shape).copy()
        if tracing():
            record_host(lambda: np.copyto(full_mask, mask))
        scores = scores.masked_fill(
            full_mask, masked_fill_value(scores.dtype)
        )
    weights = softmax(scores, axis=-1)
    attended = weights @ values
    if return_weights:
        return attended, weights
    return attended


def composed_layer_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float
) -> Tensor:
    """Composed reference for :func:`repro.tensor.fused_layer_norm`."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered / (variance + eps).sqrt()
    return normalized * gamma + beta


def composed_residual_dropout_norm(
    x: Tensor,
    sub: Tensor,
    mask: np.ndarray | None,
    gamma: Tensor,
    beta: Tensor,
    eps: float,
    timeline: np.ndarray | None = None,
) -> Tensor:
    """Composed reference for :func:`repro.tensor.residual_dropout_norm`:
    dropout as a mask product, the residual sum, the composed layer
    norm, then the timeline product."""
    if mask is not None:
        sub = sub * Tensor(mask)
    out = composed_layer_norm(sub + x, gamma, beta, eps)
    if timeline is not None:
        out = out * Tensor(np.asarray(timeline, dtype=out.dtype)[..., None])
    return out


def composed_feedforward(
    x: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Composed reference for :func:`repro.tensor.feedforward`."""
    hidden = (x @ w1 + b1).relu()
    if mask is not None:
        hidden = hidden * Tensor(mask)
    return hidden @ w2 + b2


def composed_reparameterize(mu: Tensor, sigma: Tensor,
                            rng: np.random.Generator) -> Tensor:
    """Composed reference for :func:`repro.tensor.reparameterize`:
    ``mu + sigma * eps`` with ``eps`` from the same
    :func:`repro.tensor.random.normal_noise` draw, so the parity suites
    compare the arithmetic, not the noise stream."""
    noise = _retain(np.empty(mu.shape, dtype=get_default_dtype()))
    normal_noise(rng, noise)
    if tracing():
        record_host(lambda: normal_noise(rng, noise))
    return mu + sigma * Tensor(noise)


def composed_gaussian_kl(
    mu: Tensor,
    sigma: Tensor,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Composed reference for
    :func:`repro.tensor.gaussian_kl_standard_normal`:
    ``0.5 * sum_j (-log sigma_j^2 + mu_j^2 + sigma_j^2 - 1)`` over the
    last axis, averaged over the (optionally weighted) positions."""
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
    # mask, so under a trace it lives in a replay-refreshed 0-d buffer.
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


def cross_entropy_reference(
    logits: Tensor,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under
    ``logits`` (``(..., num_classes)``); with ``weights`` the weighted
    sum of per-position NLL divided by the total weight."""
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


def multi_hot_cross_entropy_reference(
    logits: Tensor,
    target_multi_hot: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Dense multi-hot cross-entropy (Eq. 18/20): per position
    ``-Σ_i y_i log softmax(x)_i`` against the ``(..., num_classes)``
    target ``y``, averaged over the (optionally weighted) positions."""
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


def composed_linear_cross_entropy(
    hidden: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Composed reference for :func:`repro.tensor.linear_cross_entropy`:
    full ``hidden @ weight + bias`` logits, then the reference loss —
    against the dense :func:`slot_multi_hot` target when ``targets``
    carries a trailing axis of id slots."""
    logits = hidden @ weight
    if bias is not None:
        logits = logits + bias
    if np.ndim(targets) < hidden.ndim:
        return cross_entropy_reference(logits, targets, weights=weights)
    dense = slot_multi_hot(targets, logits.shape[-1], logits.dtype)
    return multi_hot_cross_entropy_reference(logits, dense, weights=weights)


def slot_multi_hot(slots: np.ndarray, num_classes: int,
                   dtype=np.float64) -> np.ndarray:
    """The dense ``(..., num_classes)`` target of ``(..., k)`` id slots:
    entry ``i`` counts the slots holding ``i``; 0 is an empty slot."""
    slots = np.asarray(slots, dtype=np.int64)
    flat = slots.reshape(-1, slots.shape[-1])
    dense = np.zeros((flat.shape[0], num_classes), dtype=dtype)
    rows = np.repeat(np.arange(flat.shape[0]), flat.shape[1])
    np.add.at(dense, (rows, flat.reshape(-1)), 1.0)
    dense[:, 0] = 0.0
    return dense.reshape(slots.shape[:-1] + (num_classes,))


def next_k_multi_hot_reference(padded: np.ndarray, k: int,
                               num_items: int) -> np.ndarray:
    """The {0,1} ``(batch, length-1, num_items+1)`` target of Eq. 18:
    position ``t`` marks every real item among the next ``k``."""
    batch, width = padded.shape
    dense = np.zeros((batch, width - 1, num_items + 1))
    for offset in range(1, k + 1):
        future = padded[:, offset:]
        rows, cols = np.nonzero(future != 0)
        dense[rows, cols, future[rows, cols]] = 1.0
    return dense


def scatter_rows_reference(table_shape, indices: np.ndarray,
                           grad: np.ndarray) -> np.ndarray:
    """Reference gradient of :meth:`repro.tensor.Tensor.take_rows`:
    ``grad``'s rows scatter-added into a zero table with ``np.add.at``,
    in ``grad``'s dtype and in index order."""
    full = np.zeros(table_shape, dtype=grad.dtype)
    np.add.at(full, np.asarray(indices).reshape(-1),
              grad.reshape(-1, *table_shape[1:]))
    return full


def composed_substrate(monkeypatch) -> None:
    """Run attention, layer norm, the residual connections, the
    feed-forward network, the reparameterized sample and the ELBO
    reconstruction and KL terms on the composed references for the rest of the test
    (or ``monkeypatch`` context), so a whole VSAN computes on tape
    primitives."""
    patches = {
        "repro.nn.attention": {"fused_attention": composed_attention},
        "repro.nn.normalization": {"fused_layer_norm": composed_layer_norm},
        "repro.nn.blocks": {
            "residual_dropout_norm": composed_residual_dropout_norm,
        },
        "repro.nn.feedforward": {"feedforward": composed_feedforward},
        "repro.core.vsan": {"reparameterize": composed_reparameterize},
        "repro.models.svae": {"reparameterize": composed_reparameterize},
        "repro.core.elbo": {
            "linear_cross_entropy": composed_linear_cross_entropy,
            "gaussian_kl_standard_normal": composed_gaussian_kl,
        },
    }
    for module_name, names in patches.items():
        module = importlib.import_module(module_name)
        for name, reference in names.items():
            monkeypatch.setattr(module, name, reference)


def eager_step_values(model, rows: np.ndarray, check_finite=None):
    """:func:`repro.train.trainer.training_step_values` without the
    program cache: one taped forward and backward over ``rows``."""
    if hasattr(model, "training_elbo"):
        terms = model.training_elbo(rows)
        loss = terms.loss
    else:
        terms = None
        loss = model.training_loss(rows)
    loss_value = loss.item()
    if check_finite is not None:
        check_finite(loss_value)
    loss.backward()
    if terms is None:
        return loss_value, None, None, None
    return (
        loss_value,
        terms.reconstruction_value,
        terms.kl_value,
        terms.beta,
    )


def eager_hidden_last(model, histories: list[np.ndarray]) -> np.ndarray:
    """``model.hidden_last(histories)`` as one tape-free eager forward
    instead of a compiled program replay."""
    model.eval()
    padded = model._padded_buffer(len(histories))
    for row, history in zip(padded, histories):
        pad_left_into(np.asarray(history, dtype=np.int64), row)
    with no_grad():
        hidden = model.encode_last(padded)
    return hidden.numpy().copy()


def _as_sets(recommended, relevant) -> tuple[list[int], set[int]]:
    recommended = [int(item) for item in recommended]
    relevant = {int(item) for item in relevant}
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    return recommended, relevant


def precision_at_n(recommended, relevant, n: int) -> float:
    """Fraction of the top-``n`` list that is relevant."""
    recommended, relevant = _as_sets(recommended, relevant)
    hits = sum(1 for item in recommended[:n] if item in relevant)
    return hits / n


def recall_at_n(recommended, relevant, n: int) -> float:
    """Fraction of the relevant set found in the top-``n`` list."""
    recommended, relevant = _as_sets(recommended, relevant)
    hits = sum(1 for item in recommended[:n] if item in relevant)
    return hits / len(relevant)


def ndcg_at_n(recommended, relevant, n: int) -> float:
    """Position-discounted gain, normalized by the ideal ordering."""
    recommended, relevant = _as_sets(recommended, relevant)
    dcg = sum(
        1.0 / np.log2(rank + 2)
        for rank, item in enumerate(recommended[:n])
        if item in relevant
    )
    ideal_hits = min(len(relevant), n)
    idcg = sum(1.0 / np.log2(rank + 2) for rank in range(ideal_hits))
    return dcg / idcg
