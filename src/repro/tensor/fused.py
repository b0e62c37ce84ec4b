"""Fused autodiff kernels: single tape nodes with hand-derived backwards.

The generic engine in :mod:`repro.tensor.tensor` composes every model
operation from primitive tape nodes.  That is ideal for correctness (each
primitive is finite-difference checked in isolation) but the hot paths —
causal attention, softmax cross-entropy, layer normalization — then pay
for a dozen Python closures and O(batch·length·length) intermediates per
op.  Each function here collapses one such hot path into a *single* tape
node: the forward runs as a handful of in-place numpy calls holding one
scratch buffer, and the backward applies the closed-form gradient instead
of replaying the primitive chain.

Every fused kernel has a composed reference implementation elsewhere in
the repository (``repro.tensor.functional`` for the losses, the
``fused=False`` paths of :class:`repro.nn.attention.CausalSelfAttention`
and :class:`repro.nn.normalization.LayerNorm` for the rest);
``tests/tensor/test_fused.py`` pins forward parity to 1e-10 in float64
and checks the hand-derived gradients with :func:`repro.tensor.gradcheck`
against finite differences.

Derivations (all standard):

- **Attention** ``O = W V`` with ``W = softmax(mask(s Q Kᵀ))``:
  ``dV = Wᵀ dO``, ``dW = dO Vᵀ``, and through the softmax
  ``dS = W ∘ (dW − rowsum(dW ∘ W))``; masked entries carry exactly zero
  weight, so ``dS`` vanishes there without consulting the mask again.
  Finally ``dQ = s · dS K`` and ``dK = s · dSᵀ Q``.
- **Softmax cross-entropy** via log-sum-exp: per position
  ``nll = lse(x) − x_target`` and ``d nll/dx = softmax(x) − onehot``;
  the multi-hot form replaces ``onehot`` with the target vector ``y``
  and scales the softmax by ``sum(y)``.
- **Layer norm** ``y = γ x̂ + β`` with ``x̂ = (x − μ) / √(σ² + ε)``:
  ``dx = (dx̂ − mean(dx̂) − x̂ · mean(dx̂ ∘ x̂)) / √(σ² + ε)`` where
  ``dx̂ = dy ∘ γ``, plus the usual reductions for ``dγ`` / ``dβ``.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _retain

__all__ = [
    "masked_fill_value",
    "fused_attention",
    "fused_cross_entropy",
    "fused_multi_hot_cross_entropy",
    "fused_layer_norm",
]


def masked_fill_value(dtype) -> float:
    """A finite, dtype-safe stand-in for ``-inf`` in masked softmax logits.

    ``np.finfo(dtype).min / 2`` underflows to exactly zero probability
    after the shifted ``exp`` yet stays finite, so a float32 compute path
    never sees ``-inf - (-inf) = nan`` in the softmax and its backward.
    Half the minimum leaves headroom for the max-shift subtraction.
    """
    return float(np.finfo(np.dtype(dtype)).min / 2)


def fused_attention(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    mask: np.ndarray | None,
    scale: float,
    return_weights: bool = False,
):
    """Masked scaled-dot-product attention as one tape node.

    Computes ``softmax(scale · Q Kᵀ, masked) V`` where ``queries`` /
    ``keys`` / ``values`` all have shape ``(..., length, head_dim)`` and
    ``mask`` is a boolean array broadcastable to the score shape
    ``(..., length, length)``, True at positions that must receive zero
    weight.  Exactly one ``(..., length, length)`` buffer is allocated:
    the scores are masked, exponentiated, and normalized in place, and
    the resulting weights are the only saved activation — the backward
    reuses them instead of recomputing anything.

    When ``return_weights`` is True the attention distribution is
    returned as a second (detached-from-this-node, constant) tensor for
    inspection; it shares the saved buffer.
    """
    q, k, v = queries.data, keys.data, values.data
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if mask is not None:
        np.copyto(scores, masked_fill_value(scores.dtype), where=mask)
    # In-place, numerically-stable softmax over the key axis.
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    weights = _retain(scores)  # the single retained buffer
    out = _retain(weights @ v)

    def forward():
        # ``out=`` forms, not augmented assignment: the latter would
        # rebind ``weights`` as a closure-local and never refresh the
        # retained buffer.
        np.matmul(q, np.swapaxes(k, -1, -2), out=weights)
        np.multiply(weights, scale, out=weights)
        if mask is not None:
            np.copyto(weights, masked_fill_value(weights.dtype), where=mask)
        np.subtract(
            weights, weights.max(axis=-1, keepdims=True), out=weights
        )
        np.exp(weights, out=weights)
        np.divide(
            weights, weights.sum(axis=-1, keepdims=True), out=weights
        )
        np.matmul(weights, v, out=out)

    # Closure-cached backward buffers — replayed programs rerun this
    # closure every step, and its GEMM products / softmax temporaries are
    # the largest attention allocations.  Same ufuncs in the same order
    # as the expression form, so gradients stay bitwise identical.
    grad_bufs = [None] * 4

    def gemm(slot, a, b):
        buf = grad_bufs[slot]
        if buf is not None and buf.shape == a.shape[:-1] + b.shape[-1:]:
            return np.matmul(a, b, out=buf)
        grad_bufs[slot] = out = _retain(a @ b)
        return out

    def backward(grad):
        if values.requires_grad:
            values._accumulate_owned(
                gemm(0, np.swapaxes(weights, -1, -2), grad)
            )
        if queries.requires_grad or keys.requires_grad:
            d_weights = gemm(1, grad, np.swapaxes(v, -1, -2))
            # Softmax backward; masked entries have weight exactly 0
            # (the fill underflows in exp), so d_scores is 0 there.
            inner = (d_weights * weights).sum(axis=-1, keepdims=True)
            d_scores = np.subtract(d_weights, inner, out=d_weights)
            np.multiply(weights, d_scores, out=d_scores)
            np.multiply(d_scores, scale, out=d_scores)
            if queries.requires_grad:
                queries._accumulate_owned(gemm(2, d_scores, k))
            if keys.requires_grad:
                keys._accumulate_owned(
                    gemm(3, np.swapaxes(d_scores, -1, -2), q)
                )

    result = Tensor._make(out, (queries, keys, values), backward, forward)
    if return_weights:
        return result, Tensor(weights)
    return result


def _flatten_logits(logits: Tensor) -> tuple[np.ndarray, int]:
    num_classes = logits.shape[-1]
    return logits.data.reshape(-1, num_classes), num_classes


def _position_scale(
    weights: np.ndarray | None, num_positions: int, dtype
) -> np.ndarray:
    """Per-position averaging coefficients (uniform or weighted)."""
    if weights is None:
        return np.full(num_positions, 1.0 / num_positions, dtype=dtype)
    weights = np.asarray(weights, dtype=dtype).reshape(-1)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("cross_entropy weights sum to zero")
    return weights / total


def _refresh_coeff(weights_src, coeff, dtype, message: str) -> None:
    """Recompute averaging coefficients in place from the (host-refreshed)
    source weights — the replay counterpart of :func:`_position_scale`."""
    flat = np.asarray(weights_src, dtype=dtype).reshape(-1)
    total = float(flat.sum())
    if total <= 0:
        raise ValueError(message)
    np.divide(flat, total, out=coeff)


def fused_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Mean NLL of integer ``targets`` under ``logits`` as one tape node.

    Forward is a log-sum-exp over the class axis; backward is the
    closed-form ``softmax − onehot`` scaled by the per-position averaging
    weights.  Matches :func:`repro.tensor.functional.cross_entropy`
    (the composed reference) to float64 round-off.
    """
    targets_src = targets
    weights_src = weights
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    targets_copied = not np.shares_memory(targets, targets_src)
    flat, num_classes = _flatten_logits(logits)
    rows = np.arange(flat.shape[0])
    # Gather the target entries before exponentiating in place: the one
    # (positions, vocab) buffer holds the shifted logits, then the exps
    # retained for the backward softmax.
    exps = flat - flat.max(axis=-1, keepdims=True)
    target_shifted = exps[rows, targets]
    np.exp(exps, out=exps)
    exps = _retain(exps)
    denom = _retain(exps.sum(axis=-1, keepdims=True))
    # log softmax at the target entries only.
    picked = target_shifted - np.log(denom[:, 0])
    coeff = _position_scale(weights, flat.shape[0], flat.dtype)
    loss = -float((picked * coeff).sum())
    out = _retain(np.asarray(loss, dtype=logits.dtype))

    def forward():
        if targets_copied:
            targets[...] = np.asarray(
                targets_src, dtype=np.int64
            ).reshape(-1)
        np.subtract(flat, flat.max(axis=-1, keepdims=True), out=exps)
        target_shifted = exps[rows, targets]
        np.exp(exps, out=exps)
        np.sum(exps, axis=-1, keepdims=True, out=denom)
        if weights_src is not None:
            _refresh_coeff(weights_src, coeff, flat.dtype,
                           "cross_entropy weights sum to zero")
        picked = target_shifted - np.log(denom[:, 0])
        out[...] = -((picked * coeff).sum())

    # The softmax grad matrix is (batch*positions, vocab) — by far the
    # largest backward temporary.  Cache it on the closure so replayed
    # programs rewrite it in place instead of re-allocating every step.
    grad_bufs = [None]

    def backward(grad):
        scalar = float(np.asarray(grad))
        buf = grad_bufs[0]
        if buf is not None and buf.shape == exps.shape:
            softmax = np.divide(exps, denom, out=buf)
        else:
            softmax = grad_bufs[0] = _retain(exps / denom)
        softmax[rows, targets] -= 1.0
        softmax *= (scalar * coeff)[:, None]
        logits._accumulate_owned(softmax.reshape(logits.shape))

    return Tensor._make(out, (logits,), backward, forward)


def fused_multi_hot_cross_entropy(
    logits: Tensor,
    target_multi_hot: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Multi-hot softmax cross-entropy (Eq. 18/20) as one tape node.

    Per position ``sum(y) · lse(x) − y · x``, averaged over (optionally
    weighted) positions; backward is ``sum(y) · softmax(x) − y`` times
    the averaging coefficients.  Matches
    :func:`repro.tensor.functional.multi_hot_cross_entropy`.
    """
    flat, num_classes = _flatten_logits(logits)
    target_src = target_multi_hot
    weights_src = weights
    target = np.asarray(target_multi_hot, dtype=flat.dtype)
    target = np.broadcast_to(target, logits.shape).reshape(-1, num_classes)
    target_copied = not np.shares_memory(target, target_src)
    if target_copied:  # refreshed by every replay
        target = _retain(target)
    # As in fused_cross_entropy, take ``target · shifted`` before the
    # in-place exp so one (positions, vocab) buffer is retained.
    exps = flat - flat.max(axis=-1, keepdims=True)
    target_dot = (target * exps).sum(axis=-1)
    np.exp(exps, out=exps)
    exps = _retain(exps)
    denom = _retain(exps.sum(axis=-1, keepdims=True))
    lse = np.log(denom[:, 0])
    target_mass = _retain(target.sum(axis=-1))
    per_position = target_mass * lse - target_dot
    try:
        coeff = _position_scale(weights, flat.shape[0], flat.dtype)
    except ValueError:
        raise ValueError("multi_hot_cross_entropy weights sum to zero")
    loss = float((per_position * coeff).sum())
    out = _retain(np.asarray(loss, dtype=logits.dtype))
    logits_shape = logits.shape

    def forward():
        if target_copied:
            target[...] = np.broadcast_to(
                np.asarray(target_src, dtype=flat.dtype), logits_shape
            ).reshape(-1, num_classes)
        np.subtract(flat, flat.max(axis=-1, keepdims=True), out=exps)
        target_dot = (target * exps).sum(axis=-1)
        np.exp(exps, out=exps)
        np.sum(exps, axis=-1, keepdims=True, out=denom)
        lse = np.log(denom[:, 0])
        np.sum(target, axis=-1, out=target_mass)
        per_position = target_mass * lse - target_dot
        if weights_src is not None:
            _refresh_coeff(weights_src, coeff, flat.dtype,
                           "multi_hot_cross_entropy weights sum to zero")
        out[...] = (per_position * coeff).sum()

    # Same buffer-caching as fused_cross_entropy: the softmax grad matrix
    # dominates backward allocations on replayed programs.
    grad_bufs = [None]

    def backward(grad):
        scalar = float(np.asarray(grad))
        buf = grad_bufs[0]
        if buf is not None and buf.shape == exps.shape:
            softmax = np.divide(exps, denom, out=buf)
        else:
            softmax = grad_bufs[0] = _retain(exps / denom)
        softmax *= target_mass[:, None]
        softmax -= target
        softmax *= (scalar * coeff)[:, None]
        logits._accumulate_owned(softmax.reshape(logits.shape))

    return Tensor._make(out, (logits,), backward, forward)


def fused_layer_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float,
) -> Tensor:
    """Last-axis layer normalization + affine as one tape node.

    ``gamma`` / ``beta`` have shape ``(dim,)`` matching the last axis of
    ``x``.  The backward uses the standard three-term closed form rather
    than differentiating through the mean/variance chain.
    """
    data = x.data
    mean = data.mean(axis=-1, keepdims=True)
    centered = _retain(data - mean)
    variance = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = _retain(1.0 / np.sqrt(variance + eps))
    normalized = _retain(centered * inv_std)  # retained for the backward
    out = _retain(normalized * gamma.data + beta.data)

    def forward():
        np.subtract(data, data.mean(axis=-1, keepdims=True), out=centered)
        variance = np.mean(centered * centered, axis=-1, keepdims=True)
        np.divide(1.0, np.sqrt(variance + eps), out=inv_std)
        np.multiply(centered, inv_std, out=normalized)
        np.multiply(normalized, gamma.data, out=out)
        np.add(out, beta.data, out=out)

    # Closure-cached backward temporaries: replayed programs run this
    # backward every step, and the (batch, ..., dim) products dominate
    # its allocations.  All rewrites below are the same ufuncs in the
    # same order as the expression form, so gradients stay bitwise equal.
    grad_bufs = [None, None]

    def cached(slot, a, b):
        buf = grad_bufs[slot]
        if buf is not None and buf.shape == a.shape:
            return np.multiply(a, b, out=buf)
        grad_bufs[slot] = out = _retain(a * b)
        return out

    def backward(grad):
        reduce_axes = tuple(range(grad.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate_owned(
                cached(0, grad, normalized).sum(axis=reduce_axes)
            )
        if beta.requires_grad:
            beta._accumulate_owned(grad.sum(axis=reduce_axes))
        if x.requires_grad:
            d_normalized = cached(1, grad, gamma.data)
            term_mean = d_normalized.mean(axis=-1, keepdims=True)
            term_proj = np.mean(
                cached(0, d_normalized, normalized), axis=-1, keepdims=True
            )
            np.subtract(d_normalized, term_mean, out=d_normalized)
            np.subtract(
                d_normalized,
                np.multiply(normalized, term_proj, out=grad_bufs[0]),
                out=d_normalized,
            )
            x._accumulate_owned(
                np.multiply(d_normalized, inv_std, out=d_normalized)
            )

    return Tensor._make(out, (x, gamma, beta), backward, forward)
