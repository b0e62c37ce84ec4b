"""Fused autodiff kernels: single tape nodes with hand-derived backwards.

The generic engine in :mod:`repro.tensor.tensor` composes every model
operation from primitive tape nodes.  That is ideal for correctness (each
primitive is finite-difference checked in isolation) but the hot paths —
causal attention, softmax cross-entropy, layer normalization — then pay
for a dozen Python closures and O(batch·length·length) intermediates per
op, and the output head builds a ``(batch·length, |I|)`` logit matrix
for every position, padding included.  Each function here collapses one such hot path into a *single* tape
node: the forward runs as a handful of in-place numpy calls holding one
scratch buffer, and the backward applies the closed-form gradient instead
of replaying the primitive chain.

Every fused kernel has a composed reference implementation built from
tape primitives in ``tests/reference.py`` (composed ``hidden @ W + b``
logits for :func:`linear_cross_entropy`); ``tests/tensor/test_fused.py``
pins forward parity to 1e-10 in float64 and checks the hand-derived
gradients with :func:`repro.tensor.gradcheck` against finite
differences.

Derivations (all standard):

- **Attention** ``O = W V`` with ``W = softmax(mask(s Q Kᵀ))``:
  ``dV = Wᵀ dO``, ``dW = dO Vᵀ``, and through the softmax
  ``dS = W ∘ (dW − rowsum(dW ∘ W))``; masked entries carry exactly zero
  weight, so ``dS`` vanishes there without consulting the mask again.
  Finally ``dQ = s · dS K`` and ``dK = s · dSᵀ Q``.
- **Softmax cross-entropy** via log-sum-exp: a row with the ``m``
  target ids ``t₁ … t_m`` (one for next-item training, up to ``k`` for
  the next-``k`` objective of Eq. 18) and ``y`` their count vector has
  ``nll = m · lse(x) − Σ_j x[t_j]`` and
  ``d nll/dx = m · softmax(x) − y``; with one target this is
  ``lse(x) − x_t`` and ``softmax(x) − onehot``.
- **Linear cross-entropy** ``loss = Σ_p c_p · nll(h_p W + b)`` over the
  ``P`` supervised rows ``H_P`` only (``c_p = w_p / Σw``; padded rows
  have ``w = 0`` and drop out of the sum).  With ``G`` the ``(P, |I|)``
  matrix of rows ``c_p · (m_p · softmax(x_p) − y_p)``, the chain rule
  through ``X = H_P W + b`` gives ``dH_P = G Wᵀ`` (scattered back into
  the full row set, zero at padded rows), ``dW = H_Pᵀ G`` and
  ``db = Σ_p G_p``.  Every term is a sum over rows, so the kernel walks
  ``H_P`` in row tiles ``H_t``: each tile's logits, in an L2-sized
  step-local buffer, become ``G_t`` in place, and ``dW += H_tᵀ G_t``,
  ``db += 1ᵀ G_t`` and ``dH_t = G_t Wᵀ`` are formed right away (with
  ``dloss = 1``; the backward scales them by the incoming gradient).
  No ``(P, |I|)`` matrix is ever held, and neither is a dense target.
- **Layer norm** ``y = γ x̂ + β`` with ``x̂ = (x − μ) / √(σ² + ε)``:
  ``dx = (dx̂ − mean(dx̂) − x̂ · mean(dx̂ ∘ x̂)) / √(σ² + ε)`` where
  ``dx̂ = dy ∘ γ``, plus the usual reductions for ``dγ`` / ``dβ``.
  Every row mean is a GEMV against a constant ``1/d`` vector and every
  column sum (``dγ``, ``dβ``) a GEMV against ones, over 2-D row views.
- **Residual dropout norm** ``y = LN(s ∘ m + x) ∘ t`` (Eq. 7 / 9, with
  the dropout scale mask ``m`` and the timeline mask ``t``): the layer
  norm backward of ``dy ∘ t`` gives ``dh``, then ``dx = dh`` and
  ``ds = dh ∘ m``.
- **Feed-forward** ``y = (relu(x W₁ + b₁) ∘ m) W₂ + b₂`` (Eq. 8): with
  the combined gate ``g = [x W₁ + b₁ > 0] ∘ m`` and ``a`` the gated
  activation, ``dW₂ = aᵀ dy``, ``db₂ = Σ dy``, ``dA = (dy W₂ᵀ) ∘ g``,
  ``dW₁ = xᵀ dA``, ``db₁ = Σ dA`` and ``dx = dA W₁ᵀ``.
- **Reparameterization** ``z = μ + σ ∘ ε`` (Eq. 13): ``dμ = dz`` and
  ``dσ = dz ∘ ε``.
- **Gaussian KL** ``KL = Σ_p c_p · ½ Σ_j (μ² + σ² − 1 − 2 log σ)`` (Eq.
  20, ``c_p = w_p / Σw``): with ``c = dKL · c_p`` per position,
  ``dμ = c · μ`` and ``dσ = c · (σ − 1/σ)``.
"""

from __future__ import annotations

import numpy as np

from .compile import record_host, step_scratch, tracing
from .random import noise_scratch_size, normal_noise
from .tensor import Tensor, _retain, is_grad_enabled

__all__ = [
    "masked_fill_value",
    "fused_attention",
    "linear_cross_entropy",
    "fused_layer_norm",
    "residual_dropout_norm",
    "feedforward",
    "reparameterize",
    "gaussian_kl_standard_normal",
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


#: Bytes of one row tile of logits in :func:`linear_cross_entropy`:
#: about one core's L2, so each tile's exps, softmax and gradient GEMMs
#: run on cache-resident data.
_TILE_BYTES = 1 << 20
#: Fewest rows per tile, so that very wide catalogues still run GEMMs.
_MIN_TILE_ROWS = 64


def _tile_rows(num_classes: int, dtype) -> int:
    """Rows per logit tile of :func:`linear_cross_entropy`."""
    row_bytes = num_classes * np.dtype(dtype).itemsize
    return max(_MIN_TILE_ROWS, _TILE_BYTES // row_bytes)


def linear_cross_entropy(
    hidden: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Softmax cross-entropy of integer ``targets`` under the logits
    ``hidden @ weight + bias``, as one tape node that scores the
    supervised rows only.

    ``hidden`` is ``(..., dim)``, ``weight`` ``(dim, num_classes)``,
    ``bias`` ``(num_classes,)`` or ``None``; ``weights`` matches
    ``hidden``'s leading shape.  ``targets`` matches it too (one class
    per row), or has one more trailing axis of ``k`` slots (a bag of up
    to ``k`` classes per row, the next-``k`` objective of Eq. 18): there
    a slot holding 0 is empty, a row with ``m`` filled slots scores
    ``m · lse(x) − Σ x[t]``, and a class in two slots counts twice.
    With one filled slot a row's arithmetic is the one-class arithmetic,
    bit for bit.  Rows with weight 0 (padding) never
    reach the head: their logits are not computed, they add nothing to
    the loss, and their ``hidden`` gradient is exactly zero.  With
    ``weights=None`` every row is supervised with weight 1.

    The forward walks the ``P`` supervised rows of this batch (or
    replay) in row tiles of about ``_TILE_BYTES`` of logits, held in
    step-local scratch: it never holds the ``(P, num_classes)`` logit
    matrix.  When the node is on the tape, each tile's logits are
    turned in place into the logit gradient (taken with an upstream
    gradient of 1) and folded into ``dW``, ``db`` and the scattered
    ``dH`` right away; the backward only scales those by its incoming
    gradient when that is not 1.  The loss is the weighted sum of
    per-row NLL divided by the total weight, and matches the
    composed-logits reference to float64 round-off.
    """
    dim = hidden.shape[-1]
    num_rows = hidden.size // dim
    num_classes = weight.shape[-1]
    dtype = hidden.dtype
    tile = min(num_rows, _tile_rows(num_classes, dtype))
    targets_src = targets
    weights_src = weights
    targets = np.asarray(targets, dtype=np.int64)
    slots = targets.ndim == hidden.ndim
    targets = targets.reshape(num_rows, -1)
    num_slots = targets.shape[1]
    targets_copied = not np.shares_memory(targets, targets_src)
    # 1 at every filled slot and the filled count m per row: refreshed
    # by every forward from slotted targets, broadcast ones (no memory)
    # for one class per row.
    if slots:
        present = _retain(np.empty(targets.shape, dtype=dtype))
        mass = _retain(np.empty(num_rows, dtype=dtype))
    else:
        one = np.ones(1, dtype=dtype)
        present = np.broadcast_to(one, targets.shape)
        mass = np.broadcast_to(one, (num_rows,))
    all_rows = np.arange(num_rows)
    parents = (hidden, weight) if bias is None else (hidden, weight, bias)
    on_tape = is_grad_enabled() and any(p.requires_grad for p in parents)

    # Gradients with an upstream gradient of 1, formed by every forward
    # and read by the backward; None when no gradient flows there.
    def gradient_buffer(parent, shape):
        if parent is None or not (on_tape and parent.requires_grad):
            return None
        return _retain(np.empty(shape, dtype=dtype))

    d_weight = gradient_buffer(weight, (dim, num_classes))
    d_bias = gradient_buffer(bias, (num_classes,))
    d_hidden = gradient_buffer(hidden, (num_rows, dim))
    # One step-local span: a tile's logits and gathered rows, its row
    # maxima and exp sums, every supervised row's NLL, one tile's dW and
    # db products, and a contiguous copy of Wᵀ for the dH GEMMs.
    sizes = (
        tile * num_classes, tile * dim, tile, tile, num_rows,
        0 if d_weight is None else dim * num_classes,
        0 if d_bias is None else num_classes,
        0 if d_hidden is None else num_classes * dim,
    )
    scratch = step_scratch((sum(sizes),), dtype)
    offsets = np.cumsum(sizes[:-1])
    ones = np.ones(tile, dtype=dtype)
    ones_classes = np.ones(num_classes, dtype=dtype)
    out = _retain(np.zeros((), dtype=dtype))
    # Averaging coefficients of the supervised rows, recomputed by every
    # forward from the (host-refreshed) weights.
    coeff = np.full(num_rows, 1.0 / num_rows, dtype=dtype)
    index = all_rows  # supervised rows, set by every forward

    def forward():
        nonlocal index
        if targets_copied:
            targets[...] = np.asarray(
                targets_src, dtype=np.int64
            ).reshape(num_rows, -1)
        if slots:
            np.not_equal(targets, 0, out=present)
            np.sum(present, axis=1, out=mass)
        if weights_src is not None:
            flat = np.asarray(weights_src, dtype=dtype).reshape(-1)
            total = float(flat.sum())
            if total <= 0:
                raise ValueError("cross_entropy weights sum to zero")
            index = np.flatnonzero(flat)
            np.divide(flat[index], total, out=coeff[:index.size])
        count = index.size
        (logits, gathered, row_max, sum_exp, nll, tile_dw, tile_db,
         weight_t) = np.split(scratch(), offsets)
        gathered = gathered.reshape(tile, dim)
        tile_dw = tile_dw.reshape(-1, num_classes)
        if d_hidden is not None:
            # G Wᵀ reads Wᵀ row-major: a strided ``weight.data.T`` would
            # slow every tile's GEMM.
            weight_t = weight_t.reshape(num_classes, dim)
            np.copyto(weight_t, weight.data.T)
        hidden_rows = hidden.data.reshape(-1, dim)
        for buf in (d_weight, d_bias, d_hidden):
            if buf is not None:
                buf.fill(0)
        for start in range(0, count, tile):
            rows_index = index[start:start + tile]
            size = rows_index.size
            picked = targets[rows_index]
            real = present[rows_index]
            row_mass = mass[rows_index]
            rows = gathered[:size]
            # mode="clip" (the indices are in range) writes ``out``
            # directly; the default "raise" goes through a temporary.
            np.take(hidden_rows, rows_index, axis=0, out=rows, mode="clip")
            scores = logits[:size * num_classes].reshape(size, num_classes)
            np.matmul(rows, weight.data, out=scores)
            if bias is not None:
                np.add(scores, bias.data, out=scores)
            shift, total_exp = row_max[:size], sum_exp[:size]
            np.max(scores, axis=1, out=shift)
            np.subtract(scores, shift[:, None], out=scores)
            # The target entries, before the in-place exp; an empty
            # slot adds nothing.
            target_shifted = scores[all_rows[:size, None], picked]
            np.multiply(target_shifted, real, out=target_shifted)
            np.exp(scores, out=scores)
            np.matmul(scores, ones_classes, out=total_exp)
            tile_nll = nll[start:start + size]
            np.log(total_exp, out=tile_nll)
            np.multiply(tile_nll, row_mass, out=tile_nll)
            np.subtract(tile_nll, target_shifted.sum(axis=1), out=tile_nll)
            if not on_tape:
                continue
            # G = (m · softmax − y) · coeff, in place over the exps, with
            # one per-row factor coeff · m / Σexp (over the row maxima).
            tile_coeff = coeff[start:start + size]
            factor = np.multiply(tile_coeff, row_mass, out=shift)
            np.divide(factor, total_exp, out=factor)
            np.multiply(scores, factor[:, None], out=scores)
            # Slot by slot, so a class in two slots is subtracted twice.
            for slot in range(num_slots):
                scores[all_rows[:size], picked[:, slot]] -= (
                    tile_coeff * real[:, slot]
                )
            if d_weight is not None:
                np.matmul(rows.T, scores, out=tile_dw)
                np.add(d_weight, tile_dw, out=d_weight)
            if d_bias is not None:
                np.matmul(ones[:size], scores, out=tile_db)
                np.add(d_bias, tile_db, out=d_bias)
            if d_hidden is not None:
                # dW has read the gathered rows: they take G Wᵀ.
                np.matmul(scores, weight_t, out=rows)
                d_hidden[rows_index] = rows
        out[...] = (nll[:count] * coeff[:count]).sum()

    forward()

    def backward(grad):
        scale = float(np.asarray(grad))
        for buf in (d_weight, d_bias, d_hidden):
            if buf is not None and scale != 1.0:
                np.multiply(buf, scale, out=buf)
        # dW and db are copied into the parameters' own gradient buffers.
        if d_weight is not None:
            weight._accumulate(d_weight)
        if d_bias is not None:
            bias._accumulate(d_bias)
        if d_hidden is not None:
            hidden._accumulate_owned(d_hidden.reshape(hidden.shape))

    return Tensor._make(out, parents, backward, forward)


def _host_operand(array, dtype):
    """``array`` as a ``dtype`` ndarray for a kernel to read on every
    replay: ``array`` itself when it already is one, else a cast copy
    that an active trace refreshes ahead of the kernel's refire."""
    if array is None:
        return None
    converted = np.asarray(array, dtype=dtype)
    if converted is not array and tracing():
        record_host(lambda: np.copyto(converted, array))
    return converted


def _layer_norm(x, residual, mask, gamma, beta, eps, timeline) -> Tensor:
    """``LN(residual ∘ mask + x) ∘ timeline`` over the last axis as one
    tape node; ``residual``, ``mask`` and ``timeline`` may each be None.

    Two ``x``-sized buffers carry the forward: the output (which first
    holds the residual sum, then the centered rows) and ``x̂``, the one
    activation the backward keeps besides the per-row ``1/√(σ² + ε)``.
    """
    shape, dtype = x.shape, x.dtype
    dim = shape[-1]
    rows = x.size // dim
    mask = _host_operand(mask, dtype)
    if timeline is not None:
        timeline = _host_operand(timeline, dtype)[..., None]
    out = _retain(np.empty(shape, dtype=dtype))
    normalized = _retain(np.empty(shape, dtype=dtype))
    inv_std = _retain(np.empty(rows, dtype=dtype))  # first the row means
    out_rows = out.reshape(rows, dim)
    normalized_rows = normalized.reshape(rows, dim)
    inv_dim = np.full(dim, 1.0 / dim, dtype=dtype)
    ones = np.ones(rows, dtype=dtype)

    def forward():
        if residual is None:
            # A view of x; a fresh copy if x is not contiguous.
            source = x.data.reshape(rows, dim)
        else:
            if mask is None:
                np.add(residual.data, x.data, out=out)
            else:
                np.multiply(residual.data, mask, out=out)
                np.add(out, x.data, out=out)
            source = out_rows
        # Row means are GEMVs against the constant 1/d vector.
        np.matmul(source, inv_dim, out=inv_std)
        np.subtract(source, inv_std[:, None], out=out_rows)
        np.multiply(out_rows, out_rows, out=normalized_rows)
        np.matmul(normalized_rows, inv_dim, out=inv_std)  # the variance
        np.add(inv_std, eps, out=inv_std)
        np.sqrt(inv_std, out=inv_std)
        np.divide(1.0, inv_std, out=inv_std)
        np.multiply(out_rows, inv_std[:, None], out=normalized_rows)
        np.multiply(normalized, gamma.data, out=out)
        np.add(out, beta.data, out=out)
        if timeline is not None:
            np.multiply(out, timeline, out=out)

    forward()
    # Backward buffers, allocated by the first backward (eager, or the
    # traced step) and rewritten in place by every replay.
    bufs = None

    def backward(grad):
        nonlocal bufs
        if bufs is None:
            bufs = (
                _retain(np.empty((rows, dim), dtype=dtype)),
                _retain(np.empty((rows, dim), dtype=dtype)),
                _retain(np.empty(rows, dtype=dtype)),
                _retain(np.empty(rows, dtype=dtype)),
                _retain(np.empty(dim, dtype=dtype)),
                _retain(np.empty(dim, dtype=dtype)),
            )
        d_rows, scratch, term_mean, term_proj, d_gamma, d_beta = bufs
        if timeline is not None:
            np.multiply(grad, timeline, out=d_rows.reshape(shape))
            grad_rows = d_rows
        else:
            grad_rows = grad.reshape(rows, dim)
        # dγ and dβ are copied into the parameters' own gradient buffers.
        if gamma.requires_grad:
            np.multiply(grad_rows, normalized_rows, out=scratch)
            gamma._accumulate(np.matmul(ones, scratch, out=d_gamma))
        if beta.requires_grad:
            beta._accumulate(np.matmul(ones, grad_rows, out=d_beta))
        to_residual = residual is not None and residual.requires_grad
        if not (x.requires_grad or to_residual):
            return
        np.multiply(grad_rows, gamma.data, out=d_rows)
        np.matmul(d_rows, inv_dim, out=term_mean)
        np.multiply(d_rows, normalized_rows, out=scratch)
        np.matmul(scratch, inv_dim, out=term_proj)
        np.subtract(d_rows, term_mean[:, None], out=d_rows)
        np.multiply(normalized_rows, term_proj[:, None], out=scratch)
        np.subtract(d_rows, scratch, out=d_rows)
        np.multiply(d_rows, inv_std[:, None], out=d_rows)
        d_sum = d_rows.reshape(shape)
        if to_residual:
            if mask is None:
                residual._accumulate(d_sum)
            else:
                d_residual = scratch.reshape(shape)
                np.multiply(d_sum, mask, out=d_residual)
                residual._accumulate_owned(d_residual)
        x._accumulate_owned(d_sum)

    parents = (x, gamma, beta) if residual is None else (
        x, residual, gamma, beta
    )
    return Tensor._make(out, parents, backward, forward)


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
    return _layer_norm(x, None, None, gamma, beta, eps, None)


def residual_dropout_norm(
    x: Tensor,
    sub: Tensor,
    mask: np.ndarray | None,
    gamma: Tensor,
    beta: Tensor,
    eps: float,
    timeline: np.ndarray | None = None,
) -> Tensor:
    """``LN(sub ∘ mask + x) ∘ timeline`` as one tape node: the dropout,
    residual connection and layer norm of Eq. 7 / Eq. 9.

    ``mask`` is the sub-layer's inverted-dropout scale mask (shaped like
    ``sub``; None for no dropout) and ``timeline`` an optional
    ``x.shape[:-1]`` {0,1} array that zeroes padded positions of the
    output, as the self-attention block does after its last norm.
    """
    return _layer_norm(x, sub, mask, gamma, beta, eps, timeline)


def feedforward(
    x: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    mask: np.ndarray | None = None,
) -> Tensor:
    """The point-wise feed-forward network of Eq. 8,
    ``(relu(x W₁ + b₁) ∘ mask) W₂ + b₂``, as one tape node.

    ``mask`` is the inverted-dropout scale mask of the hidden
    activation (None for no dropout).  The ReLU gate and the mask are
    combined into one gate buffer that the backward reuses, and both
    GEMMs (and all four backward GEMMs) run over the flattened leading
    axes.
    """
    shape, dtype = x.shape, x.dtype
    dim, hidden_dim = w1.shape
    out_dim = w2.shape[-1]
    rows = x.size // dim
    mask = _host_operand(mask, dtype)
    active = _retain(np.empty((rows, hidden_dim), dtype=dtype))
    gate = _retain(np.empty((rows, hidden_dim), dtype=dtype))
    out = _retain(np.empty(shape[:-1] + (out_dim,), dtype=dtype))
    out_rows = out.reshape(rows, out_dim)
    gate_shaped = gate.reshape(shape[:-1] + (hidden_dim,))
    ones = np.ones(rows, dtype=dtype)

    def forward():
        # A view of x; a fresh copy if x is not contiguous.
        np.matmul(x.data.reshape(rows, dim), w1.data, out=active)
        np.add(active, b1.data, out=active)
        np.greater(active, 0, out=gate)
        if mask is not None:
            np.multiply(gate_shaped, mask, out=gate_shaped)
        np.multiply(active, gate, out=active)
        np.matmul(active, w2.data, out=out_rows)
        np.add(out_rows, b2.data, out=out_rows)

    forward()
    bufs = None  # backward buffers, as in _layer_norm

    def backward(grad):
        nonlocal bufs
        if bufs is None:
            bufs = (
                _retain(np.empty((rows, hidden_dim), dtype=dtype)),
                _retain(np.empty((rows, dim), dtype=dtype)),
                _retain(np.empty(w1.shape, dtype=dtype)),
                _retain(np.empty(hidden_dim, dtype=dtype)),
                _retain(np.empty(w2.shape, dtype=dtype)),
                _retain(np.empty(out_dim, dtype=dtype)),
            )
        d_active, d_x, d_w1, d_b1, d_w2, d_b2 = bufs
        grad_rows = grad.reshape(rows, out_dim)
        if w2.requires_grad:
            w2._accumulate(np.matmul(active.T, grad_rows, out=d_w2))
        if b2.requires_grad:
            b2._accumulate(np.matmul(ones, grad_rows, out=d_b2))
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        np.matmul(grad_rows, w2.data.T, out=d_active)
        np.multiply(d_active, gate, out=d_active)
        if w1.requires_grad:
            x_rows = x.data.reshape(rows, dim)
            w1._accumulate(np.matmul(x_rows.T, d_active, out=d_w1))
        if b1.requires_grad:
            b1._accumulate(np.matmul(ones, d_active, out=d_b1))
        if x.requires_grad:
            np.matmul(d_active, w1.data.T, out=d_x)
            x._accumulate_owned(d_x.reshape(shape))

    return Tensor._make(out, (x, w1, b1, w2, b2), backward, forward)


def reparameterize(mu: Tensor, sigma: Tensor,
                   rng: np.random.Generator) -> Tensor:
    """The reparameterized sample ``z = mu + sigma ∘ eps`` of Eq. 13 as
    one tape node, ``eps ~ N(0, I)`` drawn from ``rng`` in ``mu``'s
    shape by :func:`repro.tensor.random.normal_noise`.

    The noise is computed in float32 whatever the compute dtype (then
    cast), so its values do not depend on it; under a trace each replay
    draws the next sample from the same generator object.
    """
    shape, dtype = mu.shape, mu.dtype
    noise = _retain(np.empty(shape, dtype=dtype))
    scratch = step_scratch((noise_scratch_size(noise.size),), np.float32)

    def draw():
        normal_noise(rng, noise, scratch())

    draw()
    if tracing():
        record_host(draw)
    out = _retain(np.empty(shape, dtype=dtype))

    def forward():
        np.multiply(sigma.data, noise, out=out)
        np.add(out, mu.data, out=out)

    forward()
    d_sigma = None

    def backward(grad):
        nonlocal d_sigma
        if sigma.requires_grad:
            if d_sigma is None:
                d_sigma = _retain(grad * noise)
            else:
                np.multiply(grad, noise, out=d_sigma)
            sigma._accumulate_owned(d_sigma)
        # Only one parent may take ``grad`` by reference.
        mu._accumulate_owned(grad)

    return Tensor._make(out, (mu, sigma), backward, forward)


def gaussian_kl_standard_normal(
    mu: Tensor,
    sigma: Tensor,
    weights: np.ndarray | None = None,
) -> Tensor:
    """``KL(N(μ, σ²) ‖ N(0, I))``, the analytic term of Eq. 20, as one
    tape node.

    Per position ``½ Σ_j (μ_j² + σ_j² − 1 − 2 log σ_j)`` over the latent
    (last) axis, averaged over the remaining positions, or weighted by
    ``weights`` (shaped like the leading axes) and divided by their sum.
    The forward builds each elementwise term in one step-local scratch
    and sums it per position with a GEMV; the backward keeps nothing
    but ``μ`` and ``σ``.  Under a trace the averaging coefficients are
    refreshed from ``weights`` by a recorded host step.
    """
    shape, dtype = mu.shape, mu.dtype
    dim = shape[-1]
    rows = mu.size // dim
    try:
        coeff = _position_scale(weights, rows, dtype)
    except ValueError:
        raise ValueError("gaussian_kl weights sum to zero")
    if weights is not None and tracing():
        weights_src = weights
        record_host(lambda: _refresh_coeff(
            weights_src, coeff, dtype, "gaussian_kl weights sum to zero"
        ))
    terms = step_scratch((rows, dim), dtype)
    per_position = _retain(np.empty(rows, dtype=dtype))
    partial = _retain(np.empty(rows, dtype=dtype))
    out = _retain(np.zeros((), dtype=dtype))
    ones = np.ones(dim, dtype=dtype)

    def forward():
        buf = terms()
        # Views of the parents; fresh copies if they are not contiguous.
        mu_rows = mu.data.reshape(rows, dim)
        sigma_rows = sigma.data.reshape(rows, dim)
        np.log(sigma_rows, out=buf)
        np.multiply(buf, -2.0, out=buf)
        np.subtract(buf, 1.0, out=buf)
        np.matmul(buf, ones, out=per_position)
        np.multiply(mu_rows, mu_rows, out=buf)
        np.matmul(buf, ones, out=partial)
        np.add(per_position, partial, out=per_position)
        np.multiply(sigma_rows, sigma_rows, out=buf)
        np.matmul(buf, ones, out=partial)
        np.add(per_position, partial, out=per_position)
        out[...] = 0.5 * np.dot(per_position, coeff)

    forward()
    bufs = None  # backward buffers, as in _layer_norm

    def backward(grad):
        nonlocal bufs
        if bufs is None:
            bufs = (
                _retain(np.empty(rows, dtype=dtype)),
                _retain(np.empty((rows, dim), dtype=dtype)),
                _retain(np.empty((rows, dim), dtype=dtype)),
            )
        scale, d_mu, d_sigma = bufs
        np.multiply(coeff, grad, out=scale)
        column = scale[:, None]
        if mu.requires_grad:
            np.multiply(mu.data.reshape(rows, dim), column, out=d_mu)
            mu._accumulate_owned(d_mu.reshape(shape))
        if sigma.requires_grad:
            sigma_rows = sigma.data.reshape(rows, dim)
            np.divide(1.0, sigma_rows, out=d_sigma)
            np.subtract(sigma_rows, d_sigma, out=d_sigma)
            np.multiply(d_sigma, column, out=d_sigma)
            sigma._accumulate_owned(d_sigma.reshape(shape))

    return Tensor._make(out, (mu, sigma), backward, forward)
