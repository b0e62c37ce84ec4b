"""Scaled dot-product causal self-attention (Eq. 5–6 / 15 of the paper).

The paper's inference and generative layers both use single-head
dot-product attention with ``d x d`` projection matrices and a causal
mask that "prohibits all links between Q_i and K_j for j > i" so position
``i`` never sees future items.  Multi-head operation is supported as a
configurable extension (``num_heads=1`` reproduces the paper exactly).

Mask → softmax → weighted sum runs as a single tape node
(:func:`repro.tensor.fused.fused_attention`) with a hand-derived backward
and one attention-weights buffer; the composed reference it is held in
parity with lives in ``tests/reference.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..tensor import Tensor, fused_attention
from ..tensor.compile import mark_dynamic, record_host, tracing
from . import init
from .module import Module, Parameter

__all__ = ["CausalSelfAttention", "causal_mask"]


@lru_cache(maxsize=64)
def _causal_mask_cached(length: int) -> np.ndarray:
    mask = np.triu(np.ones((length, length), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def causal_mask(length: int) -> np.ndarray:
    """Boolean mask of shape ``(length, length)``; True where j > i
    (positions that must be hidden from the query at i).

    Memoized per length — attention rebuilds it every forward call — and
    returned read-only; copy before mutating.
    """
    return _causal_mask_cached(length)


class CausalSelfAttention(Module):
    """Causal self-attention: ``softmax(Q K^T / sqrt(d)) V``.

    Args:
        dim: model width ``d``; queries/keys/values are all ``d x d``
            projections of the input, as in Eq. 6.
        rng: generator for weight init.
        num_heads: number of attention heads (1 = the paper's setting).
        use_bias: include bias terms on the projections (paper uses none).
    """

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator,
        num_heads: int = 1,
        use_bias: bool = False,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_query = Parameter(init.xavier_uniform(rng, (dim, dim)))
        self.w_key = Parameter(init.xavier_uniform(rng, (dim, dim)))
        self.w_value = Parameter(init.xavier_uniform(rng, (dim, dim)))
        if use_bias:
            self.b_query = Parameter(init.zeros((dim,)))
            self.b_key = Parameter(init.zeros((dim,)))
            self.b_value = Parameter(init.zeros((dim,)))
        else:
            self.b_query = self.b_key = self.b_value = None
        # Scratch buffer for the combined causal|padding mask, reused
        # across forward calls of the same (batch, length) shape (the
        # fused kernel reads the mask only in its forward).
        self._mask_scratch: np.ndarray | None = None

    def _combined_mask(
        self, key_padding_mask: np.ndarray, batch: int, length: int
    ) -> np.ndarray:
        """``(causal | padding) & ~diagonal`` into a reusable buffer."""
        pad = np.asarray(key_padding_mask, dtype=bool)
        if pad.shape != (batch, length):
            raise ValueError(
                f"key_padding_mask shape {pad.shape} != {(batch, length)}"
            )
        shape = (batch, 1, length, length)
        buffer = self._mask_scratch
        if buffer is None or buffer.shape != shape:
            buffer = self._mask_scratch = np.empty(shape, dtype=bool)
        causal = causal_mask(length)[None, None, :, :]
        diagonal = np.arange(length)

        def fill():
            np.copyto(buffer, causal)
            np.bitwise_or(buffer, pad[:, None, None, :], out=buffer)
            # Keep the diagonal attendable to avoid all-masked (NaN) rows.
            buffer[:, :, diagonal, diagonal] = False

        fill()
        if tracing():
            if pad is not key_padding_mask:
                mark_dynamic("key_padding_mask required a bool copy")
            else:
                record_host(fill)
        return buffer

    def forward(
        self,
        x: Tensor,
        key_padding_mask: np.ndarray | None = None,
        return_weights: bool = False,
    ):
        """Attend causally over the sequence axis.

        Args:
            x: input of shape ``(batch, length, dim)``.
            key_padding_mask: optional boolean ``(batch, length)`` array,
                True at *padded* key positions.  The diagonal is always
                left attendable so fully-padded prefixes cannot produce an
                all-masked (NaN) softmax row; padded query outputs are
                zeroed by callers via the timeline mask.
            return_weights: also return the attention distribution
                ``(batch, heads, length, length)`` for inspection.
        """
        batch, length, dim = x.shape
        if dim != self.dim:
            raise ValueError(f"expected last dim {self.dim}, got {dim}")

        queries = x @ self.w_query
        keys = x @ self.w_key
        values = x @ self.w_value
        if self.b_query is not None:
            queries = queries + self.b_query
            keys = keys + self.b_key
            values = values + self.b_value

        heads = self.num_heads
        head_dim = self.head_dim
        # (batch, length, dim) -> (batch, heads, length, head_dim)
        queries = queries.reshape(batch, length, heads, head_dim).swapaxes(1, 2)
        keys = keys.reshape(batch, length, heads, head_dim).swapaxes(1, 2)
        values = values.reshape(batch, length, heads, head_dim).swapaxes(1, 2)

        scale = 1.0 / np.sqrt(head_dim)
        if key_padding_mask is not None:
            mask = self._combined_mask(key_padding_mask, batch, length)
        else:
            mask = causal_mask(length)[None, None, :, :]

        attended = fused_attention(
            queries, keys, values, mask, scale, return_weights=return_weights
        )
        if return_weights:
            attended, weights = attended

        out = attended.swapaxes(1, 2).reshape(batch, length, dim)
        if return_weights:
            return out, weights
        return out
