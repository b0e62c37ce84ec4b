"""The paper's self-attention block (Eq. 5–9): attention, residual +
layer norm, point-wise feed-forward, residual + layer norm.

Used for both the Inference Self-attention Layer (input = item+position
embeddings) and the Generative Self-attention Layer (input = latent z);
stacking ``h`` blocks realizes Eq. 11 / Eq. 17.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from .attention import CausalSelfAttention
from .dropout import Dropout
from .feedforward import PointWiseFeedForward
from .module import Module, ModuleList
from .normalization import LayerNorm

__all__ = ["SelfAttentionBlock", "SelfAttentionStack"]


class SelfAttentionBlock(Module):
    """One SAN block: ``G = LN(FFN(LN(Attn(x) + x)) + LN(Attn(x) + x))``.

    ``use_feedforward=False`` drops the FFN sub-layer entirely (the block
    output becomes ``E = LN(Attn(x) + x)``), which implements the paper's
    VSAN-infer-feed / VSAN-gene-feed / VSAN-all-feed ablations (Table VI).
    """

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator,
        num_heads: int = 1,
        dropout_rate: float = 0.0,
        use_feedforward: bool = True,
        dropout_rng: np.random.Generator | None = None,
    ):
        super().__init__()
        dropout_rng = dropout_rng if dropout_rng is not None else rng
        self.attention = CausalSelfAttention(dim, rng, num_heads=num_heads)
        self.attention_dropout = Dropout(dropout_rate, dropout_rng)
        self.norm_attention = LayerNorm(dim)
        self.use_feedforward = use_feedforward
        if use_feedforward:
            self.feedforward = PointWiseFeedForward(
                dim,
                rng,
                dropout_rate=dropout_rate,
                dropout_rng=dropout_rng,
            )
            self.norm_feedforward = LayerNorm(dim)

    def forward(
        self,
        x: Tensor,
        key_padding_mask: np.ndarray | None = None,
        timeline_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Apply the block.

        Args:
            x: ``(batch, length, dim)`` input.
            key_padding_mask: True at padded key positions (see
                :class:`CausalSelfAttention`).
            timeline_mask: optional ``(batch, length)`` {0,1} array; the
                block output is multiplied by it so padded positions stay
                exactly zero between blocks (as in SASRec).
        """
        attended = self.attention_dropout(
            self.attention(x, key_padding_mask=key_padding_mask)
        )
        normed = self.norm_attention(attended + x)
        if self.use_feedforward:
            out = self.norm_feedforward(self.feedforward(normed) + normed)
        else:
            out = normed
        if timeline_mask is not None:
            out = out * Tensor(
                np.asarray(timeline_mask, dtype=out.dtype)[..., None]
            )
        return out


class SelfAttentionStack(Module):
    """``h`` stacked blocks (Eq. 11 / Eq. 17); ``h = 0`` is the identity."""

    def __init__(
        self,
        dim: int,
        num_blocks: int,
        rng: np.random.Generator,
        num_heads: int = 1,
        dropout_rate: float = 0.0,
        use_feedforward: bool = True,
        dropout_rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.blocks = ModuleList(
            [
                SelfAttentionBlock(
                    dim,
                    rng,
                    num_heads=num_heads,
                    dropout_rate=dropout_rate,
                    use_feedforward=use_feedforward,
                    dropout_rng=dropout_rng,
                )
                for _ in range(num_blocks)
            ]
        )

    def __len__(self) -> int:
        return len(self.blocks)

    def forward(
        self,
        x: Tensor,
        key_padding_mask: np.ndarray | None = None,
        timeline_mask: np.ndarray | None = None,
    ) -> Tensor:
        out = x
        for block in self.blocks:
            out = block(
                out,
                key_padding_mask=key_padding_mask,
                timeline_mask=timeline_mask,
            )
        return out
