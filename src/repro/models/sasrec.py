"""SASRec (Kang & McAuley, ICDM 2018): deterministic self-attentive
sequential recommendation — the paper's strongest baseline and the
deterministic counterpart VSAN is built from.

Architecture: item+position embeddings -> a stack of causal
self-attention blocks -> layer norm -> scores against the (tied) item
embedding table.  Training minimizes next-item cross-entropy over all
non-padded positions.
"""

from __future__ import annotations

import numpy as np

from ..nn import LayerNorm, Linear, SelfAttentionStack
from ..tensor import Tensor
from ..tensor.random import spawn_rngs
from .base import NeuralSequentialRecommender
from .common import SequenceEmbedding

__all__ = ["SASRec"]


class SASRec(NeuralSequentialRecommender):
    """Self-attentive sequential recommender.

    Args:
        num_items: vocabulary size N.
        max_length: attention window ``n`` (Section IV-A).
        dim: embedding width ``d``.
        num_blocks: stacked self-attention blocks.
        num_heads: attention heads (1 in the paper's setting).
        dropout_rate: dropout on embeddings and block sub-layers.
        tie_weights: score via the item embedding table (original SASRec)
            instead of a separate output projection.
        seed: controls init and dropout streams.
    """

    name = "SASRec"
    # Right-aligned position embeddings + exact attention masking make
    # column-trimmed batches loss-identical (see the base class note).
    supports_trimming = True

    def __init__(
        self,
        num_items: int,
        max_length: int,
        dim: int = 48,
        num_blocks: int = 2,
        num_heads: int = 1,
        dropout_rate: float = 0.2,
        tie_weights: bool = True,
        positions: str = "learnable",
        seed: int = 0,
    ):
        super().__init__(num_items, max_length)
        init_rng, dropout_rng = spawn_rngs(seed, 2)
        self.dim = dim
        self.tie_weights = tie_weights
        self.embedding = SequenceEmbedding(
            num_items,
            max_length,
            dim,
            init_rng,
            dropout_rate=dropout_rate,
            dropout_rng=dropout_rng,
            positions=positions,
        )
        self.blocks = SelfAttentionStack(
            dim,
            num_blocks,
            init_rng,
            num_heads=num_heads,
            dropout_rate=dropout_rate,
            dropout_rng=dropout_rng,
        )
        self.final_norm = LayerNorm(dim)
        if not tie_weights:
            self.output = Linear(dim, num_items + 1, init_rng)

    def encode(self, padded: np.ndarray) -> Tensor:
        """Per-position sequence representations ``(batch, n, dim)``."""
        embedded, timeline_mask, key_padding_mask = self.embedding(padded)
        hidden = self.blocks(
            embedded,
            key_padding_mask=key_padding_mask,
            timeline_mask=timeline_mask,
        )
        return self.final_norm(hidden)

    def output_head(self) -> tuple[Tensor, Tensor | None]:
        if self.tie_weights:
            return self.embedding.item_embedding.weight.T, None
        return self.output.weight, self.output.bias
