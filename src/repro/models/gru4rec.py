"""GRU4Rec (Hidasi et al., ICLR 2016): RNN-based sequential recommender.

Item embeddings feed a (multi-layer) GRU; each hidden state scores the
next item through an output projection.  The original trained on
session-parallel minibatches with a pairwise loss; like most modern
re-implementations (and the GRU4Rec+ follow-up) we train with full
softmax cross-entropy on padded user sequences, which is the protocol
every other neural baseline here uses — so comparisons isolate the
architecture, not the loss.
"""

from __future__ import annotations

import numpy as np

from ..data.interactions import PAD_ID
from ..nn import GRU, Dropout, Embedding, Linear
from ..tensor import Tensor
from ..tensor.random import spawn_rngs
from .base import NeuralSequentialRecommender

__all__ = ["GRU4Rec"]


class GRU4Rec(NeuralSequentialRecommender):
    """GRU over the item sequence, softmax over the catalogue."""

    name = "GRU4Rec"

    def __init__(
        self,
        num_items: int,
        max_length: int,
        dim: int = 48,
        hidden_dim: int | None = None,
        num_layers: int = 1,
        dropout_rate: float = 0.2,
        seed: int = 0,
    ):
        super().__init__(num_items, max_length)
        init_rng, dropout_rng = spawn_rngs(seed, 2)
        hidden_dim = hidden_dim or dim
        self.dim = dim
        self.hidden_dim = hidden_dim
        self.item_embedding = Embedding(
            num_items + 1, dim, init_rng, padding_idx=PAD_ID
        )
        self.dropout = Dropout(dropout_rate, dropout_rng)
        self.gru = GRU(dim, hidden_dim, init_rng, num_layers=num_layers)
        self.output = Linear(hidden_dim, num_items + 1, init_rng)

    def encode(self, padded: np.ndarray) -> Tensor:
        embedded = self.dropout(self.item_embedding(padded))
        hidden, _ = self.gru(embedded)
        return self.dropout(hidden)

    def output_head(self) -> tuple[Tensor, Tensor | None]:
        return self.output.weight, self.output.bias
