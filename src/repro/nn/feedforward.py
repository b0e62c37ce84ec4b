"""Point-wise feed-forward network (Eq. 8 of the paper).

Two position-independent affine maps with a ReLU between them:
``F = ReLU(E W1 + b1) W2 + b2``.  Because both maps act on the last axis
only, positions never interact — the no-information-leakage property the
paper calls out after Eq. 8.  The whole network, with the dropout of its
hidden activation, runs as one tape node
(:func:`repro.tensor.fused.feedforward`); the composed form it is held
in parity with lives in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, feedforward
from .dropout import Dropout
from .linear import Linear
from .module import Module

__all__ = ["PointWiseFeedForward"]


class PointWiseFeedForward(Module):
    """ReLU MLP applied independently at every sequence position.

    ``dropout`` is applied to the hidden activation inside the kernel.
    Its output dropout belongs to the residual connection that follows
    (:class:`repro.nn.SelfAttentionBlock` passes ``dropout``'s mask to
    :func:`repro.tensor.residual_dropout_norm`), so ``forward`` returns
    the undropped output.
    """

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator,
        hidden_dim: int | None = None,
        dropout_rate: float = 0.0,
        dropout_rng: np.random.Generator | None = None,
    ):
        super().__init__()
        hidden_dim = hidden_dim or dim
        self.inner = Linear(dim, hidden_dim, rng)
        self.outer = Linear(hidden_dim, dim, rng)
        self.dropout = Dropout(
            dropout_rate, dropout_rng if dropout_rng is not None else rng
        )

    def forward(self, x: Tensor) -> Tensor:
        hidden_shape = x.shape[:-1] + (self.inner.out_features,)
        return feedforward(
            x, self.inner.weight, self.inner.bias,
            self.outer.weight, self.outer.bias,
            self.dropout.mask(hidden_shape, x.dtype),
        )
