"""Dropout layer (module wrapper over the functional form)."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, dropout, dropout_mask
from .module import Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout driven by an explicit generator.

    The generator is owned by the layer so a seeded model produces
    reproducible mask sequences; evaluation mode is the identity.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def mask(self, shape: tuple[int, ...], dtype) -> np.ndarray | None:
        """This step's scale mask (see :func:`repro.tensor.dropout_mask`)
        for a fused kernel to apply; None when the layer is the
        identity."""
        if not self.training or self.rate <= 0.0:
            return None
        return dropout_mask(shape, dtype, self.rate, self._rng)

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.rate, self._rng, training=self.training)
