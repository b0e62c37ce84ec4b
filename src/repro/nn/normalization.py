"""Layer normalization (Ba et al. 2016), Eq. 7/9/16 of the paper."""

from __future__ import annotations

from ..tensor import Tensor, fused_layer_norm
from . import init
from .module import Module, Parameter

__all__ = ["LayerNorm"]


class LayerNorm(Module):
    """Normalize the last axis to zero mean / unit variance, then affine.

    Statistics are per position and independent of other samples in the
    batch — the property the paper highlights over batch normalization.

    The whole op runs as one fused tape node with the closed-form
    backward (:func:`repro.tensor.fused.fused_layer_norm`); the composed
    mean/variance chain it is held in parity with lives in
    ``tests/reference.py``.
    """

    def __init__(self, dim: int, eps: float = 1e-8):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.zeros((dim,)) + 1.0)
        self.beta = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return fused_layer_norm(x, self.gamma, self.beta, self.eps)
