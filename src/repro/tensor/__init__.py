"""From-scratch reverse-mode autodiff engine on numpy.

This package replaces the deep-learning framework the paper used
(TensorFlow): :class:`Tensor` records a computation graph and
:meth:`Tensor.backward` propagates exact gradients, verified against
finite differences by :func:`gradcheck`.
"""

from .compile import (
    DYNAMIC,
    Program,
    ProgramCache,
    build_program,
    invalidate,
    mark_dynamic,
    programs_for,
    record_feed,
    record_host,
    run_compiled,
    trace,
    tracing,
)
from .functional import (
    dropout,
    gaussian_kl_standard_normal,
    log_softmax,
    multi_hot_cross_entropy,
    relu,
    sigmoid,
    softmax,
    softplus,
    tanh,
)
from .fused import (
    fused_attention,
    fused_layer_norm,
    fused_multi_hot_cross_entropy,
    linear_cross_entropy,
    masked_fill_value,
)
from .gradcheck import gradcheck, numerical_gradient
from .random import make_rng, spawn_rngs
from .topk import top_k_indices, top_k_partition
from .tensor import (
    Tensor,
    arange,
    concatenate,
    default_dtype,
    full,
    get_default_dtype,
    is_grad_enabled,
    maximum,
    minimum,
    no_grad,
    ones,
    set_default_dtype,
    stack,
    tape_node_count,
    tensor,
    where,
    zeros,
)

__all__ = [
    "DYNAMIC",
    "Program",
    "ProgramCache",
    "Tensor",
    "arange",
    "build_program",
    "concatenate",
    "invalidate",
    "mark_dynamic",
    "programs_for",
    "record_feed",
    "record_host",
    "run_compiled",
    "trace",
    "tracing",
    "default_dtype",
    "dropout",
    "fused_attention",
    "fused_layer_norm",
    "fused_multi_hot_cross_entropy",
    "full",
    "gaussian_kl_standard_normal",
    "get_default_dtype",
    "gradcheck",
    "is_grad_enabled",
    "linear_cross_entropy",
    "log_softmax",
    "make_rng",
    "masked_fill_value",
    "maximum",
    "minimum",
    "multi_hot_cross_entropy",
    "no_grad",
    "numerical_gradient",
    "ones",
    "relu",
    "set_default_dtype",
    "sigmoid",
    "softmax",
    "softplus",
    "spawn_rngs",
    "stack",
    "tanh",
    "tape_node_count",
    "tensor",
    "top_k_indices",
    "top_k_partition",
    "where",
    "zeros",
]
