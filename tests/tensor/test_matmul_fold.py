"""Folded backward of a batched operand times a 2-D weight.

``(..., L, k) @ (k, n)`` backpropagates through two single GEMMs over
the flattened leading axes: ``dW = x.reshape(-1, k).T @ g.reshape(-1, n)``
and ``dx = g.reshape(-1, n) @ W.T``.  These tests pin the gradients
against finite differences and an ``einsum`` reference, and check that
a compiled program no longer retains a ``(batch, k, n)`` product.  The
scatter-add backwards (``take_rows``, ``__getitem__``) ride along: their
zero canvas is reused across replays.
"""

import tracemalloc

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck
from repro.tensor.compile import build_program, trace

SHAPES = [((3, 4, 5), (5, 2)), ((2, 3, 4, 5), (5, 3))]
GRAD_MODES = {
    "left": (True, False),
    "right": (False, True),
    "both": (True, True),
}


def _operands(left_shape, right_shape, mode, seed=0):
    rng = np.random.default_rng(seed)
    left_grad, right_grad = GRAD_MODES[mode]
    x = Tensor(rng.standard_normal(left_shape), requires_grad=left_grad)
    w = Tensor(rng.standard_normal(right_shape), requires_grad=right_grad)
    out_shape = left_shape[:-1] + right_shape[-1:]
    # A non-uniform upstream gradient, so a transposed or mis-summed
    # product cannot pass by symmetry.
    upstream = Tensor(rng.standard_normal(out_shape))
    return x, w, upstream


@pytest.mark.parametrize("left_shape, right_shape", SHAPES)
@pytest.mark.parametrize("mode", sorted(GRAD_MODES))
def test_gradcheck(left_shape, right_shape, mode):
    x, w, upstream = _operands(left_shape, right_shape, mode)
    assert gradcheck(lambda x, w: ((x @ w) * upstream).sum(), [x, w])


@pytest.mark.parametrize("left_shape, right_shape", SHAPES)
def test_matches_einsum_reference(left_shape, right_shape):
    x, w, upstream = _operands(left_shape, right_shape, "both", seed=1)
    ((x @ w) * upstream).sum().backward()
    g = upstream.data
    # Batched reference: per-batch weight products, then the batch sum.
    per_batch = np.einsum("...lk,...ln->...kn", x.data, g)
    np.testing.assert_allclose(
        w.grad, per_batch.reshape(-1, *w.shape).sum(axis=0), rtol=1e-12
    )
    np.testing.assert_allclose(
        x.grad, np.einsum("...ln,kn->...lk", g, w.data), rtol=1e-12
    )


def test_non_contiguous_left_operand():
    rng = np.random.default_rng(2)
    base = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    # swapaxes hands matmul a strided view, which the fold must reshape.
    assert gradcheck(lambda b, w: (b.swapaxes(1, 2) @ w).sum(), [base, w])


def _compile_backward(loss_fn):
    with trace() as tracer:
        loss = loss_fn()
        loss.backward()
    program = build_program(tracer, loss, require_backward=True)
    assert program is not None
    return program


def test_compiled_program_retains_no_batched_weight_product():
    batch, length, k, n = 16, 2, 64, 64  # k > L: (B, k, n) dwarfs (B, L, n)
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((batch, length, k)), requires_grad=True)
    w = Tensor(rng.standard_normal((k, n)), requires_grad=True)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        program = _compile_backward(lambda: (x @ w).sum())
        for _ in range(3):
            program.replay()
            program.replay_backward()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    batched_product = batch * k * n * x.data.itemsize
    assert retained < batched_product, (retained, batched_product)
    # d(sum)/dW broadcasts the column sums of the flattened input.
    np.testing.assert_allclose(
        w.grad, np.broadcast_to(x.data.sum(axis=(0, 1))[:, None], (k, n))
    )


@pytest.mark.parametrize("gather", ["take_rows", "getitem"])
def test_scatter_backward_replays_without_allocating(gather):
    rng = np.random.default_rng(5)
    table = Tensor(rng.standard_normal((2000, 16)), requires_grad=True)
    idx = rng.integers(0, 2000, size=(4, 3))
    upstream = Tensor(rng.standard_normal((4, 3, 16)))

    def loss():
        rows = table.take_rows(idx) if gather == "take_rows" else table[idx]
        return (rows * upstream).sum()

    program = _compile_backward(loss)
    program.replay()
    program.replay_backward()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        program.replay()
        program.replay_backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < table.data.nbytes, (peak - base, table.data.nbytes)
    table.zero_grad()
    loss().backward()
    eager = table.grad.copy()
    table.zero_grad()
    program.replay()
    program.replay_backward()
    np.testing.assert_array_equal(table.grad, eager)
