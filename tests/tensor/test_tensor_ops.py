"""Gradient checks for every primitive op in the autodiff engine.

Each test compares analytic gradients against central finite differences
via :func:`repro.tensor.gradcheck`, on non-degenerate random inputs.
"""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    concatenate,
    default_dtype,
    gradcheck,
    maximum,
    minimum,
    stack,
    where,
)
from repro.tensor.compile import build_program, trace
from tests.reference import scatter_rows_reference


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestArithmetic:
    def test_add_broadcast(self, rng):
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4)
        gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_radd_scalar(self, rng):
        a = leaf(rng, 3)
        gradcheck(lambda a: (2.0 + a).sum(), [a])

    def test_sub(self, rng):
        a, b = leaf(rng, 2, 3), leaf(rng, 2, 3)
        gradcheck(lambda a, b: (a - b).sum(), [a, b])

    def test_rsub(self, rng):
        a = leaf(rng, 4)
        gradcheck(lambda a: (1.0 - a).sum(), [a])

    def test_mul_broadcast(self, rng):
        a = leaf(rng, 2, 1, 4)
        b = leaf(rng, 3, 1)
        gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = leaf(rng, 3, 3)
        b = Tensor(np.abs(rng.normal(size=(3, 3))) + 1.0, requires_grad=True)
        gradcheck(lambda a, b: (a / b).sum(), [a, b])

    def test_rdiv(self, rng):
        a = Tensor(np.abs(rng.normal(size=(5,))) + 1.0, requires_grad=True)
        gradcheck(lambda a: (3.0 / a).sum(), [a])

    def test_neg(self, rng):
        a = leaf(rng, 3)
        gradcheck(lambda a: (-a).sum(), [a])

    def test_pow(self, rng):
        a = Tensor(np.abs(rng.normal(size=(4,))) + 0.5, requires_grad=True)
        gradcheck(lambda a: (a**3).sum(), [a])
        gradcheck(lambda a: (a**-1.5).sum(), [a])

    def test_pow_rejects_tensor_exponent(self, rng):
        a, b = leaf(rng, 2), leaf(rng, 2)
        with pytest.raises(TypeError):
            a**b


class TestMatmul:
    def test_2d(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 5)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_batched(self, rng):
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 5)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_broadcast_batch(self, rng):
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_4d_attention_shape(self, rng):
        q, k = leaf(rng, 2, 2, 3, 4), leaf(rng, 2, 2, 4, 3)
        gradcheck(lambda q, k: (q @ k).sum(), [q, k])

    def test_vector_matrix(self, rng):
        a, b = leaf(rng, 4), leaf(rng, 4, 5)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_matrix_vector(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_values_match_numpy(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 5)
        np.testing.assert_allclose((a @ b).numpy(), a.numpy() @ b.numpy())


class TestElementwise:
    @pytest.mark.parametrize(
        "op",
        ["exp", "tanh", "sigmoid", "relu", "softplus", "abs", "sqrt"],
    )
    def test_unary_gradients(self, rng, op):
        data = rng.normal(size=(3, 4))
        if op == "sqrt":
            data = np.abs(data) + 0.5
        if op in ("relu", "abs"):
            # Keep inputs away from the kink so finite differences agree.
            data = data + np.sign(data) * 0.1
        a = Tensor(data, requires_grad=True)
        gradcheck(lambda a: getattr(a, op)().sum(), [a])

    def test_log(self, rng):
        a = Tensor(np.abs(rng.normal(size=(3, 4))) + 0.5, requires_grad=True)
        gradcheck(lambda a: a.log().sum(), [a])

    def test_sigmoid_matches_definition(self, rng):
        x = rng.normal(size=(10,))
        expected = 1.0 / (1.0 + np.exp(-x))
        np.testing.assert_allclose(Tensor(x).sigmoid().numpy(), expected)

    def test_softplus_is_stable_for_large_inputs(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        out = x.softplus().numpy()
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[2], 1000.0)
        np.testing.assert_allclose(out[0], 0.0, atol=1e-12)
        # Over the working range and far beyond it, in both dtypes, the
        # stable form raises no floating-point error (exp(-|x|) may only
        # underflow to its exact limit) and agrees with np.logaddexp.
        inputs = np.concatenate(
            [np.linspace(-100.0, 100.0, 2001), [-1e4, 1e4, -0.0]]
        )
        for dtype in (np.float64, np.float32):
            x = inputs.astype(dtype)
            with default_dtype(dtype), np.errstate(all="raise"):
                out = Tensor(x).softplus().numpy()
            with np.errstate(under="ignore"):
                expected = np.logaddexp(dtype(0), x)
            assert out.dtype == dtype
            if dtype == np.float64:
                np.testing.assert_allclose(out, expected, rtol=1e-15,
                                           atol=0)
            else:
                np.testing.assert_array_max_ulp(out, expected, maxulp=2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softplus_floor_equals_adding_it_after(self, rng, dtype):
        """``softplus(floor=c)`` is one node whose value and gradient
        equal those of ``softplus() + c`` bitwise."""
        x = np.concatenate([30.0 * rng.normal(size=500), [-1e4, 1e4, -0.0]])
        grad = rng.normal(size=x.shape)
        with default_dtype(dtype):
            results = []
            for floored in (lambda a: a.softplus(floor=1e-4),
                            lambda a: a.softplus() + 1e-4):
                a = Tensor(x, requires_grad=True)
                out = floored(a)
                out.backward(grad)
                results.append((out.numpy().tobytes(), a.grad.tobytes()))
        assert results[0] == results[1]
        gradcheck(lambda a: a.softplus(floor=0.5).sum(),
                  [Tensor(rng.normal(size=(3, 4)), requires_grad=True)])

    def test_clip(self, rng):
        a = Tensor(rng.normal(size=(4, 4)) * 2, requires_grad=True)
        gradcheck(lambda a: a.clip(-1.0, 1.0).sum(), [a])

    def test_clip_one_sided(self, rng):
        a = Tensor(rng.normal(size=(4,)) * 2 + 5, requires_grad=True)
        gradcheck(lambda a: a.clip(None, 1.0).sum(), [a])


class TestReductions:
    def test_sum_all(self, rng):
        a = leaf(rng, 3, 4)
        gradcheck(lambda a: a.sum() * 2, [a])

    @pytest.mark.parametrize("axis", [0, 1, -1, (0, 2)])
    def test_sum_axis(self, rng, axis):
        a = leaf(rng, 2, 3, 4)
        gradcheck(lambda a: (a.sum(axis=axis) ** 2).sum(), [a])

    def test_sum_keepdims(self, rng):
        a = leaf(rng, 2, 3)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        gradcheck(lambda a: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_mean(self, rng):
        a = leaf(rng, 3, 5)
        gradcheck(lambda a: (a.mean(axis=0) ** 2).sum(), [a])
        np.testing.assert_allclose(a.mean().item(), a.numpy().mean())

    def test_max_axis(self, rng):
        a = leaf(rng, 4, 5)
        gradcheck(lambda a: a.max(axis=1).sum(), [a])

    def test_max_all(self, rng):
        a = leaf(rng, 4, 5)
        gradcheck(lambda a: a.max() * 3, [a])

    def test_max_splits_gradient_between_ties(self):
        a = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_var_matches_numpy(self, rng):
        a = leaf(rng, 3, 6)
        np.testing.assert_allclose(
            a.var(axis=-1).numpy(), a.numpy().var(axis=-1)
        )
        gradcheck(lambda a: a.var(axis=-1).sum(), [a])


class TestShapes:
    def test_reshape(self, rng):
        a = leaf(rng, 2, 6)
        gradcheck(lambda a: (a.reshape(3, 4) ** 2).sum(), [a])
        gradcheck(lambda a: (a.reshape((4, 3)) ** 2).sum(), [a])

    def test_transpose_default(self, rng):
        a = leaf(rng, 2, 3, 4)
        assert a.T.shape == (4, 3, 2)
        gradcheck(lambda a: (a.transpose() ** 2).sum(), [a])

    def test_transpose_axes(self, rng):
        a = leaf(rng, 2, 3, 4)
        gradcheck(lambda a: (a.transpose(1, 0, 2) ** 2).sum(), [a])

    def test_swapaxes(self, rng):
        a = leaf(rng, 2, 3, 4)
        gradcheck(lambda a: (a.swapaxes(0, 2) ** 2).sum(), [a])

    def test_expand_squeeze(self, rng):
        a = leaf(rng, 3, 4)
        gradcheck(lambda a: (a.expand_dims(1) ** 2).sum(), [a])
        b = leaf(rng, 3, 1, 4)
        gradcheck(lambda b: (b.squeeze(1) ** 2).sum(), [b])

    def test_broadcast_to(self, rng):
        a = leaf(rng, 3, 1)
        gradcheck(lambda a: (a.broadcast_to((2, 3, 5)) ** 2).sum(), [a])


class TestIndexing:
    def test_basic_slice(self, rng):
        a = leaf(rng, 5, 6)
        gradcheck(lambda a: (a[1:4, ::2] ** 2).sum(), [a])

    def test_integer_row(self, rng):
        a = leaf(rng, 5, 6)
        gradcheck(lambda a: (a[2] ** 2).sum(), [a])

    def test_fancy_indexing_accumulates_duplicates(self):
        a = Tensor(np.zeros(4), requires_grad=True)
        idx = np.array([1, 1, 2])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 2.0, 1.0, 0.0])

    def test_tuple_fancy_index(self, rng):
        a = leaf(rng, 4, 5)
        rows = np.array([0, 1, 3])
        cols = np.array([4, 2, 0])
        gradcheck(lambda a: (a[(rows, cols)] ** 2).sum(), [a])

    def test_take_rows(self, rng):
        emb = leaf(rng, 6, 3)
        idx = np.array([[0, 5, 5], [2, 1, 0]])
        out = emb.take_rows(idx)
        assert out.shape == (2, 3, 3)
        gradcheck(lambda emb: (emb.take_rows(idx) ** 2).sum(), [emb])

    def test_take_rows_gradient_is_the_add_at_scatter_bitwise(self, rng):
        """In float64 the bincount backward sums every cell in index
        order, as ``np.add.at`` does: bitwise the same gradient, also
        on a compiled replay over refreshed indices."""
        table = leaf(rng, 50, 6)
        idx = rng.integers(0, 50, size=(40, 7))
        idx[:, :3] = 7  # many repeats of one row
        upstream = rng.normal(size=(40, 7, 6))

        def grad_of():
            return (table.take_rows(idx) * Tensor(upstream)).sum()

        with trace() as tracer:
            loss = grad_of()
            loss.backward()
        program = build_program(tracer, loss, require_backward=True)
        assert table.grad.tobytes() == (
            scatter_rows_reference(table.shape, idx, upstream).tobytes()
        )
        idx[...] = rng.integers(0, 50, size=idx.shape)
        program.replay()
        program.replay_backward()
        assert table.grad.tobytes() == (
            scatter_rows_reference(table.shape, idx, upstream).tobytes()
        )

    def test_take_rows_float32_gradient_with_repeated_indices(self, rng):
        """In float32 the sums run in float64 and are cast once: within
        float32 round-off of the float64 scatter."""
        with default_dtype(np.float32):
            table = Tensor(rng.normal(size=(30, 8)), requires_grad=True)
        idx = rng.integers(0, 4, size=(64, 9))  # ~144 repeats per row
        upstream = rng.normal(size=(64, 9, 8)).astype(np.float32)
        (table.take_rows(idx) * Tensor(upstream)).sum().backward()
        assert table.grad.dtype == np.float32
        want = scatter_rows_reference(
            table.shape, idx, upstream.astype(np.float64)
        )
        np.testing.assert_allclose(table.grad, want, rtol=1e-6, atol=0)
        assert (table.grad[4:] == 0).all()

    def test_masked_fill(self, rng):
        a = leaf(rng, 3, 4)
        mask = rng.random((3, 4)) < 0.4
        out = a.masked_fill(mask, -7.0)
        assert (out.numpy()[mask] == -7.0).all()
        gradcheck(lambda a: (a.masked_fill(mask, -7.0) ** 2).sum(), [a])


class TestCombinators:
    def test_concatenate(self, rng):
        a, b = leaf(rng, 2, 3), leaf(rng, 2, 5)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 8)
        gradcheck(lambda a, b: (concatenate([a, b], axis=1) ** 2).sum(),
                  [a, b])

    def test_stack(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
        out = stack([a, b], axis=1)
        assert out.shape == (3, 2, 4)
        gradcheck(lambda a, b: (stack([a, b], axis=1) ** 2).sum(), [a, b])

    def test_where(self, rng):
        condition = rng.random((3, 4)) < 0.5
        a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
        gradcheck(
            lambda a, b: (where(condition, a, b) ** 2).sum(), [a, b]
        )

    def test_maximum_minimum(self, rng):
        a = leaf(rng, 4, 4)
        b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        gradcheck(lambda a, b: maximum(a, b).sum(), [a, b])
        gradcheck(lambda a, b: minimum(a, b).sum(), [a, b])

    def test_maximum_values(self, rng):
        x, y = rng.normal(size=(5,)), rng.normal(size=(5,))
        np.testing.assert_allclose(
            maximum(Tensor(x), Tensor(y)).numpy(), np.maximum(x, y)
        )


class TestWhereVariants:
    def test_where_accepts_tensor_condition(self, rng):
        condition = Tensor((rng.random((3, 3)) < 0.5).astype(float))
        a = Tensor(np.ones((3, 3)))
        b = Tensor(np.zeros((3, 3)))
        out = where(condition, a, b).numpy()
        np.testing.assert_array_equal(out, condition.numpy())

    def test_minimum_values(self, rng):
        x, y = rng.normal(size=(6,)), rng.normal(size=(6,))
        np.testing.assert_allclose(
            minimum(Tensor(x), Tensor(y)).numpy(), np.minimum(x, y)
        )

    def test_where_broadcasts_branches(self, rng):
        condition = rng.random((2, 3)) < 0.5
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(np.array(0.0), requires_grad=True)
        out = where(condition, a, b)
        assert out.shape == (2, 3)
        out.sum().backward()
        assert a.grad.shape == (3,)
        assert b.grad.shape == ()
