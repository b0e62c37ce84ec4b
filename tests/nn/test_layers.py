"""Linear, Embedding, LayerNorm, Dropout, PointWiseFeedForward."""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    PointWiseFeedForward,
)
from repro.tensor import Tensor, gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestLinear:
    def test_forward_matches_affine(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.numpy() + layer.bias.numpy()
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected)

    def test_batched_input(self, rng):
        layer = Linear(4, 3, rng)
        x = Tensor(rng.normal(size=(2, 6, 4)))
        assert layer(x).shape == (2, 6, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients(self, rng):
        layer = Linear(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        gradcheck(
            lambda x, w, b: ((x @ w + b) ** 2).sum(),
            [x, layer.weight, layer.bias],
        )


class TestEmbedding:
    def test_lookup_matches_table(self, rng):
        emb = Embedding(10, 4, rng)
        idx = np.array([[1, 3], [9, 0]])
        np.testing.assert_allclose(
            emb(idx).numpy(), emb.weight.numpy()[idx]
        )

    def test_padding_rows_are_zero(self, rng):
        emb = Embedding(10, 4, rng, padding_idx=0)
        out = emb(np.array([0, 3, 0])).numpy()
        assert (out[0] == 0).all() and (out[2] == 0).all()
        assert not (out[1] == 0).all()

    def test_padding_gets_no_gradient(self, rng):
        emb = Embedding(10, 4, rng, padding_idx=0)
        emb(np.array([0, 3])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[0], 0.0)
        assert emb.weight.grad[3].sum() != 0.0

    def test_duplicate_indices_accumulate(self, rng):
        emb = Embedding(5, 2, rng)
        emb(np.array([2, 2, 2])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], 3.0)

    def test_out_of_range_raises(self, rng):
        emb = Embedding(5, 2, rng)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))


class TestLayerNorm:
    def test_output_statistics(self, rng):
        norm = LayerNorm(16)
        out = norm(Tensor(rng.normal(size=(4, 16)) * 3 + 7)).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_per_sample_independence(self, rng):
        """Changing one row never affects another row's output."""
        norm = LayerNorm(8)
        x = rng.normal(size=(3, 8))
        base = norm(Tensor(x)).numpy()
        x2 = x.copy()
        x2[0] = rng.normal(size=8) * 100
        out2 = norm(Tensor(x2)).numpy()
        np.testing.assert_allclose(out2[1:], base[1:])

    def test_affine_parameters_apply(self, rng):
        norm = LayerNorm(4)
        norm.gamma.data[...] = 2.0
        norm.beta.data[...] = 1.0
        out = norm(Tensor(rng.normal(size=(5, 4)))).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), 1.0, atol=1e-6)

    def test_gradients(self, rng):
        norm = LayerNorm(5)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gradcheck(lambda x: (norm(x) ** 2).sum(), [x])
        gradcheck(lambda g: (norm(x) ** 2).sum(), [norm.gamma])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng)
        layer.eval()
        x = Tensor(rng.normal(size=(10, 10)))
        assert layer(x) is x

    def test_train_mode_zeroes_and_rescales(self, rng):
        layer = Dropout(0.4, rng)
        out = layer(Tensor(np.ones((100, 100)))).numpy()
        zero_fraction = (out == 0).mean()
        assert 0.35 < zero_fraction < 0.45
        # Kept with probability T / 2¹⁶, T = round(0.6 · 2¹⁶), and
        # scaled by its inverse, which rounding T moves off 1 / 0.6 by
        # at most half a part in T.
        threshold = round(0.6 * 2**16)
        np.testing.assert_array_equal(out[out != 0], 2**16 / threshold)
        np.testing.assert_allclose(2**16 / threshold, 1.0 / 0.6,
                                   rtol=0.5 / threshold)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            Dropout(-0.1, rng)
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


class TestPointWiseFeedForward:
    def test_position_independence(self, rng):
        """No information leaks across sequence positions (the property
        the paper requires after Eq. 8)."""
        ffn = PointWiseFeedForward(6, rng)
        ffn.eval()
        x = rng.normal(size=(1, 4, 6))
        base = ffn(Tensor(x)).numpy()
        x2 = x.copy()
        x2[0, 2] = 99.0
        out2 = ffn(Tensor(x2)).numpy()
        np.testing.assert_allclose(out2[0, [0, 1, 3]], base[0, [0, 1, 3]])
        assert not np.allclose(out2[0, 2], base[0, 2])

    def test_hidden_dim_override(self, rng):
        ffn = PointWiseFeedForward(6, rng, hidden_dim=12)
        assert ffn.inner.weight.shape == (6, 12)
        assert ffn.outer.weight.shape == (12, 6)

    def test_gradients(self, rng):
        ffn = PointWiseFeedForward(3, rng)
        ffn.eval()
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        gradcheck(lambda x: (ffn(x) ** 2).sum(), [x])
