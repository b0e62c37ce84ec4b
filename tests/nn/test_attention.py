"""Causal self-attention: masking semantics are the heart of the model,
so causality is verified behaviourally (perturb the future, outputs at
earlier positions must not move)."""

import numpy as np
import pytest

from repro.nn import CausalSelfAttention, SelfAttentionBlock, SelfAttentionStack, causal_mask
from repro.tensor import Tensor, gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestCausalMask:
    def test_upper_triangle(self):
        mask = causal_mask(4)
        assert mask.shape == (4, 4)
        for i in range(4):
            for j in range(4):
                assert mask[i, j] == (j > i)


class TestCausalSelfAttention:
    def test_output_shape(self, rng):
        attn = CausalSelfAttention(8, rng)
        out = attn(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_causality(self, rng):
        """Output at position i is unaffected by inputs at j > i."""
        attn = CausalSelfAttention(8, rng)
        x = rng.normal(size=(1, 6, 8))
        base = attn(Tensor(x)).numpy()
        x2 = x.copy()
        x2[0, 4:] = rng.normal(size=(2, 8)) * 10
        out2 = attn(Tensor(x2)).numpy()
        np.testing.assert_allclose(out2[0, :4], base[0, :4], atol=1e-10)
        assert not np.allclose(out2[0, 4:], base[0, 4:])

    def test_attention_weights_are_causal_distributions(self, rng):
        attn = CausalSelfAttention(8, rng)
        _, weights = attn(
            Tensor(rng.normal(size=(2, 5, 8))), return_weights=True
        )
        w = weights.numpy()
        assert w.shape == (2, 1, 5, 5)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-9)
        upper = np.triu(np.ones((5, 5), dtype=bool), k=1)
        assert (np.abs(w[:, :, upper]) < 1e-9).all()

    def test_key_padding_mask_blocks_padded_keys(self, rng):
        attn = CausalSelfAttention(8, rng)
        x = rng.normal(size=(1, 5, 8))
        pad = np.array([[True, True, False, False, False]])
        _, weights = attn(
            Tensor(x), key_padding_mask=pad, return_weights=True
        )
        w = weights.numpy()[0, 0]
        # Real queries (positions 2..4) put no mass on padded keys 0, 1.
        np.testing.assert_allclose(w[2:, :2], 0.0, atol=1e-9)

    def test_fully_padded_prefix_stays_finite(self, rng):
        attn = CausalSelfAttention(8, rng)
        x = rng.normal(size=(1, 4, 8))
        pad = np.array([[True, True, True, False]])
        out = attn(Tensor(x), key_padding_mask=pad)
        assert np.isfinite(out.numpy()).all()

    def test_multi_head_shapes(self, rng):
        attn = CausalSelfAttention(8, rng, num_heads=2)
        _, weights = attn(
            Tensor(rng.normal(size=(3, 4, 8))), return_weights=True
        )
        assert weights.shape == (3, 2, 4, 4)

    def test_dim_validation(self, rng):
        with pytest.raises(ValueError):
            CausalSelfAttention(7, rng, num_heads=2)
        attn = CausalSelfAttention(8, rng)
        with pytest.raises(ValueError):
            attn(Tensor(rng.normal(size=(1, 3, 6))))

    def test_padding_mask_shape_validation(self, rng):
        attn = CausalSelfAttention(8, rng)
        with pytest.raises(ValueError, match="key_padding_mask"):
            attn(
                Tensor(rng.normal(size=(2, 3, 8))),
                key_padding_mask=np.zeros((2, 4), dtype=bool),
            )

    def test_gradients(self, rng):
        attn = CausalSelfAttention(4, rng)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        gradcheck(lambda x: (attn(x) ** 2).sum(), [x])
        gradcheck(lambda w: (attn(x) ** 2).sum(), [attn.w_query])

    def test_bias_variant_has_bias_parameters(self, rng):
        attn = CausalSelfAttention(4, rng, use_bias=True)
        names = {name for name, _ in attn.named_parameters()}
        assert {"b_query", "b_key", "b_value"} <= names


class TestSelfAttentionBlock:
    def test_causality_through_full_block(self, rng):
        block = SelfAttentionBlock(8, rng)
        block.eval()
        x = rng.normal(size=(1, 5, 8))
        base = block(Tensor(x)).numpy()
        x2 = x.copy()
        x2[0, -1] += 5.0
        out2 = block(Tensor(x2)).numpy()
        np.testing.assert_allclose(out2[0, :-1], base[0, :-1], atol=1e-9)

    def test_no_feedforward_variant(self, rng):
        block = SelfAttentionBlock(8, rng, use_feedforward=False)
        names = {name for name, _ in block.named_parameters()}
        assert not any("feedforward" in name for name in names)
        out = block(Tensor(rng.normal(size=(2, 4, 8))))
        assert out.shape == (2, 4, 8)

    def test_timeline_mask_zeroes_padded_outputs(self, rng):
        block = SelfAttentionBlock(8, rng)
        block.eval()
        timeline = np.array([[0.0, 0.0, 1.0, 1.0]])
        out = block(
            Tensor(rng.normal(size=(1, 4, 8))), timeline_mask=timeline
        ).numpy()
        np.testing.assert_allclose(out[0, :2], 0.0)
        assert np.abs(out[0, 2:]).sum() > 0

    def test_gradient_through_block(self, rng):
        block = SelfAttentionBlock(4, rng)
        block.eval()
        x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        gradcheck(lambda x: (block(x) ** 2).sum(), [x], atol=1e-4)


class TestSelfAttentionStack:
    def test_zero_blocks_is_identity(self, rng):
        stack = SelfAttentionStack(8, 0, rng)
        x = Tensor(rng.normal(size=(2, 3, 8)))
        assert stack(x) is x

    def test_len(self, rng):
        assert len(SelfAttentionStack(8, 3, rng)) == 3

    def test_stacking_composes(self, rng):
        stack = SelfAttentionStack(8, 2, rng)
        stack.eval()
        x = Tensor(rng.normal(size=(1, 4, 8)))
        manual = x
        for block in stack.blocks:
            manual = block(manual)
        np.testing.assert_allclose(stack(x).numpy(), manual.numpy())
