"""Composite functions: softmax/log-softmax, cross-entropies, Gaussian
KL, and dropout — values against closed forms, gradients via gradcheck.
The one-hot cross-entropy here is the composed oracle of
``tests/reference.py`` that the fused head is held in parity with; the
next-``k`` (multi-hot) cross-entropy is the fused head with id slots,
on identity-head logits."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    dropout,
    dropout_mask,
    gaussian_kl_standard_normal,
    gradcheck,
    linear_cross_entropy,
    log_softmax,
    softmax,
)
from repro.tensor.compile import build_program, trace
from tests.reference import cross_entropy_reference


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 7)) * 3)
        np.testing.assert_allclose(
            softmax(x).numpy().sum(axis=-1), np.ones(4), rtol=1e-12
        )

    def test_stable_for_huge_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        out = softmax(x).numpy()
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, :2], [0.5, 0.5])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(
            log_softmax(x).numpy(), np.log(softmax(x).numpy()), rtol=1e-10
        )

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gradcheck(lambda x: (softmax(x) ** 2).sum(), [x])
        gradcheck(lambda x: log_softmax(x).mean(), [x])

    def test_axis_argument(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(
            softmax(x, axis=0).numpy().sum(axis=0), np.ones(5)
        )


class TestCrossEntropy:
    def test_matches_manual_nll(self, rng):
        logits = rng.normal(size=(4, 6))
        targets = np.array([0, 2, 5, 1])
        log_probs = logits - np.log(
            np.exp(logits).sum(axis=1, keepdims=True)
        )
        expected = -log_probs[np.arange(4), targets].mean()
        actual = cross_entropy_reference(Tensor(logits), targets).item()
        np.testing.assert_allclose(actual, expected, rtol=1e-10)

    def test_weights_mask_positions(self, rng):
        logits = rng.normal(size=(4, 6))
        targets = np.array([0, 2, 5, 1])
        weights = np.array([1.0, 0.0, 1.0, 0.0])
        kept = cross_entropy_reference(
            Tensor(logits[[0, 2]]), targets[[0, 2]]
        ).item()
        weighted = cross_entropy_reference(
            Tensor(logits), targets, weights=weights
        ).item()
        np.testing.assert_allclose(weighted, kept, rtol=1e-10)

    def test_sequence_shape(self, rng):
        logits = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        targets = rng.integers(0, 5, size=(2, 3))
        weights = np.ones((2, 3))
        gradcheck(
            lambda logits: cross_entropy_reference(
                logits, targets, weights=weights
            ),
            [logits],
        )

    def test_all_zero_weights_raise(self, rng):
        logits = Tensor(rng.normal(size=(2, 4)))
        with pytest.raises(ValueError, match="zero"):
            cross_entropy_reference(
                logits, np.array([0, 1]), weights=np.zeros(2)
            )


def multi_hot_cross_entropy(logits, slots, weights=None):
    """The next-``k`` loss of ``(..., k)`` id slots on ``logits``."""
    identity = Tensor(np.eye(logits.shape[-1]))
    return linear_cross_entropy(logits, identity, None, slots, weights)


class TestMultiHotCrossEntropy:
    def test_reduces_to_cross_entropy_for_one_hot(self, rng):
        logits = rng.normal(size=(3, 6))
        targets = np.array([1, 4, 2])
        slots = np.stack([targets, np.zeros(3, dtype=int)], axis=-1)
        np.testing.assert_allclose(
            multi_hot_cross_entropy(Tensor(logits), slots).item(),
            cross_entropy_reference(Tensor(logits), targets).item(),
            rtol=1e-10,
        )

    def test_multi_hot_sums_per_position(self, rng):
        logits = rng.normal(size=(1, 5))
        log_probs = logits - np.log(np.exp(logits).sum())
        expected = -(log_probs[0, 1] + log_probs[0, 3])
        np.testing.assert_allclose(
            multi_hot_cross_entropy(Tensor(logits), np.array([[1, 3]])).item(),
            expected,
            rtol=1e-10,
        )

    def test_gradient(self, rng):
        logits = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        slots = rng.integers(0, 5, size=(2, 3, 3))
        slots[..., 0] = 1  # every position supervised
        weights = np.ones((2, 3))
        gradcheck(
            lambda logits: multi_hot_cross_entropy(
                logits, slots, weights=weights
            ),
            [logits],
        )


class TestGaussianKL:
    def test_zero_for_standard_normal(self):
        mu = Tensor(np.zeros((2, 3)))
        sigma = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(
            gaussian_kl_standard_normal(mu, sigma).item(), 0.0, atol=1e-12
        )

    def test_closed_form(self, rng):
        mu = rng.normal(size=(1, 4))
        sigma = np.abs(rng.normal(size=(1, 4))) + 0.3
        expected = 0.5 * np.sum(
            -np.log(sigma**2) + mu**2 + sigma**2 - 1.0
        )
        actual = gaussian_kl_standard_normal(
            Tensor(mu), Tensor(sigma)
        ).item()
        np.testing.assert_allclose(actual, expected, rtol=1e-10)

    def test_positive(self, rng):
        mu = Tensor(rng.normal(size=(5, 4)))
        sigma = Tensor(np.abs(rng.normal(size=(5, 4))) + 0.1)
        assert gaussian_kl_standard_normal(mu, sigma).item() >= 0.0

    def test_gradient(self, rng):
        mu = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        sigma = Tensor(
            np.abs(rng.normal(size=(3, 4))) + 0.3, requires_grad=True
        )
        weights = np.array([1.0, 0.0, 2.0])
        gradcheck(
            lambda mu, sigma: gaussian_kl_standard_normal(
                mu, sigma, weights=weights
            ),
            [mu, sigma],
        )


class TestDropout:
    def test_identity_when_not_training(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_identity_at_rate_zero(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        assert dropout(x, 0.0, rng, training=True) is x

    def test_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, rng, training=True).numpy()
        np.testing.assert_allclose(out.mean(), 1.0, atol=0.02)

    def test_zeros_fraction(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, rng, training=True).numpy()
        np.testing.assert_allclose((out == 0).mean(), 0.3, atol=0.02)

    def test_invalid_rate_raises(self, rng):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            dropout(x, 1.0, rng, training=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_bits_and_stream_match_the_reference_expression(
        self, dtype
    ):
        """The eager mask and every replay refresh are bitwise the
        reference expression (uint16 lanes of raw words against
        ``T = round(keep · 2¹⁶)``), and leave the generator where it
        leaves its own."""
        shape, rate = (5, 7, 3), 0.3
        size, threshold = 5 * 7 * 3, round(0.7 * 2**16)
        rng = np.random.default_rng(9)
        twin = np.random.default_rng(9)

        def reference():
            words = twin.bit_generator.random_raw(-(-size // 4))
            lanes = words.view(np.uint16)[:size].reshape(shape)
            return ((lanes < threshold) * (2**16 / threshold)).astype(dtype)

        with trace() as tracer:
            mask = dropout_mask(shape, dtype, rate, rng)
        program = build_program(tracer, mask)
        assert mask.dtype == dtype
        assert mask.tobytes() == reference().tobytes()
        for _ in range(3):
            program.replay()
            assert mask.tobytes() == reference().tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_gradient_flows_through_kept_units(self, rng):
        x = Tensor(np.ones((50,)), requires_grad=True)
        out = dropout(x, 0.5, np.random.default_rng(0), training=True)
        out.sum().backward()
        kept = out.numpy() != 0
        assert (x.grad[kept] > 0).all()
        assert (x.grad[~kept] == 0).all()
