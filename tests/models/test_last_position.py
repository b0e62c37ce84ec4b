"""The last-position decoding fast path: for every neural model,
``logits(encode_last(p))`` must reproduce the sliced full
``forward_scores`` output — to machine precision in eval mode (where
Caser and SVAE encode only the final position, and BLAS may round the
final GEMM differently at ``(B, D)`` vs. ``(B·L, D)`` shapes, a ~1-ulp
effect), and bitwise in training mode from the same RNG state (where
every model encodes the full window, so the dropout and sampling
streams match)."""

import numpy as np
import pytest

from repro.core import VSAN
from repro.data import pad_left
from repro.models import SASRec, SVAE, Caser, GRU4Rec
from repro.tensor import tape_node_count

from .test_neural_common import ALL_MODELS, MAX_LENGTH, NUM_ITEMS, make_model


def ragged_batch(seed=0, count=9):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(1, NUM_ITEMS + 1, size=rng.integers(1, MAX_LENGTH + 4))
        for _ in range(count)
    ]


@pytest.mark.parametrize("cls", ALL_MODELS)
class TestLastPositionParity:
    def test_encode_last_logits_equal_sliced_full_forward(self, cls):
        model = make_model(cls)
        model.eval()
        padded = np.stack([
            pad_left(history, MAX_LENGTH) for history in ragged_batch()
        ])
        fast = model.logits(model.encode_last(padded)).numpy()
        full = model.forward_scores(padded).numpy()[:, -1, :]
        np.testing.assert_allclose(fast, full, rtol=1e-12, atol=1e-14)

    def test_score_batch_unchanged_by_fast_path(self, cls):
        """score_batch (which routes through encode_last) must produce
        the scores of the full forward."""
        model = make_model(cls, seed=3)
        histories = ragged_batch(seed=1)
        via_fast = model.score_batch(histories)
        model.eval()
        padded = np.stack([
            pad_left(history, MAX_LENGTH) for history in histories
        ])
        full = model.forward_scores(padded).numpy()[:, -1, :].copy()
        full[:, 0] = -np.inf
        np.testing.assert_allclose(via_fast, full, rtol=1e-12, atol=1e-14)

    def test_training_mode_falls_back_to_full_forward(self, cls):
        """encode_last must never be a *different* stochastic draw: in
        training mode it matches the sliced full forward when both run
        from the same RNG state."""
        model = make_model(cls, seed=5)
        model.train()
        padded = np.stack([
            pad_left(history, MAX_LENGTH)
            for history in ragged_batch(seed=3, count=4)
        ])
        state = model.rng_state()
        fast = model.logits(model.encode_last(padded)).numpy()
        model.set_rng_state(state)
        full = model.forward_scores(padded).numpy()[:, -1, :]
        np.testing.assert_array_equal(fast, full)

    def test_score_batch_allocates_no_tape(self, cls):
        model = make_model(cls, seed=6)
        model.score_batch([np.array([1, 2, 3])])  # warm any lazy state
        before = tape_node_count()
        model.score_batch(ragged_batch(seed=4, count=3))
        assert tape_node_count() == before

    def test_scoring_buffer_is_reused(self, cls):
        model = make_model(cls, seed=7)
        model.score_batch([np.array([1, 2]), np.array([3])])
        first = model._scoring_buffer
        model.score_batch([np.array([4]), np.array([5, 6])])
        assert model._scoring_buffer is first  # preallocated, not rebuilt
        model.score_batch([np.array([i + 1]) for i in range(5)])
        assert model._scoring_buffer.shape[0] >= 5  # grows when needed


def test_vsan_sample_at_eval_falls_back():
    """With eval-time latent sampling on, the fast path must reproduce
    the full forward's draw, not skip the sigma head."""
    model = make_model(VSAN, seed=8, sample_at_eval=True)
    model.eval()
    padded = np.stack([
        pad_left(history, MAX_LENGTH) for history in ragged_batch(seed=5)
    ])
    state = model.rng_state()
    fast = model.logits(model.encode_last(padded)).numpy()
    model.set_rng_state(state)
    full = model.forward_scores(padded).numpy()[:, -1, :]
    np.testing.assert_allclose(fast, full, rtol=1e-12, atol=1e-14)
