"""Padding, target shifting, next-k target slots, minibatching — with
hypothesis checks of the slots against the dense multi-hot target of
Eq. 18."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    PAD_ID,
    build_training_matrix,
    minibatch_indices,
    next_k_targets,
    pad_left,
    shift_targets,
)
from tests.reference import next_k_multi_hot_reference, slot_multi_hot


class TestPadLeft:
    def test_short_sequence_left_padded(self):
        out = pad_left(np.array([5, 6]), 5)
        assert out.tolist() == [0, 0, 0, 5, 6]

    def test_long_sequence_keeps_most_recent(self):
        out = pad_left(np.arange(1, 11), 4)
        assert out.tolist() == [7, 8, 9, 10]

    def test_exact_length(self):
        out = pad_left(np.array([1, 2, 3]), 3)
        assert out.tolist() == [1, 2, 3]

    def test_empty_sequence(self):
        assert pad_left(np.array([], dtype=np.int64), 3).tolist() == [0, 0, 0]

    def test_returns_copy(self):
        seq = np.array([1, 2, 3, 4])
        out = pad_left(seq, 3)
        out[0] = 99
        assert seq[1] == 2


class TestBuildTrainingMatrix:
    def test_stacks_rows(self):
        matrix = build_training_matrix(
            [np.array([1, 2, 3]), np.array([4])], max_length=4
        )
        assert matrix.tolist() == [[0, 1, 2, 3], [0, 0, 0, 4]]


class TestShiftTargets:
    def test_alignment(self):
        padded = np.array([[0, 1, 2, 3]])
        inputs, targets, weights = shift_targets(padded)
        assert inputs.tolist() == [[0, 1, 2]]
        assert targets.tolist() == [[1, 2, 3]]
        assert weights.tolist() == [[1.0, 1.0, 1.0]]

    def test_padding_positions_unweighted(self):
        padded = np.array([[0, 0, 5, 6]])
        _, targets, weights = shift_targets(padded)
        assert targets.tolist() == [[0, 5, 6]]
        assert weights.tolist() == [[0.0, 1.0, 1.0]]


class TestNextKMultiHot:
    """:func:`next_k_targets` holds the set of the next ``k`` items in
    id slots; their count vector is the dense multi-hot target."""

    def test_k1_matches_shift_targets(self):
        padded = np.array([[0, 1, 2, 3], [0, 0, 4, 5]])
        inputs, slots, weights = next_k_targets(padded, 1)
        s_inputs, s_targets, s_weights = shift_targets(padded)
        np.testing.assert_array_equal(inputs, s_inputs)
        np.testing.assert_array_equal(weights, s_weights)
        np.testing.assert_array_equal(slots[..., 0], s_targets)

    def test_k2_marks_both_future_items(self):
        padded = np.array([[1, 2, 3, 4]])
        _, slots, weights = next_k_targets(padded, 2)
        # position 0 (item 1) -> next items 2, 3; position 2 (item 3) ->
        # only item 4 remains, the slot past the end is empty.
        assert slots.tolist() == [[[2, 3], [3, 4], [4, 0]]]
        assert weights.tolist() == [[1.0, 1.0, 1.0]]

    def test_repeated_item_fills_one_slot(self):
        padded = np.array([[0, 5, 2, 5, 5]])
        _, slots, _ = next_k_targets(padded, 3)
        assert slots.tolist() == [[[5, 2, 0], [2, 5, 0], [5, 0, 0],
                                   [5, 0, 0]]]

    def test_padding_column_never_hot(self):
        padded = np.array([[0, 0, 1, 2]])
        _, slots, weights = next_k_targets(padded, 3)
        assert slots.tolist() == [[[0, 1, 2], [1, 2, 0], [2, 0, 0]]]
        assert (slot_multi_hot(slots, 5)[..., PAD_ID] == 0).all()
        assert weights.tolist() == [[1.0, 1.0, 1.0]]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            next_k_targets(np.array([[1, 2]]), 0)

    @settings(max_examples=30, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        k=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    def test_multi_hot_matches_bruteforce(self, lengths, k, seed):
        """The slots' count vector is the dense multi-hot target: item i
        counts once iff it occurs in the next k positions after t
        (Eq. 18), and the weight is 1 iff one does."""
        rng = np.random.default_rng(seed)
        num_items = 4
        padded = np.stack(
            [
                np.concatenate(
                    [
                        np.zeros(6 - length, dtype=np.int64),
                        rng.integers(1, num_items + 1, size=length),
                    ]
                )
                for length in lengths
            ]
        )
        _, slots, weights = next_k_targets(padded, k)
        assert slots.shape == (len(lengths), 5, k)
        dense = next_k_multi_hot_reference(padded, k, num_items)
        np.testing.assert_array_equal(
            slot_multi_hot(slots, num_items + 1), dense
        )
        np.testing.assert_array_equal(weights, dense.any(axis=-1))


class TestMinibatchIndices:
    def test_covers_all_rows_without_shuffle(self):
        batches = list(minibatch_indices(10, 3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert sorted(np.concatenate(batches).tolist()) == list(range(10))

    def test_shuffled_is_permutation(self):
        rng = np.random.default_rng(0)
        batches = list(minibatch_indices(10, 4, rng))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(10))
        assert flat.tolist() != list(range(10))  # shuffled w.h.p.

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(minibatch_indices(5, 0))


class TestTargetDtypes:
    """Targets/weights must follow the engine compute dtype (no float64
    leak into a float32 training path)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shift_targets_weights_follow_default_dtype(self, dtype):
        from repro.tensor import default_dtype

        padded = np.array([[0, 1, 2], [1, 2, 3]])
        with default_dtype(dtype):
            _, _, weights = shift_targets(padded)
        assert weights.dtype == np.dtype(dtype)

    def test_shift_targets_explicit_dtype_wins(self):
        _, _, weights = shift_targets(
            np.array([[0, 1, 2]]), dtype=np.float32
        )
        assert weights.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_next_k_multi_hot_follows_default_dtype(self, dtype):
        """The weights of the next-k targets follow it; the slots are
        int64 ids whatever it is."""
        from repro.tensor import default_dtype

        padded = np.array([[0, 1, 2, 3]])
        with default_dtype(dtype):
            _, slots, weights = next_k_targets(padded, 2)
        assert slots.dtype == np.int64
        assert weights.dtype == np.dtype(dtype)

    def test_float32_dtype_reaches_training_loss_gradients(self):
        """End-to-end: under a float32 scope the loss gradient of a
        model consuming shift_targets stays float32 throughout."""
        from repro.models import SASRec
        from repro.tensor import default_dtype

        with default_dtype(np.float32):
            model = SASRec(6, 4, dim=8, num_blocks=1, dropout_rate=0.0)
            for param in model.parameters():
                param.data = param.data.astype(np.float32)
            loss = model.training_loss(np.array([[0, 1, 2, 3, 4]]))
            assert loss.data.dtype == np.float32
            loss.backward()
            assert all(
                param.grad.dtype == np.float32
                for param in model.parameters()
                if param.grad is not None
            )


class TestEffectiveLengthsAndTrim:
    def test_effective_lengths(self):
        from repro.data import effective_lengths

        padded = np.array([[0, 0, 1, 2], [1, 2, 3, 4], [0, 0, 0, 0]])
        assert effective_lengths(padded).tolist() == [2, 4, 0]

    def test_trim_keeps_max_length_plus_margin(self):
        from repro.data import trim_batch

        rows = np.array([[0, 0, 0, 1, 2], [0, 0, 0, 0, 3]])
        trimmed = trim_batch(rows)
        assert trimmed.shape == (2, 3)
        assert trimmed.tolist() == [[0, 1, 2], [0, 0, 3]]

    def test_trim_margin_widens_window(self):
        from repro.data import trim_batch

        rows = np.array([[0, 0, 0, 1, 2]])
        assert trim_batch(rows, margin=2).shape == (1, 4)
        # Margin never exceeds the full width.
        assert trim_batch(rows, margin=99).shape == (1, 5)

    def test_trim_returns_view(self):
        from repro.data import trim_batch

        rows = np.array([[0, 0, 1, 2]])
        trimmed = trim_batch(rows)
        assert trimmed.base is rows

    def test_trim_never_below_two_columns(self):
        from repro.data import trim_batch

        rows = np.array([[0, 0, 0, 1]])
        assert trim_batch(rows).shape == (1, 2)

    def test_trim_invalid_margin(self):
        from repro.data import trim_batch

        with pytest.raises(ValueError):
            trim_batch(np.array([[0, 1]]), margin=0)


class TestBucketedMinibatchIndices:
    def test_partition_and_length_band(self):
        from repro.data import bucketed_minibatch_indices

        rng = np.random.default_rng(3)
        lengths = rng.integers(1, 65, size=200)
        batches = list(bucketed_minibatch_indices(lengths, 16, rng))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(200))
        for batch in batches:
            assert len(batch) <= 16
            ls = lengths[batch]
            assert ls.max() < 2 * max(ls.min(), 1) + 1  # one pow-2 band

    def test_deterministic_given_rng(self):
        from repro.data import bucketed_minibatch_indices

        lengths = np.random.default_rng(0).integers(1, 30, size=80)
        runs = [
            [
                b.tolist()
                for b in bucketed_minibatch_indices(
                    lengths, 8, np.random.default_rng(7)
                )
            ]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_zero_length_rows_are_kept(self):
        from repro.data import bucketed_minibatch_indices

        lengths = np.array([0, 1, 5, 0, 9])
        batches = list(
            bucketed_minibatch_indices(lengths, 2, np.random.default_rng(0))
        )
        assert sorted(np.concatenate(batches).tolist()) == [0, 1, 2, 3, 4]

    def test_invalid_inputs(self):
        from repro.data import bucketed_minibatch_indices

        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            list(bucketed_minibatch_indices(np.array([1, 2]), 0, rng))
        with pytest.raises(ValueError):
            list(
                bucketed_minibatch_indices(np.ones((2, 2)), 2, rng)
            )
