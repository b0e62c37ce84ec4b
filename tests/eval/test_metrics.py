"""Ranking metrics against hand-computed examples plus hypothesis
invariants (bounds, monotonicity in N).  The scalar one-list metrics of
``tests/reference.py`` carry Eq. 21-22 and the NDCG definition; the
production ``metrics_batch`` is held against them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (
    NonFiniteScoresError,
    metrics_batch,
    rank_items,
    rank_items_batch,
)
from tests.reference import ndcg_at_n, precision_at_n, recall_at_n


class TestHandComputed:
    def test_precision(self):
        recommended = [1, 2, 3, 4, 5]
        relevant = {2, 5, 9}
        assert precision_at_n(recommended, relevant, 5) == 2 / 5

    def test_recall(self):
        recommended = [1, 2, 3, 4, 5]
        relevant = {2, 5, 9}
        assert recall_at_n(recommended, relevant, 5) == 2 / 3

    def test_perfect_ndcg(self):
        assert ndcg_at_n([7, 8], {7, 8}, 2) == pytest.approx(1.0)

    def test_ndcg_prefers_hits_at_top(self):
        relevant = {1}
        top = ndcg_at_n([1, 2, 3], relevant, 3)
        bottom = ndcg_at_n([3, 2, 1], relevant, 3)
        assert top > bottom
        assert top == pytest.approx(1.0)
        assert bottom == pytest.approx(1.0 / np.log2(4))

    def test_ndcg_example(self):
        # hits at ranks 1 and 3 (0-indexed 0 and 2), |T| = 3
        recommended = [10, 99, 20, 98]
        relevant = {10, 20, 30}
        dcg = 1 / np.log2(2) + 1 / np.log2(4)
        idcg = 1 / np.log2(2) + 1 / np.log2(3) + 1 / np.log2(4)
        assert ndcg_at_n(recommended, relevant, 4) == pytest.approx(
            dcg / idcg
        )

    def test_no_hits_all_zero(self):
        assert precision_at_n([1, 2], {9}, 2) == 0.0
        assert recall_at_n([1, 2], {9}, 2) == 0.0
        assert ndcg_at_n([1, 2], {9}, 2) == 0.0

    def test_empty_relevant_raises(self):
        with pytest.raises(ValueError):
            recall_at_n([1], set(), 1)


_RANKING_ARGS = dict(
    recommended=st.lists(
        st.integers(1, 30), min_size=1, max_size=25, unique=True
    ),
    relevant=st.sets(st.integers(1, 30), min_size=1, max_size=10),
    n=st.integers(1, 25),
)


@settings(max_examples=40, deadline=None)
@given(**_RANKING_ARGS)
def test_metric_bounds(recommended, relevant, n):
    for metric in (precision_at_n, recall_at_n, ndcg_at_n):
        value = metric(recommended, relevant, n)
        assert 0.0 <= value <= 1.0


@settings(max_examples=40, deadline=None)
@given(**_RANKING_ARGS)
def test_recall_monotone_in_n(recommended, relevant, n):
    if n > 1:
        assert recall_at_n(recommended, relevant, n) >= recall_at_n(
            recommended, relevant, n - 1
        )


@settings(max_examples=40, deadline=None)
@given(**_RANKING_ARGS)
def test_precision_recall_relationship(recommended, relevant, n):
    hits_by_precision = precision_at_n(recommended, relevant, n) * n
    hits_by_recall = recall_at_n(recommended, relevant, n) * len(relevant)
    assert hits_by_precision == pytest.approx(hits_by_recall)


@settings(max_examples=40, deadline=None)
@given(**_RANKING_ARGS)
def test_metrics_batch_matches_scalar_metrics(recommended, relevant, n):
    ranked = np.zeros((1, 25), dtype=np.int64)  # 0-padded like rankers
    ranked[0, :len(recommended)] = recommended
    # A repeated target id is one relevant item (|T| is a set size).
    targets = np.array(sorted(relevant) + [min(relevant)])
    batch = metrics_batch(ranked, [targets], (n,), 31)
    assert batch[f"precision@{n}"][0] == pytest.approx(
        precision_at_n(recommended, relevant, n)
    )
    assert batch[f"recall@{n}"][0] == pytest.approx(
        recall_at_n(recommended, relevant, n)
    )
    assert batch[f"ndcg@{n}"][0] == pytest.approx(
        ndcg_at_n(recommended, relevant, n)
    )


class TestRankItems:
    def test_orders_by_score(self):
        scores = np.array([-np.inf, 0.1, 0.9, 0.5])
        assert rank_items(scores, 3).tolist() == [2, 3, 1]

    def test_excludes_padding_slot(self):
        scores = np.array([100.0, 1.0, 2.0])
        assert 0 not in rank_items(scores, 2).tolist()

    def test_exclude_argument(self):
        scores = np.array([0.0, 3.0, 2.0, 1.0])
        ranked = rank_items(scores, 2, exclude=np.array([1]))
        assert ranked.tolist() == [2, 3]

    def test_unrankable_slots_are_zero(self):
        # Padding and excluded items score -inf: their slots carry the
        # PAD id 0 at the end of the list, never an excluded id.
        scores = np.array([[0.0, 3.0, 2.0, 1.0], [0.0, 1.0, -np.inf, 2.0]])
        ranked = rank_items_batch(
            scores, 3, exclude=[np.array([1, 2]), np.array([3])]
        )
        np.testing.assert_array_equal(ranked, [[3, 0, 0], [1, 0, 0]])

    def test_top_n_clipped_to_catalogue(self):
        scores = np.array([0.0, 1.0, 2.0])
        assert len(rank_items(scores, 10)) == 2

    def test_does_not_mutate_scores(self):
        scores = np.array([0.0, 1.0, 2.0])
        rank_items(scores, 2, exclude=np.array([1]))
        np.testing.assert_array_equal(scores, [0.0, 1.0, 2.0])


class TestNonFiniteGuard:
    def test_nan_scores_raise(self):
        scores = np.array([[0.0, 1.0, np.nan, 2.0]])
        with pytest.raises(NonFiniteScoresError, match="NaN"):
            rank_items_batch(scores, 2)

    def test_positive_inf_raises(self):
        with pytest.raises(NonFiniteScoresError):
            rank_items(np.array([0.0, np.inf, 1.0]), 2)

    def test_negative_inf_is_a_legal_sentinel(self):
        # -inf marks excluded items (padding, fold-in) — never an error.
        scores = np.array([[-np.inf, -np.inf, 1.0, 2.0]])
        ranked = rank_items_batch(scores, 2)
        assert ranked[0].tolist() == [3, 2]

    def test_error_names_the_offending_rows(self):
        scores = np.zeros((4, 5))
        scores[2, 1] = np.nan
        with pytest.raises(NonFiniteScoresError, match=r"rows \[2\]"):
            rank_items_batch(scores, 2)

    def test_check_finite_opt_out(self):
        scores = np.array([[0.0, 1.0, np.nan, 2.0]])
        ranked = rank_items_batch(scores, 2, check_finite=False)
        assert ranked.shape == (1, 2)

    def test_non_finite_scores_error_is_a_value_error(self):
        assert issubclass(NonFiniteScoresError, ValueError)


class TestMetricsBatchValidation:
    def targets(self, users=1):
        return [np.array([1]) for _ in range(users)]

    def test_float_ranked_lists_rejected(self):
        ranked = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="integer item ids"):
            metrics_batch(ranked, self.targets(), (2,), num_columns=5)

    def test_out_of_range_ids_rejected(self):
        ranked = np.array([[1, 7]])
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            metrics_batch(ranked, self.targets(), (2,), num_columns=5)

    def test_negative_ids_rejected(self):
        ranked = np.array([[1, -2]])
        with pytest.raises(ValueError, match="ranked item ids"):
            metrics_batch(ranked, self.targets(), (2,), num_columns=5)

    def test_valid_input_still_computes(self):
        ranked = np.array([[1, 2]])
        result = metrics_batch(ranked, self.targets(), (2,), num_columns=5)
        assert result["recall@2"][0] == pytest.approx(1.0)
