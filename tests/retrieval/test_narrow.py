"""The narrow TopScores representation and its ranking kernel.

The contract under test: a packed ``(ids, scores)`` candidate list is a
lossless substitute for the full-width ``-inf``-scattered score row —
``to_dense`` rebuilds the legacy row exactly, and ``rank_top_scores``
returns bitwise the ids ``rank_items_batch`` would return on that row
(for distinct scores, which real model scores always are).
"""

import numpy as np
import pytest

from repro.eval.metrics import (
    NonFiniteScoresError,
    rank_items_batch,
    rank_top_scores,
)
from repro.retrieval import TopScores

WIDTH = 101  # num_items + 1


def make_batch(rng, batch=6, cand=8, width=WIDTH, pad_rate=0.25):
    """Random narrow batch with distinct scores and some -1 padding."""
    ids = np.empty((batch, cand), dtype=np.int64)
    for row in range(batch):
        ids[row] = rng.choice(
            np.arange(1, width, dtype=np.int64), size=cand, replace=False
        )
    # Distinct scores across the whole batch: a random permutation of a
    # strictly increasing sequence, so ties are impossible.
    scores = rng.permutation(
        np.linspace(-3.0, 3.0, batch * cand)
    ).reshape(batch, cand).astype(np.float32)
    padded = rng.random((batch, cand)) < pad_rate
    padded[:, 0] = False  # keep at least one real candidate per row
    ids[padded] = -1
    scores[padded] = -np.inf
    return TopScores(ids, scores, width)


class TestTopScores:
    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            TopScores(np.arange(3), np.zeros(3), WIDTH)
        with pytest.raises(ValueError, match="matching"):
            TopScores(np.zeros((2, 3)), np.zeros((2, 4)), WIDTH)
        with pytest.raises(ValueError, match="width"):
            TopScores(np.zeros((2, 3)), np.zeros((2, 3)), 0)

    def test_shape_accessors(self):
        top = make_batch(np.random.default_rng(0))
        assert len(top) == 6
        assert top.candidates == 8
        assert top.width == WIDTH
        assert top.nbytes == top.ids.nbytes + top.scores.nbytes

    def test_row_is_view_copy_is_not(self):
        top = make_batch(np.random.default_rng(1))
        row = top.row(2)
        assert len(row) == 1
        assert row.ids.base is top.ids
        owned = top.copy()
        owned.scores[0, 0] = 42.0
        assert top.scores[0, 0] != 42.0

    def test_stack_inverts_row(self):
        top = make_batch(np.random.default_rng(2))
        rebuilt = TopScores.stack([top.row(i) for i in range(len(top))])
        np.testing.assert_array_equal(rebuilt.ids, top.ids)
        np.testing.assert_array_equal(rebuilt.scores, top.scores)
        assert rebuilt.width == top.width

    def test_stack_rejects_mismatched_shapes(self):
        a = make_batch(np.random.default_rng(3), cand=8).row(0)
        b = make_batch(np.random.default_rng(3), cand=9).row(0)
        with pytest.raises(ValueError, match="mismatched"):
            TopScores.stack([a, b])
        with pytest.raises(ValueError, match="zero rows"):
            TopScores.stack([])

    def test_to_dense_scatters_exactly(self):
        top = make_batch(np.random.default_rng(4))
        dense = top.to_dense()
        assert dense.shape == (len(top), WIDTH)
        assert np.isneginf(dense[:, 0]).all()
        for row in range(len(top)):
            real = top.ids[row] >= 1
            np.testing.assert_array_equal(
                dense[row, top.ids[row][real]], top.scores[row][real]
            )
            # Everything else is the -inf sentinel.
            mask = np.ones(WIDTH, dtype=bool)
            mask[top.ids[row][real]] = False
            assert np.isneginf(dense[row][mask]).all()

    def test_to_dense_into_provided_buffer(self):
        top = make_batch(np.random.default_rng(5))
        out = np.empty((len(top), WIDTH), dtype=np.float32)
        out.fill(7.0)
        result = top.to_dense(out=out)
        assert result is out
        np.testing.assert_array_equal(out, top.to_dense())
        with pytest.raises(ValueError, match="out must be"):
            top.to_dense(out=np.empty((1, WIDTH), dtype=np.float32))


class TestRankTopScores:
    """Bitwise identity with the dense ranking kernel."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_ranking(self, seed):
        top = make_batch(np.random.default_rng(seed))
        for top_n in (1, 3, 8):
            # Both kernels mark unrankable slots 0: whole arrays match.
            np.testing.assert_array_equal(
                rank_top_scores(top, top_n),
                rank_items_batch(top.to_dense().astype(np.float64), top_n),
            )

    def test_exclusions_match_dense(self):
        rng = np.random.default_rng(11)
        top = make_batch(rng, pad_rate=0.0)
        # Half of each row's 8 candidates plus random ids are excluded,
        # so only 4 remain for a top-5 list.
        exclude = [
            np.concatenate([
                rng.choice(ids, size=4, replace=False),
                rng.choice(np.arange(1, WIDTH), size=4, replace=False),
            ])
            for ids in top.ids
        ]
        np.testing.assert_array_equal(
            rank_top_scores(top, 5, exclude=exclude),
            rank_items_batch(
                top.to_dense().astype(np.float64), 5, exclude=exclude
            ),
        )

    def test_ties_break_by_ascending_id(self):
        # Exact ties are the one documented divergence from the dense
        # kernel (whose tie order is partition-dependent): narrow
        # ranking resolves them by ascending item id, deterministically.
        top = TopScores(
            np.array([[9, 3, 7]]), np.array([[1.0, 1.0, 2.0]]), WIDTH
        )
        np.testing.assert_array_equal(
            rank_top_scores(top, 3), [[7, 3, 9]]
        )

    def test_nan_rejected_even_when_excluded(self):
        top = TopScores(
            np.array([[2, 5]]), np.array([[np.nan, 1.0]]), WIDTH
        )
        with pytest.raises(NonFiniteScoresError):
            rank_top_scores(top, 2, exclude=[np.array([2])])
        ranked = rank_top_scores(
            top, 2, check_finite=False, exclude=[np.array([2])]
        )
        assert ranked[0, 0] == 5

    def test_padding_scores_never_checked_or_ranked(self):
        # -1 slots carry -inf by contract, but even a garbage payload
        # there must neither rank nor trip the finite check.
        top = TopScores(
            np.array([[4, -1]]), np.array([[0.5, np.nan]]), WIDTH
        )
        np.testing.assert_array_equal(rank_top_scores(top, 3), [[4, 0, 0]])

    def test_top_n_wider_than_candidates_pads_with_zero(self):
        top = TopScores(np.array([[3]]), np.array([[1.0]]), WIDTH)
        np.testing.assert_array_equal(
            rank_top_scores(top, 4), [[3, 0, 0, 0]]
        )
        with pytest.raises(ValueError, match="top_n"):
            rank_top_scores(top, 0)


class TestBatchedExclusion:
    """A batch of rows ranks exactly like one call per row."""

    @staticmethod
    def _per_row(top, top_n, exclude):
        return np.concatenate([
            rank_top_scores(top.row(row), top_n, exclude=[exclude[row]])
            for row in range(len(top))
        ])

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_equals_per_row_calls(self, seed):
        rng = np.random.default_rng(seed)
        top = make_batch(rng, batch=9, cand=12, pad_rate=0.3)
        exclude = [
            rng.choice(np.arange(1, WIDTH), size=int(size), replace=False)
            for size in rng.integers(0, 20, size=len(top))
        ]
        # Exclude real candidates too, not only random ids.
        for row in range(0, len(top), 2):
            real = top.ids[row][top.ids[row] >= 1]
            exclude[row] = np.concatenate([exclude[row], real[:3]])
        for top_n in (1, 5, 15):
            np.testing.assert_array_equal(
                rank_top_scores(top, top_n, exclude=exclude),
                self._per_row(top, top_n, exclude),
            )

    def test_padding_next_to_history_holding_the_last_item(self):
        # Row 1's -1 slots sit right after row 0 in key space; row 0's
        # history holds item num_items (= WIDTH - 1).  A stride of
        # ``width`` would alias them; neither may affect the other.
        last = WIDTH - 1
        top = TopScores(
            np.array([[last, 7, 3], [-1, 5, -1], [4, last, -1]]),
            np.array([[3.0, 2.0, 1.0], [-np.inf, 0.5, -np.inf],
                      [1.0, 2.0, -np.inf]]),
            WIDTH,
        )
        exclude = [
            np.array([last, 9]), np.array([last]), np.array([], np.int64)
        ]
        ranked = rank_top_scores(top, 3, exclude=exclude)
        np.testing.assert_array_equal(
            ranked, [[7, 3, 0], [5, 0, 0], [last, 4, 0]]
        )
        np.testing.assert_array_equal(
            ranked, self._per_row(top, 3, exclude)
        )

    def test_row_with_every_candidate_excluded(self):
        rng = np.random.default_rng(3)
        top = make_batch(rng, batch=3, cand=6, pad_rate=0.2)
        exclude = [np.array([1]), top.ids[1][top.ids[1] >= 1],
                   np.array([2, 3])]
        ranked = rank_top_scores(top, 4, exclude=exclude)
        assert (ranked[1] == 0).all()
        np.testing.assert_array_equal(
            ranked, self._per_row(top, 4, exclude)
        )

    def test_out_of_range_exclusions_are_ignored(self):
        # Ids outside the catalogue can never name a candidate; they
        # must not alias into a neighbouring row's key range either.
        top = TopScores(
            np.array([[1, 2], [3, 4]]), np.array([[2.0, 1.0], [2.0, 1.0]]),
            WIDTH,
        )
        for exclude in (
            # Row 1's -WIDTH would land on row 0's item 1.
            [np.array([0, -1]), np.array([-WIDTH, 0])],
            [np.array([WIDTH + 2, 10 * WIDTH]), np.array([WIDTH])],
        ):
            np.testing.assert_array_equal(
                rank_top_scores(top, 2, exclude=exclude), [[1, 2], [3, 4]]
            )

    def test_bad_top_n_rejected_before_any_work(self):
        # NaN scores would fail the finite check; the top_n check comes
        # first, so the error names top_n.
        top = TopScores(np.array([[2]]), np.array([[np.nan]]), WIDTH)
        with pytest.raises(ValueError, match="top_n"):
            rank_top_scores(top, 0)
