"""Ranking metrics from Section V-C of the paper.

All three treat the recommendation list ``R_N`` (top-``N`` predicted
items) against the user's test set ``T``:

- ``Precision@N = |T ∩ R_N| / N``            (Eq. 21)
- ``Recall@N    = |T ∩ R_N| / |T|``          (Eq. 22)
- ``NDCG@N``: DCG with 1/log2(rank+1) gains over hits, normalized by the
  ideal DCG of min(|T|, N) hits (the definition of Sachdeva et al. that
  the paper adopts).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NonFiniteScoresError",
    "rank_items",
    "rank_items_batch",
    "rank_top_scores",
    "metrics_batch",
]


class NonFiniteScoresError(ValueError):
    """A score matrix contains NaN or ``+inf`` entries.

    NaN comparisons are unordered, so ``argpartition``/``argsort`` over
    NaN scores produce an arbitrary ranking instead of failing — a model
    that diverged would silently score garbage.  ``-inf`` is *not*
    flagged: it is the legitimate sentinel for "excluded item" (the
    padding slot and fold-in exclusions are set to ``-inf``).
    """


def rank_items(
    scores: np.ndarray,
    top_n: int,
    exclude: np.ndarray | None = None,
    check_finite: bool = True,
) -> np.ndarray:
    """Item ids of the ``top_n`` highest scores, best first.

    Args:
        scores: 1-D array indexed by item id (index 0 is the padding slot
            and is always excluded).
        top_n: list length.
        exclude: item ids to remove from consideration (e.g. the user's
            fold-in items).
        check_finite: raise :class:`NonFiniteScoresError` on NaN/``+inf``
            scores instead of ranking them arbitrarily.
    """
    exclude_lists = None if exclude is None else [exclude]
    return rank_items_batch(
        np.asarray(scores)[None, :], top_n, exclude=exclude_lists,
        check_finite=check_finite,
    )[0]


def rank_items_batch(
    scores: np.ndarray,
    top_n: int,
    exclude: list[np.ndarray] | None = None,
    check_finite: bool = True,
) -> np.ndarray:
    """Vectorized :func:`rank_items` over a ``(users, num_items + 1)``
    score matrix; one ``argpartition`` / ``argsort`` per chunk instead of
    a Python loop per user.

    Args:
        scores: 2-D scores, one row per user (index 0 = padding slot).
        top_n: list length.
        exclude: optional per-user item-id arrays to remove (e.g. each
            user's fold-in items).
        check_finite: raise :class:`NonFiniteScoresError` when any score
            is NaN or ``+inf`` (``-inf`` stays legal as the exclusion
            sentinel).  NaN comparisons are undefined for ranking, so
            without the guard a diverged model ranks garbage silently;
            pass ``False`` only when the caller has already validated.

    Returns:
        ``(users, top_n)`` integer matrix of ranked item ids, best first.
        Slots whose score is ``-inf`` (the padding slot, exclusions,
        retrieval misses) carry ``0``, the PAD id, and sink to the end
        of each row, exactly as in :func:`rank_top_scores`.
    """
    scores = np.asarray(scores, dtype=np.float64).copy()
    num_users = scores.shape[0]
    if check_finite:
        invalid = np.isnan(scores) | (scores == np.inf)
        if invalid.any():
            rows = np.unique(np.nonzero(invalid)[0])
            raise NonFiniteScoresError(
                f"scores contain {int(invalid.sum())} NaN/+inf entries "
                f"(rows {rows[:5].tolist()}"
                f"{'…' if len(rows) > 5 else ''}); pass "
                "check_finite=False to rank anyway"
            )
    scores[:, 0] = -np.inf
    if exclude is not None:
        if len(exclude) != num_users:
            raise ValueError(
                f"need one exclude list per user: {len(exclude)} != "
                f"{num_users}"
            )
        lengths = [len(items) for items in exclude]
        if any(lengths):
            rows = np.repeat(np.arange(num_users), lengths)
            cols = np.concatenate(
                [np.asarray(items, dtype=np.int64) for items in exclude]
            )
            scores[rows, cols] = -np.inf
    top_n = min(top_n, scores.shape[1] - 1)
    negated = -scores
    candidates = np.argpartition(negated, top_n, axis=1)[:, :top_n]
    candidate_scores = np.take_along_axis(negated, candidates, axis=1)
    order = np.argsort(candidate_scores, axis=1, kind="stable")
    ranked = np.take_along_axis(candidates, order, axis=1)
    ranked[np.take_along_axis(candidate_scores, order, axis=1) == np.inf] = 0
    return ranked


def rank_top_scores(
    top,
    top_n: int,
    exclude: list[np.ndarray] | None = None,
    check_finite: bool = True,
) -> np.ndarray:
    """Rank narrow candidate lists without materializing dense rows.

    The candidate-native twin of :func:`rank_items_batch`: operates on a
    :class:`repro.retrieval.TopScores` batch (C packed candidates per
    request) instead of a full-width score matrix, so ranking costs
    O(C log C) per request instead of O(|I|).  For distinct candidate
    scores the result is **identical** to running
    :func:`rank_items_batch` on the equivalent scattered full-width row
    (same float64 comparison values, same descending order, the same
    ``0`` in every unrankable slot); exact-score
    ties are broken by ascending item id here, where the dense path's
    tie order is partition-dependent — real model scores are continuous
    and never tie, which the equivalence tests pin.

    Args:
        top: :class:`repro.retrieval.TopScores` batch (``-1`` marks
            unused candidate slots).
        top_n: list length.
        exclude: optional per-request item-id arrays to remove (e.g.
            each user's own history / fold-in items).
        check_finite: raise :class:`NonFiniteScoresError` when any real
            candidate score is NaN or ``+inf`` — the same poison the
            dense path rejects, checked *before* exclusion masking so a
            degraded forward cannot hide behind an excluded candidate.

    Returns:
        ``(B, top_n)`` int64 ranked item ids, best first.  Slots beyond
        a request's rankable candidates carry ``0`` (the PAD id, which
        is never a real recommendation — callers strip or ignore it).
    """
    top_n = int(top_n)
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    ids = top.ids
    num_rows = ids.shape[0]
    valid = ids >= 1
    scores = np.where(valid, top.scores, -np.inf).astype(np.float64)
    if check_finite:
        invalid = np.isnan(scores) | (scores == np.inf)
        if invalid.any():
            rows = np.unique(np.nonzero(invalid)[0])
            raise NonFiniteScoresError(
                f"scores contain {int(invalid.sum())} NaN/+inf entries "
                f"(rows {rows[:5].tolist()}"
                f"{'…' if len(rows) > 5 else ''}); pass "
                "check_finite=False to rank anyway"
            )
    if exclude is not None:
        if len(exclude) != num_rows:
            raise ValueError(
                f"need one exclude list per request: {len(exclude)} != "
                f"{num_rows}"
            )
        lengths = [len(items) for items in exclude]
        if any(lengths):
            items = np.concatenate(
                [np.asarray(items, dtype=np.int64) for items in exclude]
            )
            rows = np.repeat(np.arange(num_rows), lengths)
            # Ids below 1 name no rankable candidate.
            keep = items >= 1
            items, rows = items[keep], rows[keep]
            if items.size:
                # One membership test for every row, over the keys
                # ``row * stride + id``.  The stride exceeds every id by
                # two or more (``width + 1`` in the usual case), so no
                # key of one row, -1 slots included, equals another's.
                stride = max(top.width, int(ids.max(initial=0)) + 1,
                             int(items.max()) + 1) + 1
                keys = np.sort(rows * stride + items)
                cand = np.arange(num_rows)[:, None] * stride + ids
                found = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
                scores[keys[found] == cand] = -np.inf
    # Primary key: descending score; secondary: ascending item id.  -1
    # padding and exclusions sit at -inf and sink to the back, where the
    # 0-fill below marks them unrankable.
    order = np.lexsort((ids, -scores))
    ranked = np.take_along_axis(ids, order, axis=1)
    ranked[np.take_along_axis(scores, order, axis=1) == -np.inf] = 0
    if ranked.shape[1] >= top_n:
        return np.ascontiguousarray(ranked[:, :top_n])
    padded = np.zeros((num_rows, top_n), dtype=np.int64)
    padded[:, :ranked.shape[1]] = ranked
    return padded


def metrics_batch(
    ranked: np.ndarray,
    target_lists: list[np.ndarray],
    cutoffs: tuple[int, ...],
    num_columns: int,
) -> dict[str, np.ndarray]:
    """Per-user ndcg/recall/precision at each cutoff, fully vectorized.

    Args:
        ranked: ``(users, top_n)`` ranked item ids from
            :func:`rank_items_batch` with ``top_n >= max(cutoffs)``.
        target_lists: each user's relevant item ids (non-empty).
        cutoffs: the ``N`` values.
        num_columns: width of the score matrix (``num_items + 1``), used
            to build the relevance lookup.

    Returns:
        ``{"ndcg@N" | "recall@N" | "precision@N": (users,) array}``.
    """
    ranked = np.asarray(ranked)
    num_users, top_n = ranked.shape
    if not np.issubdtype(ranked.dtype, np.integer):
        raise ValueError(
            f"ranked lists must hold integer item ids, got {ranked.dtype} "
            "(a non-finite score matrix ranked upstream?)"
        )
    if ranked.size and (
        ranked.min() < 0 or ranked.max() >= num_columns
    ):
        raise ValueError(
            f"ranked item ids must lie in [0, {num_columns}); got range "
            f"[{int(ranked.min())}, {int(ranked.max())}]"
        )
    lengths = np.array([len(t) for t in target_lists], dtype=np.int64)
    if len(target_lists) != num_users:
        raise ValueError("need one target list per user")
    if (lengths == 0).any():
        raise ValueError("relevant set must be non-empty")
    relevant = np.zeros((num_users, num_columns), dtype=bool)
    rows = np.repeat(np.arange(num_users), lengths)
    cols = np.concatenate(
        [np.asarray(t, dtype=np.int64) for t in target_lists]
    )
    relevant[rows, cols] = True
    # |T| of Eq. 22 is a set size: a repeated target id counts once.
    sizes = np.count_nonzero(relevant, axis=1)
    hits = np.take_along_axis(relevant, ranked, axis=1)

    max_cutoff = max(cutoffs)
    gains = 1.0 / np.log2(np.arange(max_cutoff) + 2.0)
    # ideal_dcg[k] = DCG of k leading hits.
    ideal_dcg = np.concatenate([[0.0], np.cumsum(gains)])

    out: dict[str, np.ndarray] = {}
    for n in cutoffs:
        n_eff = min(n, top_n)
        top_hits = hits[:, :n_eff]
        hit_counts = top_hits.sum(axis=1)
        dcg = (top_hits * gains[:n_eff]).sum(axis=1)
        idcg = ideal_dcg[np.minimum(sizes, n)]
        out[f"ndcg@{n}"] = dcg / idcg
        out[f"recall@{n}"] = hit_counts / sizes
        out[f"precision@{n}"] = hit_counts / n
    return out
