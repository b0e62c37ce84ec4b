"""Held-out-user evaluation implementing the paper's protocol.

For each held-out user the first 80% of their history (the *fold-in*
portion, already split by :mod:`repro.data.splits`) is shown to the
model, which scores every item; the last 20% are the relevance targets.
Items from the fold-in portion are excluded from the ranked list, as in
the SVAE protocol the paper follows.  Metrics are averaged over users.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.splits import FoldInUser
from ..retrieval.narrow import TopScores
from ..tensor import no_grad
from .metrics import metrics_batch, rank_items_batch, rank_top_scores

__all__ = ["EvaluationResult", "evaluate_per_user", "evaluate_recommender"]


@dataclass
class EvaluationResult:
    """Average metric values keyed like ``ndcg@10`` / ``recall@20``."""

    values: dict[str, float] = field(default_factory=dict)
    num_users: int = 0

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def as_percentages(self) -> dict[str, float]:
        """The paper reports all metrics in percentage points."""
        return {key: 100.0 * value for key, value in self.values.items()}

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{key}={100 * value:.3f}%" for key, value in sorted(self.values.items())
        )
        return f"EvaluationResult({parts}, users={self.num_users})"


def evaluate_per_user(
    recommender,
    heldout: list[FoldInUser],
    cutoffs: tuple[int, ...] = (10, 20),
    exclude_fold_in: bool = True,
    batch_size: int = 64,
    check_finite: bool = True,
) -> dict[str, np.ndarray]:
    """Score every held-out user and return the Section V-C metrics per
    user, ``{"ndcg@N" | "recall@N" | "precision@N": (users,) array}`` in
    ``heldout`` order.

    Args:
        recommender: any object with ``score_batch(histories)`` returning
            an ``(len(histories), num_items + 1)`` score matrix (see
            :class:`repro.models.base.Recommender`).
        heldout: fold-in/target users from the strong-generalization split.
        cutoffs: the ``N`` values (paper: 10 and 20).
        exclude_fold_in: drop already-seen items from the ranked list.
        batch_size: users scored per forward pass.
        check_finite: raise
            :class:`repro.eval.metrics.NonFiniteScoresError` when a model
            emits NaN/``+inf`` scores instead of ranking them silently.
    """
    if not heldout:
        raise ValueError("no held-out users to evaluate")
    max_cutoff = max(cutoffs)
    parts: dict[str, list[np.ndarray]] = {
        f"{metric}@{n}": []
        for metric in ("ndcg", "recall", "precision")
        for n in cutoffs
    }
    for start in range(0, len(heldout), batch_size):
        chunk = heldout[start:start + batch_size]
        # Evaluation never backpropagates: disable graph construction so
        # custom recommenders that don't guard their own forward pass
        # still allocate no tape (the ranking below is pure numpy).
        with no_grad():
            scores = recommender.score_batch(
                [user.fold_in for user in chunk]
            )
        # Ranking and metric accumulation are vectorized over the whole
        # scored chunk — one argpartition/argsort and one relevance
        # lookup instead of a per-user Python loop.  A candidate-native
        # recommender (narrow InferenceEngine) returns packed
        # ``TopScores`` instead of a full-width matrix; ranking then
        # stays O(C log C) per user.  Both rankers mark unrankable
        # slots 0, which never hits a target.
        exclude = (
            [user.fold_in for user in chunk] if exclude_fold_in else None
        )
        if isinstance(scores, TopScores):
            width = scores.width
            ranked = rank_top_scores(
                scores, max_cutoff, exclude=exclude,
                check_finite=check_finite,
            )
        else:
            scores = np.asarray(scores, dtype=np.float64)
            width = scores.shape[1]
            ranked = rank_items_batch(
                scores, max_cutoff, exclude=exclude,
                check_finite=check_finite,
            )
        per_user = metrics_batch(
            ranked,
            [user.targets for user in chunk],
            cutoffs,
            width,
        )
        for key, values in per_user.items():
            parts[key].append(values)
    return {key: np.concatenate(chunks) for key, chunks in parts.items()}


def evaluate_recommender(
    recommender,
    heldout: list[FoldInUser],
    cutoffs: tuple[int, ...] = (10, 20),
    exclude_fold_in: bool = True,
    batch_size: int = 64,
    check_finite: bool = True,
) -> EvaluationResult:
    """Average the per-user metrics of :func:`evaluate_per_user` (same
    arguments) over the held-out users.

    The per-user values are reduced once over all users, so the result
    is bit-identical for every ``batch_size``.
    """
    per_user = evaluate_per_user(
        recommender, heldout, cutoffs=cutoffs,
        exclude_fold_in=exclude_fold_in, batch_size=batch_size,
        check_finite=check_finite,
    )
    count = len(heldout)
    return EvaluationResult(
        values={
            key: float(values.sum()) / count
            for key, values in per_user.items()
        },
        num_users=count,
    )
