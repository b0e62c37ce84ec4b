"""Evaluation: the paper's metrics and held-out-user protocol."""

from .evaluator import EvaluationResult, evaluate_recommender
from .inspection import (
    PosteriorSummary,
    attention_map,
    history_diversity,
    posterior_summary,
)
from .significance import (
    BootstrapReport,
    paired_bootstrap,
    per_user_metric,
)
from .metrics import (
    NonFiniteScoresError,
    metrics_batch,
    rank_items,
    rank_items_batch,
)

__all__ = [
    "EvaluationResult",
    "NonFiniteScoresError",
    "PosteriorSummary",
    "BootstrapReport",
    "attention_map",
    "evaluate_recommender",
    "history_diversity",
    "metrics_batch",
    "paired_bootstrap",
    "per_user_metric",
    "posterior_summary",
    "rank_items",
    "rank_items_batch",
]
