"""Paired significance testing between two recommenders.

The paper reports averages over five runs and asserts the error is
negligible; this module provides the machinery to make such claims
checkable: per-user metric extraction plus a paired bootstrap over
held-out users.

    per_a = per_user_metric(model_a, heldout, "ndcg@10")
    per_b = per_user_metric(model_b, heldout, "ndcg@10")
    report = paired_bootstrap(per_a, per_b, rng)
    if report.significant:
        ...
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.splits import FoldInUser
from .evaluator import evaluate_per_user

__all__ = ["per_user_metric", "BootstrapReport", "paired_bootstrap"]


def _parse_metric(name: str) -> tuple[str, int]:
    metric, _, cutoff = name.partition("@")
    if metric not in ("ndcg", "recall", "precision") or not cutoff.isdigit():
        raise ValueError(
            f"metric must look like 'ndcg@10' / 'recall@20' / "
            f"'precision@10', got {name!r}"
        )
    return metric, int(cutoff)


def per_user_metric(
    recommender,
    heldout: list[FoldInUser],
    metric: str,
    exclude_fold_in: bool = True,
    batch_size: int = 64,
) -> np.ndarray:
    """One metric value per held-out user: the values
    :func:`repro.eval.evaluate_recommender` averages."""
    name, cutoff = _parse_metric(metric)
    return evaluate_per_user(
        recommender, heldout, cutoffs=(cutoff,),
        exclude_fold_in=exclude_fold_in, batch_size=batch_size,
    )[f"{name}@{cutoff}"]


@dataclass
class BootstrapReport:
    """Result of a paired bootstrap comparison (A minus B)."""

    mean_difference: float
    ci_low: float
    ci_high: float
    p_value: float
    num_users: int
    num_resamples: int

    @property
    def significant(self) -> bool:
        """True when the (two-sided) confidence interval excludes zero."""
        return self.ci_low > 0.0 or self.ci_high < 0.0

    def __repr__(self) -> str:
        return (
            f"BootstrapReport(diff={self.mean_difference:+.4f} "
            f"[{self.ci_low:+.4f}, {self.ci_high:+.4f}], "
            f"p={self.p_value:.3f}, users={self.num_users})"
        )


def paired_bootstrap(
    values_a: np.ndarray,
    values_b: np.ndarray,
    rng: np.random.Generator,
    num_resamples: int = 2000,
    confidence: float = 0.95,
) -> BootstrapReport:
    """Paired bootstrap over users for the difference A − B.

    Args:
        values_a, values_b: per-user metric values, same users in the
            same order (from :func:`per_user_metric`).
        rng: resampling generator.
        num_resamples: bootstrap iterations.
        confidence: two-sided confidence level for the interval.

    Returns:
        A :class:`BootstrapReport` with the mean difference, percentile
        confidence interval, and a two-sided sign-flip p-value.
    """
    values_a = np.asarray(values_a, dtype=np.float64)
    values_b = np.asarray(values_b, dtype=np.float64)
    if values_a.shape != values_b.shape or values_a.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D arrays")
    if len(values_a) < 2:
        raise ValueError("need at least two paired users")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    differences = values_a - values_b
    n = len(differences)
    resampled = np.empty(num_resamples)
    for i in range(num_resamples):
        sample = differences[rng.integers(0, n, size=n)]
        resampled[i] = sample.mean()
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(resampled, [alpha, 1.0 - alpha])
    observed = differences.mean()
    # Two-sided p: how often a bootstrap mean falls on the far side of 0.
    tail = min(
        (resampled <= 0).mean(), (resampled >= 0).mean()
    )
    return BootstrapReport(
        mean_difference=float(observed),
        ci_low=float(low),
        ci_high=float(high),
        p_value=float(min(1.0, 2.0 * tail)),
        num_users=n,
        num_resamples=num_resamples,
    )
