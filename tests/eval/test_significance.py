"""Per-user metrics and the paired bootstrap."""

import numpy as np
import pytest

from repro.data.splits import FoldInUser
from repro.eval import evaluate_recommender
from repro.eval.significance import (
    BootstrapReport,
    paired_bootstrap,
    per_user_metric,
)
from repro.models import SASRec
from repro.retrieval import IndexConfig, TopScores
from repro.serve import EngineConfig, InferenceEngine
from repro.tensor import set_default_dtype


class ConstantRecommender:
    def __init__(self, num_items):
        self.num_items = num_items

    def score_batch(self, histories):
        scores = np.arange(self.num_items + 1, dtype=float)
        return np.tile(scores, (len(histories), 1))


def make_heldout(num_users=10, num_items=30):
    rng = np.random.default_rng(0)
    users = []
    for uid in range(num_users):
        items = rng.choice(np.arange(1, num_items + 1), size=8,
                           replace=False)
        users.append(
            FoldInUser(user_id=uid, fold_in=items[:6], targets=items[6:])
        )
    return users


class TestPerUserMetric:
    def test_mean_matches_evaluator(self):
        heldout = make_heldout()
        model = ConstantRecommender(30)
        per_user = per_user_metric(model, heldout, "ndcg@10")
        aggregate = evaluate_recommender(model, heldout)["ndcg@10"]
        np.testing.assert_allclose(per_user.mean(), aggregate)

    def test_one_value_per_user(self):
        heldout = make_heldout(num_users=7)
        values = per_user_metric(
            ConstantRecommender(30), heldout, "recall@20"
        )
        assert values.shape == (7,)

    def test_bad_metric_name(self):
        with pytest.raises(ValueError, match="metric"):
            per_user_metric(ConstantRecommender(5), make_heldout(), "mrr@10")

    def test_candidate_native_engine_matches_evaluator_bitwise(self):
        # An IVF-backed engine answers with narrow TopScores batches,
        # some shorter than the cutoff after fold-in exclusion.
        previous = set_default_dtype(np.float32)
        try:
            model = SASRec(60, 12, dim=16, num_blocks=1, seed=0,
                           tie_weights=False)
            engine = InferenceEngine(model, EngineConfig(
                index=IndexConfig(nlist=6, nprobe=2, candidates=16, seed=0)
            ))
            heldout = make_heldout(num_users=20, num_items=60)
            assert isinstance(
                engine.score_batch([heldout[0].fold_in]), TopScores
            )
            aggregate = evaluate_recommender(engine, heldout)
            for metric, mean in aggregate.values.items():
                values = per_user_metric(engine, heldout, metric)
                assert values.shape == (20,)
                assert values.sum() / len(heldout) == mean
        finally:
            set_default_dtype(previous)


class TestPairedBootstrap:
    def test_detects_clear_difference(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.5, 0.05, size=100)
        b = a - 0.2  # A clearly better
        report = paired_bootstrap(a, b, np.random.default_rng(2))
        assert report.significant
        assert report.ci_low > 0
        assert report.mean_difference == pytest.approx(0.2, abs=1e-9)
        assert report.p_value < 0.05

    def test_no_difference_is_insignificant(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.5, 0.1, size=100)
        b = a + rng.normal(0.0, 0.1, size=100)  # pure noise
        report = paired_bootstrap(a, b, np.random.default_rng(4))
        assert not report.significant
        assert report.ci_low < 0 < report.ci_high

    def test_deterministic_given_rng(self):
        a = np.linspace(0, 1, 50)
        b = a[::-1]
        r1 = paired_bootstrap(a, b, np.random.default_rng(5))
        r2 = paired_bootstrap(a, b, np.random.default_rng(5))
        assert r1 == r2

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="equal-length"):
            paired_bootstrap(np.zeros(3), np.zeros(4), rng)
        with pytest.raises(ValueError, match="two paired"):
            paired_bootstrap(np.zeros(1), np.zeros(1), rng)
        with pytest.raises(ValueError, match="confidence"):
            paired_bootstrap(np.zeros(5), np.ones(5), rng, confidence=1.5)

    def test_repr(self):
        report = BootstrapReport(0.1, 0.05, 0.15, 0.01, 100, 2000)
        assert "diff=+0.1000" in repr(report)
