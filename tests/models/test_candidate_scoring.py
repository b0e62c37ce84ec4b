"""Candidate scoring from the model contract, across every model.

The re-rank half of the retrieval pipeline scores candidates from
``hidden_last`` and the ``output_head`` columns; that must return the
scores dense scoring would (same GEMM inputs, just fewer columns), and
the head must rebuild ``score_batch`` exactly.
"""

import numpy as np
import pytest

from repro.core import VSAN
from repro.models import Caser, GRU4Rec, SASRec, SVAE
from repro.serve import EngineConfig, InferenceEngine

NUM_ITEMS = 40
MAX_LENGTH = 10


def _histories(count=6, seed=3):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(1, NUM_ITEMS + 1, size=int(n)).astype(np.int64)
        for n in rng.integers(2, MAX_LENGTH + 3, size=count)
    ]


def _candidates(batch, per_row=9, seed=5):
    rng = np.random.default_rng(seed)
    return rng.integers(
        1, NUM_ITEMS + 1, size=(batch, per_row)
    ).astype(np.int64)


MODELS = [
    pytest.param(
        lambda: VSAN(NUM_ITEMS, MAX_LENGTH, dim=16, h1=1, h2=1, k=1,
                     seed=0),
        id="vsan",
    ),
    pytest.param(
        lambda: VSAN(NUM_ITEMS, MAX_LENGTH, dim=16, h1=1, h2=1, k=1,
                     tie_weights=True, seed=0),
        id="vsan-tied",
    ),
    pytest.param(
        lambda: SASRec(NUM_ITEMS, MAX_LENGTH, dim=16, num_blocks=1,
                       seed=0),
        id="sasrec-tied",
    ),
    pytest.param(
        lambda: SASRec(NUM_ITEMS, MAX_LENGTH, dim=16, num_blocks=1,
                       tie_weights=False, seed=0),
        id="sasrec",
    ),
    pytest.param(
        lambda: GRU4Rec(NUM_ITEMS, MAX_LENGTH, dim=16, seed=0),
        id="gru4rec",
    ),
    pytest.param(
        lambda: Caser(NUM_ITEMS, MAX_LENGTH, dim=16, window=3, seed=0),
        id="caser",
    ),
    pytest.param(
        lambda: SVAE(NUM_ITEMS, MAX_LENGTH, dim=16, seed=0),
        id="svae",
    ),
]


def _score_candidates(model, histories, candidates):
    """Reference re-rank: contract each hidden state against only the
    candidate columns of the output head."""
    weights, bias = model.output_head()
    hidden = model.hidden_last(histories)
    scores = np.einsum("bd,bcd->bc", hidden, weights.data.T[candidates])
    if bias is not None:
        scores = scores + bias.data[candidates]
    return scores


@pytest.mark.parametrize("build", MODELS)
class TestCandidateParity:
    def test_matches_dense_gather(self, build):
        model = build()
        model.eval()
        histories = _histories()
        candidates = _candidates(len(histories))
        dense = model.score_batch(histories)
        partial = _score_candidates(model, histories, candidates)
        gathered = np.take_along_axis(dense, candidates, axis=1)
        np.testing.assert_allclose(
            partial, gathered, rtol=0, atol=1e-5
        )

    def test_head_reconstructs_dense_scores(self, build):
        model = build()
        model.eval()
        assert model.supports_retrieval
        histories = _histories()
        weights, bias = model.output_head()
        hidden = model.hidden_last(histories)
        manual = hidden @ weights.data
        if bias is not None:
            manual = manual + bias.data
        dense = model.score_batch(histories)
        np.testing.assert_array_equal(manual[:, 1:], dense[:, 1:])

    def test_none_candidates_is_score_batch(self, build):
        # No candidate restriction (the engine without an index) serves
        # the model's own dense rows, bitwise.
        model = build()
        model.eval()
        histories = _histories(count=3)
        engine = InferenceEngine(model, EngineConfig(cache_capacity=0))
        np.testing.assert_array_equal(
            engine.score_batch(histories), model.score_batch(histories)
        )
        assert engine.snapshot()["retrieval"] is None


def test_vsan_sampling_disables_retrieval(tiny_corpus):
    model = VSAN(NUM_ITEMS, MAX_LENGTH, dim=16, h1=1, h2=1, k=1,
                 sample_at_eval=True, seed=0)
    assert not model.supports_retrieval
