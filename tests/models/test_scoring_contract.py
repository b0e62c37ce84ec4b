"""The two-hook model contract: a subclass that defines only ``encode``
and ``output_head`` gets training, compiled scoring and retrieval
serving from :class:`NeuralSequentialRecommender` with no other code."""

import numpy as np
import pytest

from repro.data import PAD_ID, pad_left
from repro.models.base import NeuralSequentialRecommender
from repro.nn import Embedding, Linear
from repro.retrieval import IndexConfig, TopScores
from repro.serve import EngineConfig, InferenceEngine
from repro.tensor import Tensor
from repro.train import Trainer, TrainerConfig

MAX_LENGTH = 6


class ToyModel(NeuralSequentialRecommender):
    """Item embedding plus one ``Linear``; the head is either the tied
    item table or a separate biased ``Linear``."""

    name = "Toy"

    def __init__(self, num_items, max_length, dim=8, tied=False, seed=0):
        super().__init__(num_items, max_length)
        rng = np.random.default_rng(seed)
        self.tied = tied
        self.item_embedding = Embedding(
            num_items + 1, dim, rng, padding_idx=PAD_ID
        )
        self.mix = Linear(dim, dim, rng)
        if not tied:
            self.output = Linear(dim, num_items + 1, rng)

    def encode(self, padded: np.ndarray) -> Tensor:
        return self.mix(self.item_embedding(padded))

    def output_head(self):
        if self.tied:
            return self.item_embedding.weight.T, None
        return self.output.weight, self.output.bias


@pytest.fixture(params=[False, True], ids=["untied", "tied"])
def toy(request, tiny_corpus):
    return ToyModel(tiny_corpus.num_items, MAX_LENGTH, tied=request.param)


def _histories(num_items, count=5, seed=1):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(1, num_items + 1, size=int(n)).astype(np.int64)
        for n in rng.integers(1, MAX_LENGTH + 3, size=count)
    ]


def test_trains_with_trainer(toy, tiny_corpus):
    before = {name: p.data.copy() for name, p in toy.named_parameters()}
    history = Trainer(
        TrainerConfig(epochs=3, batch_size=16, learning_rate=0.01)
    ).fit(toy, tiny_corpus)
    assert np.isfinite(history.losses).all()
    assert history.losses[-1] < history.losses[0]
    changed = [
        name for name, p in toy.named_parameters()
        if not np.array_equal(p.data, before[name])
    ]
    assert "mix.weight" in changed


def test_score_batch_is_last_position_of_forward_scores(toy, tiny_corpus):
    histories = _histories(tiny_corpus.num_items)
    scores = toy.score_batch(histories)
    padded = np.stack([pad_left(h, MAX_LENGTH) for h in histories])
    full = toy.forward_scores(padded).numpy()[:, -1, :].copy()
    full[:, 0] = -np.inf
    np.testing.assert_array_equal(scores, full)


def test_serves_through_retrieval(toy, tiny_corpus):
    num_items = tiny_corpus.num_items
    index = IndexConfig(nlist=4, nprobe=2, candidates=8, seed=0)
    engine = InferenceEngine(toy, EngineConfig(index=index))
    histories = _histories(num_items, count=7, seed=2)
    top = engine.score_batch(histories)
    assert isinstance(top, TopScores)
    assert engine.snapshot()["retrieval"]["narrow_batches"] == 7
    dense = toy.score_batch(histories)
    real = top.ids >= 1
    assert real.any(axis=1).all()
    # The index keeps a float32 copy of the head, so re-ranked scores
    # match the dense row to float32 rounding.
    np.testing.assert_allclose(
        top.scores[real],
        np.take_along_axis(dense, np.maximum(top.ids, 0), axis=1)[real],
        rtol=0, atol=1e-5,
    )
