"""Working memory of the index build and the re-rank.

The build streams the catalogue through blocks of at most
``ASSIGN_CHUNK_BYTES`` (the k-means assignment and the int8 encode),
and the item table is one allocation; the re-rank gathers candidate
rows into one grow-only block.  These tests pin the memory each of
those holds and that streaming changes no bit of the result.
"""

import tracemalloc

import numpy as np
import pytest

from repro.models import SASRec
from repro.retrieval import IndexConfig, IVFIndex, RetrievalEngine
from repro.retrieval import index as index_module
from repro.serve import EngineConfig, InferenceEngine
from repro.tensor import Tensor, set_default_dtype
from repro.tensor.random import make_rng


@pytest.fixture(scope="module", autouse=True)
def float32_default():
    previous = set_default_dtype(np.float32)
    yield
    set_default_dtype(previous)


def _one_shot_codes(vectors, quant):
    q_min, q_step = quant
    return np.clip(
        np.rint((vectors - q_min) / q_step), 0, 255
    ).astype(np.uint8)


class _HeadModel:
    """Retrieval-capable stub holding a float32 ``(d, N + 1)`` head and
    bias, laid out as a model stores them."""

    name = "head"
    supports_retrieval = True

    def __init__(self, num_items, dim, seed=0):
        rng = make_rng(seed)
        centers = rng.standard_normal((32, dim)) * 2.0
        assign = rng.integers(0, 32, size=num_items + 1)
        self.weight = Tensor(np.ascontiguousarray((
            centers[assign]
            + 0.2 * rng.standard_normal((num_items + 1, dim))
        ).T.astype(np.float32)))
        self.bias = Tensor(
            rng.standard_normal(num_items + 1).astype(np.float32)
        )

    def output_head(self):
        return self.weight, self.bias


class TestStreamedEncode:
    """Codes streamed through the block are bitwise the one-shot
    expression's, over three or more chunks and a ragged tail."""

    @pytest.fixture
    def vectors(self):
        # Wide enough that update vectors fall outside the trained
        # range and clip.
        rng = make_rng(3)
        return (rng.standard_normal((600, 12)) * 2.0).astype(np.float32)

    @pytest.fixture(autouse=True)
    def seven_row_blocks(self, monkeypatch):
        # 12 float32 columns: 7 rows a block, so 600 rows are 85 chunks
        # and a tail of 5, and 50 update rows 7 chunks and a tail of 1.
        monkeypatch.setattr(index_module, "ASSIGN_CHUNK_BYTES", 7 * 12 * 4)

    def test_build_codes_match_one_shot(self, vectors):
        ids = np.arange(1, len(vectors) + 1, dtype=np.int64)
        index = IVFIndex.build(
            vectors, ids, IndexConfig(nlist=8, quantize="int8", seed=0)
        )
        want = _one_shot_codes(vectors, index.quant)[index._ids - 1]
        assert index._vectors.dtype == np.uint8
        assert index._vectors.tobytes() == want.tobytes()

    def test_update_codes_match_one_shot(self, vectors):
        ids = np.arange(1, len(vectors) + 1, dtype=np.int64)
        index = IVFIndex.build(
            vectors, ids, IndexConfig(nlist=8, quantize="int8", seed=0)
        )
        rng = make_rng(4)
        changed = rng.choice(ids, size=50, replace=False)
        fresh = (rng.standard_normal((50, 12)) * 4.0).astype(np.float32)
        index.update(fresh, changed)
        where = np.argsort(index._ids)[changed - 1]  # ids are 1..n
        want = _one_shot_codes(fresh, index.quant)
        assert (want == 0).any() and (want == 255).any()  # clipped
        assert index._vectors[where].tobytes() == want.tobytes()


class TestBuildMemory:
    def test_transient_is_blocks_not_catalogue(self, monkeypatch):
        """Building an int8 engine holds, beyond what it keeps, at most
        two assignment blocks, the k-means train sample, one encode
        block and a few per-item int64 vectors: no temporary scales
        with the catalogue's ``N × d`` floats."""
        num_items, dim, block = 40_000, 32, 256 << 10
        monkeypatch.setattr(index_module, "ASSIGN_CHUNK_BYTES", block)
        config = IndexConfig(nlist=64, nprobe=4, candidates=32,
                             quantize="int8", kmeans_iters=2, seed=0)
        model = _HeadModel(num_items, dim)
        tracemalloc.start()
        try:
            engine = RetrievalEngine(model, config)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        width = dim + 1  # the bias column
        train = min(config.train_sample, num_items) * width * 4
        slack = 4 * num_items * 8 + (64 << 10)
        assert engine.index.quant is not None
        assert peak - retained <= 2 * block + train + block + slack
        # The table, codes and ids are what the engine keeps.
        assert retained >= num_items * width * (4 + 1)


class TestRerankBlock:
    NUM_ITEMS, MAX_LENGTH = 60, 12
    CONFIG = IndexConfig(nlist=6, nprobe=2, candidates=16, seed=0)

    @pytest.fixture(scope="class")
    def model(self):
        return SASRec(self.NUM_ITEMS, self.MAX_LENGTH, dim=16, num_blocks=1,
                      seed=0, tie_weights=False)

    @pytest.fixture(scope="class")
    def histories(self):
        rng = np.random.default_rng(9)
        return [
            rng.integers(1, self.NUM_ITEMS + 1, size=int(n)).astype(np.int64)
            for n in rng.integers(2, self.MAX_LENGTH + 4, size=12)
        ]

    def test_calls_reuse_one_block(self, model, histories):
        engine = RetrievalEngine(model, self.CONFIG)
        scratch = engine.index._scratch
        first = engine.score_topk(histories[:8])
        ids, scores = first.ids.copy(), first.scores.copy()
        block = scratch["rerank"]
        second = engine.score_topk(histories[8:11])
        assert scratch["rerank"] is block
        assert not np.shares_memory(second.scores, block)
        rows = np.maximum(second.ids - 1, 0)  # the gather landed there
        width = engine._items.shape[1]
        np.testing.assert_array_equal(
            block[:rows.size * width].reshape(*rows.shape, width),
            engine._items[rows],
        )
        np.testing.assert_array_equal(first.ids, ids)
        np.testing.assert_array_equal(first.scores, scores)
        engine.score_topk(histories)  # 12 rows: the block grows
        assert scratch["rerank"].size > block.size

    def test_cache_entries_survive_later_windows(self, model, histories):
        engine = InferenceEngine(model, EngineConfig(index=self.CONFIG))
        engine.score_batch(histories[:8])
        entries = {
            key: (entry.ids.copy(), entry.scores.copy())
            for key, entry in engine.cache._entries.items()
        }
        assert entries
        engine.score_batch(histories[8:11])
        for key, (ids, scores) in entries.items():
            entry = engine.cache._entries[key]
            np.testing.assert_array_equal(entry.ids, ids)
            np.testing.assert_array_equal(entry.scores, scores)
