"""Two-stage scoring: IVF candidate retrieval + exact re-rank.

:meth:`RetrievalEngine.score_topk` replaces a model's dense
``score_batch`` with

1. ``hidden_last`` — the model's final hidden state (unchanged cost),
2. :meth:`IVFIndex.search` — approximate top-C candidate ids, and
3. an **exact** re-rank of just those C items against a contiguous
   copy of the model's output head (the same ``hidden @ W (+ b)``
   arithmetic, laid out for sequential gathers).

The result is narrow and candidate-native
(:class:`~repro.retrieval.narrow.TopScores`: C packed ids + exact
scores per request, ~768 bytes at C=64).  The serving stack consumes it
end to end — micro-batcher fan-out, byte-budget score cache, and
service ranking all operate on the packed pair, and no full-width row
is built on the hot path.  :meth:`TopScores.to_dense` gives the
full-width view (``-inf`` outside the candidates) where a test or tool
needs one.

Bias handling uses the classic MIPS augmentation: an output head
``h·w_i + b_i`` becomes a pure inner product by appending ``b_i`` as an
extra coordinate of every item vector and ``1.0`` to every query — the
index then ranks by exactly the quantity the model scores with.

Every configuration builds an index; ``nprobe >= nlist`` simply scans
every list.  Dense scoring that is bitwise equal to the model's own
``score_batch`` is the engine without an index
(``EngineConfig(index=None)``), not a mode of this class.
"""

from __future__ import annotations

import numpy as np

from ..tensor import no_grad
from .index import IndexConfig, IVFIndex
from .narrow import TopScores

__all__ = ["RetrievalEngine"]

# Items per block when :meth:`RetrievalEngine.refresh` diffs a new head
# against the indexed table: a block of both layouts stays in cache,
# where one strided compare over the whole table does not.
_DIFF_BLOCK = 1024


class RetrievalEngine:
    """Candidate-retrieval scoring wrapper around one model.

    Args:
        model: a recommender with ``supports_retrieval`` truthy (its
            ``output_head`` / ``hidden_last`` hooks must be functional).
        config: see :class:`IndexConfig`.

    Raises:
        ValueError: if the model does not support retrieval (callers
            that want graceful fallback check ``supports_retrieval``
            first — :class:`repro.serve.engine.InferenceEngine` does).
    """

    def __init__(self, model, config: IndexConfig):
        self._model = model
        self.config = config
        items, self._has_bias = self._item_table(model)
        self.num_items = items.shape[0]
        # Kept contiguous for the re-rank: gathering C rows per query
        # from this table touches C·d sequential floats, whereas
        # gathering columns of the live (d, |I|) head strides across the
        # full table per element — at catalogue scale that one layout
        # difference is most of the re-rank cost.
        self._items = items
        self.narrow_batches = 0
        self.refreshes = 0
        self.rebuilds = 0
        self.index = IVFIndex.build(
            items, np.arange(1, self.num_items + 1, dtype=np.int64), config
        )

    @staticmethod
    def _head(model) -> tuple[np.ndarray, np.ndarray | None]:
        """``model``'s output head as arrays: the ``(d, |I|+1)`` weight
        and the ``(|I|+1,)`` bias (or ``None``).

        Raises:
            ValueError: if the model lacks the retrieval hooks (callers
                that want graceful fallback check ``supports_retrieval``
                first — :class:`repro.serve.engine.InferenceEngine`
                does).
        """
        if not getattr(model, "supports_retrieval", False):
            raise ValueError(
                f"{getattr(model, 'name', type(model).__name__)} does not "
                "support retrieval (supports_retrieval is falsy)"
            )
        with no_grad():  # a tied head's transpose must not build tape
            weights, bias = model.output_head()
        return weights.data, None if bias is None else bias.data

    @classmethod
    def _item_table(cls, model) -> tuple[np.ndarray, bool]:
        """The (bias-augmented) item-vector table of ``model``'s output
        head — what the index partitions and the re-rank gathers from."""
        weights, bias = cls._head(model)
        # Rows 1..N of the transposed head are the item vectors; index 0
        # is PAD and must never be retrievable.
        vectors = weights.T[1:]
        if bias is None:
            return np.ascontiguousarray(vectors, dtype=np.float32), False
        # One (N, d + 1) allocation, the bias its last column: no
        # transposed copy to concatenate.
        items = np.empty(
            (vectors.shape[0], vectors.shape[1] + 1), dtype=np.float32
        )
        items[:, :-1] = vectors
        items[:, -1] = bias[1:]
        return items, True

    def score_topk(self, histories) -> TopScores:
        """Narrow candidate-native scores: C packed ids + exact scores
        per request, no full-width materialization.

        The returned arrays are freshly allocated (tiny: ``C`` int64 +
        ``C`` float32 per request) and owned by the caller.
        """
        hidden = self._model.hidden_last(histories)
        queries = self.augment_queries(hidden)
        cand = self.index.search(queries)
        # Exact re-rank: the candidates' rows of the (bias-augmented)
        # head, one batched (C, d) @ (d,) product per query.  -1 marks
        # slots whose probed lists held fewer than C items; they gather
        # row 0 here and are masked to -inf below so no consumer can
        # ever rank (or cache-poison on) a padding slot's garbage.  The
        # rows land in the index's grow-only scratch, so a window
        # allocates no (B, C, d) copy of them (``mode="clip"``: they are
        # in range, and the default mode fills a fresh temporary the
        # size of ``out``).
        rows = np.maximum(cand - 1, 0)
        gathered = self.index._buffer(
            "rerank", (*rows.shape, self._items.shape[1]), np.float32
        )
        np.take(self._items, rows, axis=0, out=gathered, mode="clip")
        scores = np.matmul(gathered, queries[:, :, None])[:, :, 0]
        scores[cand < 1] = -np.inf
        self.narrow_batches += len(histories)
        return TopScores(cand, scores, self.num_items + 1)

    def augment_queries(self, hidden: np.ndarray) -> np.ndarray:
        """Index-space query vectors for ``(B, d)`` hidden states — a
        ``1.0`` coordinate is appended when the head has a bias (the
        MIPS bias-augmentation; no-op for bias-free heads)."""
        if not self._has_bias:
            return hidden
        return np.concatenate(
            [hidden, np.ones((hidden.shape[0], 1), dtype=hidden.dtype)],
            axis=1,
        )

    def refresh(self, model) -> dict:
        """Adopt a hot-swapped model without a full index rebuild.

        Diffs the new model's output head, in its native ``(d, |I|+1)``
        layout and in blocks of items, against the table currently
        indexed, patches only the changed rows of that table, and
        reassigns only the changed item vectors to their nearest existing
        centroids
        (:meth:`IVFIndex.update`) — a rollout at catalogue scale pays
        O(changed) assignment work instead of a k-means re-run.  Once
        cumulative churn since the last build reaches
        ``config.rebuild_threshold`` (the staleness knob), the full
        rebuild runs instead, re-training centroids (and the int8
        quantizer) on the current geometry.  Deterministic either way:
        the diff, the assignment, and the rebuild all derive from the
        model weights and ``config.seed`` alone.

        Args:
            model: the replacement model (same catalogue width and head
                structure as the one this engine was built from).

        Returns:
            ``{"mode": "noop" | "update" | "rebuild", "changed": int}``
            describing what happened.

        Raises:
            ValueError: when the new model cannot be adopted in place —
                no retrieval hooks, a different catalogue size, head
                dimension, or bias structure.  Callers then build a
                fresh engine (as :meth:`InferenceEngine.set_model`
                does).
        """
        weights, bias = self._head(model)
        if (bias is not None) != self._has_bias:
            raise ValueError(
                "output head bias structure changed across the swap; "
                "a fresh index build is required"
            )
        shape = (weights.shape[1] - 1, weights.shape[0] + self._has_bias)
        if shape != self._items.shape:
            raise ValueError(
                f"item table changed shape across the swap "
                f"({self._items.shape} -> {shape}); a fresh "
                "index build is required"
            )
        changed = self._patch_items(weights, bias)
        self._model = model
        if changed.size == 0:
            return {"mode": "noop", "changed": 0}
        projected = self.index.updates_since_build + changed.size
        if projected >= self.config.rebuild_threshold * self.num_items:
            ids = np.arange(1, self.num_items + 1, dtype=np.int64)
            self.index = IVFIndex.build(self._items, ids, self.config)
            self.rebuilds += 1
            return {"mode": "rebuild", "changed": int(changed.size)}
        self.index.update(self._items[changed], changed + 1)
        self.refreshes += 1
        return {"mode": "update", "changed": int(changed.size)}

    def _patch_items(
        self, weights: np.ndarray, bias: np.ndarray | None
    ) -> np.ndarray:
        """Bring ``_items`` up to the head ``(weights, bias)`` and return
        the (0-based) rows that changed.

        Compares in float32, the table's dtype, block by block, without
        building the transposed copy of the whole head.  The table is
        patched in place when the engine owns its memory; when it is a
        view of a model's weights (a float32 tied head needs no copy at
        build time), the patched table is a new copy instead.
        """
        items = self._items
        dim = weights.shape[0]
        blocks = []
        for start in range(0, self.num_items, _DIFF_BLOCK):
            stop = min(start + _DIFF_BLOCK, self.num_items)
            block = np.asarray(
                weights[:, start + 1:stop + 1], dtype=np.float32
            )
            differs = np.not_equal(block, items[start:stop, :dim].T)
            blocks.append(np.flatnonzero(differs.any(axis=0)) + start)
        changed = np.concatenate(blocks)
        if bias is not None:
            moved = np.asarray(bias[1:], dtype=np.float32) != items[:, dim]
            changed = np.union1d(changed, np.flatnonzero(moved))
        if changed.size:
            if not items.flags.owndata:
                items = self._items = items.copy()
            items[changed, :dim] = weights[:, changed + 1].T
            if bias is not None:
                items[changed, dim] = bias[changed + 1]
        return changed

    def snapshot(self) -> dict:
        """Counters + *effective* configuration for observability.

        ``nprobe`` reports the value searches actually use —
        ``min(config.nprobe, nlist)`` — not the raw config (a config
        asking for more probes than lists exist is silently clamped by
        :meth:`IVFIndex.search`, and dashboards should see the truth).
        """
        index = self.index
        return {
            "nlist": index.nlist,
            "nprobe": min(self.config.nprobe, index.nlist),
            "candidates": self.config.candidates,
            "quantize": self.config.quantize,
            "searches": index.searches,
            "scanned": index.scanned,
            "narrow_batches": self.narrow_batches,
            "staleness": round(index.staleness, 6),
            "updates_since_build": index.updates_since_build,
            "refreshes": self.refreshes,
            "rebuilds": self.rebuilds,
        }
