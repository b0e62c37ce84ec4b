"""Recall@N-vs-exact measurement for the retrieval index.

Because the engine re-scores every retrieved candidate **exactly**, the
only way the two-stage path can rank differently from dense scoring is
an exact-top-N item missing from the candidate set.  Recall@N of the
approximate ranking therefore equals *candidate coverage* of the exact
top-N — which is what this harness measures, swept over ``nprobe`` so
the recall/latency trade-off curve can be read off one table
(the ``recall-curve`` row of ``benchmarks/gates.py`` commits it as
``benchmarks/results/retrieval_recall.json``).
"""

from __future__ import annotations

import numpy as np

from ..tensor.topk import top_k_indices
from .engine import RetrievalEngine
from .index import IndexConfig

__all__ = ["candidate_recall", "recall_curve"]


def candidate_recall(
    exact_top: np.ndarray, candidates: np.ndarray
) -> float:
    """Fraction of exact top-N ids present in the candidate rows.

    Args:
        exact_top: ``(B, N)`` ids of the exact top-N per query.
        candidates: ``(B, C)`` retrieved ids (−1 padding ignored,
            since real ids are ≥ 1).

    Returns:
        Mean recall across the batch, in ``[0, 1]``.
    """
    hits = 0
    for row, cand in zip(exact_top, candidates):
        hits += int(np.isin(row, cand).sum())
    return hits / exact_top.size


def recall_curve(
    model,
    histories,
    config: IndexConfig,
    nprobes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    top_ns: tuple[int, ...] = (1, 5, 10, 20),
) -> dict:
    """Sweep ``nprobe`` and report recall@N against exact scoring.

    One index build, one exact dense pass, then one search per nprobe
    value — cheap enough to run inside the benchmark suite at 100k
    items.

    Returns:
        ``{"nlist", "candidates", "quantize", "curve": [
        {"nprobe", "recall": {str(N): r}}, ...]}`` with nprobe values
        clipped to ``nlist`` and deduplicated.
    """
    engine = RetrievalEngine(model, config)
    exact = model.score_batch(histories)
    exact_top = top_k_indices(exact, max(top_ns))
    hidden = model.hidden_last(histories)
    queries = engine.augment_queries(hidden)
    curve = []
    seen = set()
    for nprobe in nprobes:
        effective = min(nprobe, engine.index.nlist)
        if effective in seen:
            continue
        seen.add(effective)
        cand = engine.index.search(queries, nprobe=effective)
        recall = {
            str(n): candidate_recall(exact_top[:, :n], cand)
            for n in top_ns
        }
        curve.append({"nprobe": effective, "recall": recall})
    return {
        "nlist": engine.index.nlist,
        "candidates": config.candidates,
        "quantize": config.quantize,
        "curve": curve,
    }
