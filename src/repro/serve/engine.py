"""High-throughput inference engine for the serving hot path.

Three pieces compose into :class:`InferenceEngine`, through which
:class:`repro.serve.RecommendService` serves every rung.  It exposes a
recommender's ``score_batch(histories)`` surface, so the whole
breaker/retry/deadline machinery works on top of it unchanged:

- **No-tape, last-position forwards** — every model call runs under
  :class:`repro.tensor.no_grad` (serving allocates no autodiff tape) and
  the neural models score ``hidden_last(h) @ W (+ b)``: the hidden state
  is sliced to the final position *before* the item-vocabulary GEMM, so
  candidate scoring costs O(|I|) instead of O(L·|I|) per request.
- **Chunked forwards** — :meth:`InferenceEngine.prefetch` looks every
  request of one call up in the cache once and scores the distinct
  missed keys in padded batched forwards of up to ``max_batch`` rows.
  Chunk order is deterministic (FIFO request order, chunked at
  ``max_batch``), and a chunk whose forward fails fails every request
  in it.
- **:class:`ScoreCache`** — an LRU of finite score entries keyed on
  ``(model version, most-recent-window suffix)``.  Two users whose
  histories agree on the model's attention window share one entry; a
  model hot-swap bumps the version, which invalidates every old entry
  at once (see :meth:`InferenceEngine.set_model`).  Entries are either
  full-width rows or narrow :class:`repro.retrieval.TopScores` packs,
  and eviction honours an optional **byte budget**
  (``cache_capacity_bytes``) on top of the entry count — at 100k items
  a narrow entry is ~768 bytes against ~400 KB for a full row, so the
  same memory holds ~500× more users.

When approximate retrieval is configured (``EngineConfig(index=...)``),
the engine serves the candidate-native contract end to end:
``score_batch`` returns a ``TopScores`` batch, the chunked forwards
hand out narrow rows, the cache stores the packed pairs, and
:class:`repro.serve.RecommendService` ranks straight from the candidate
list — no full-width row is built on the hot path.  No index, or a
model without retrieval hooks, serves the model's own dense
``score_batch`` rows.

Equivalence is pinned bitwise: for a row-deterministic BLAS the batched
engine returns exactly the scores of one-at-a-time ``score_batch`` calls
(``tests/serve/test_engine.py`` enforces this across ragged lengths,
duplicate users, and fault-driven degradation).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..retrieval import IndexConfig, RetrievalEngine, TopScores
from ..tensor import no_grad

__all__ = ["EngineConfig", "InferenceEngine", "ScoreCache"]


def _cacheable(entry) -> bool:
    """Whether a score entry may enter the cache.

    NaN or +inf marks a degraded forward (the same poison
    ``rank_items_batch`` rejects) — a transient burst must not become a
    sticky entry that re-fails every hit.  ``-inf`` is the legitimate
    "item excluded" sentinel (the padding slot always carries it, and
    approximate retrieval masks every non-candidate with it), so
    entries containing it cache normally.  Narrow
    :class:`~repro.retrieval.TopScores` entries apply the same rule to
    their real candidate slots (``-1`` padding carries ``-inf`` by
    contract and is skipped).
    """
    if isinstance(entry, TopScores):
        real = entry.scores[entry.ids >= 1]
        return not (np.isnan(real).any() or np.isposinf(real).any())
    rest = entry[1:]
    return not (np.isnan(rest).any() or np.isposinf(rest).any())


@dataclass
class EngineConfig:
    """Tuning knobs for :class:`InferenceEngine`.

    Args:
        max_batch: most requests coalesced into one padded forward.
            Bigger batches amortize per-call overhead and turn many thin
            GEMVs into one fat GEMM, at the cost of a larger padded
            buffer per forward; 8–32 is the useful range here.
        cache_capacity: LRU entries held by the :class:`ScoreCache`
            (``0`` disables caching entirely).
        cache_capacity_bytes: optional byte budget for the cache on top
            of the entry count — eviction runs until both limits hold.
            The knob that matters at catalogue scale: full-width rows
            cost ``(num_items + 1) * 4`` bytes each (~1.6 GB for the
            default 4096 entries at 100k items), narrow entries ~12
            bytes per candidate (~3 MB for the same 4096 entries at
            C=64).  ``None`` leaves bytes uncapped.
        index: approximate-retrieval configuration
            (:class:`repro.retrieval.IndexConfig`).  ``None`` keeps
            dense scoring; set it to route ``score_batch`` through the
            two-stage IVF retrieve + exact re-rank path, which returns
            narrow :class:`repro.retrieval.TopScores` batches.  Models without
            retrieval hooks fall back to dense scoring silently (the
            fallback is visible in :meth:`InferenceEngine.snapshot`).
    """

    max_batch: int = 32
    cache_capacity: int = 4096
    cache_capacity_bytes: int | None = None
    index: IndexConfig | None = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if (
            self.cache_capacity_bytes is not None
            and self.cache_capacity_bytes < 1
        ):
            raise ValueError(
                "cache_capacity_bytes must be >= 1 (or None for no "
                "byte cap)"
            )


class ScoreCache:
    """LRU cache of per-request score entries with full accounting.

    Keys are opaque (the engine uses ``(model_version, suffix bytes)``);
    values are 1-D full-width score rows or narrow
    :class:`~repro.retrieval.TopScores` packs.  Eviction enforces an
    entry-count cap and, when ``capacity_bytes`` is set, a byte budget
    (``bytes`` tracks the exact payload held) — the budget is what lets
    a catalogue-scale cache be sized in memory rather than entries,
    where one full-width row costs as much as ~500 narrow ones.
    ``hits`` / ``misses`` / ``evictions`` / ``invalidations`` are
    monotone counters surfaced through :meth:`snapshot` into
    :class:`repro.serve.ServiceStats`.
    """

    def __init__(
        self, capacity: int = 4096, capacity_bytes: int | None = None
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError(
                "capacity_bytes must be >= 1 (or None for no byte cap)"
            )
        self.capacity = capacity
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[object, object] = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """Membership test that moves nothing and counts nothing."""
        return key in self._entries

    @staticmethod
    def _clone(entry):
        """An owning copy of ``entry`` whose arrays are read-only."""
        if isinstance(entry, TopScores):
            entry = entry.copy()
            arrays = (entry.ids, entry.scores)
        else:
            entry = np.array(entry, copy=True)
            arrays = (entry,)
        for array in arrays:
            array.flags.writeable = False
        return entry

    def get(self, key):
        """The cached entry for ``key`` (marked most-recently-used), or
        ``None``.  The stored entry itself: its arrays are read-only,
        so callers can never poison the cache."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, entry) -> None:
        """Insert or **refresh** the entry for ``key``.

        A re-put of an existing key replaces the stored payload (and its
        byte accounting) — the scenario is a row recomputed around a
        ``set_model``-adjacent race, where keeping the stale array would
        serve old scores for as long as the entry stays hot.
        """
        if self.capacity == 0:
            return
        stored = self._clone(entry)
        size = stored.nbytes
        if self.capacity_bytes is not None and size > self.capacity_bytes:
            # One entry over the whole budget would evict everything and
            # still violate it; refuse admission instead.
            return
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.bytes -= previous.nbytes
        self._entries[key] = stored
        self.bytes += size
        while len(self._entries) > self.capacity or (
            self.capacity_bytes is not None
            and self.bytes > self.capacity_bytes
        ):
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= evicted.nbytes
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counted as one invalidation event)."""
        self.invalidations += 1
        self._entries.clear()
        self.bytes = 0

    def snapshot(self) -> dict:
        total = self.hits + self.misses
        size = len(self._entries)
        return {
            "size": size,
            "capacity": self.capacity,
            "capacity_bytes": self.capacity_bytes,
            "bytes": self.bytes,
            "bytes_per_entry": round(self.bytes / size, 1) if size else 0.0,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }


class InferenceEngine:
    """Batching, caching, no-tape front-end for one recommender.

    Drop-in for the model slot of a :class:`RecommendService` rung: it
    exposes ``score_batch`` (and ``score``), so breakers, retries, and
    deadlines compose with batching unchanged.

    Args:
        model: anything with ``score_batch(histories)``.  Neural models
            additionally get their last-position GEMM, compiled
            forwards and preallocated padded buffer through their own
            ``score_batch``.
        config: :class:`EngineConfig` knobs.
    """

    def __init__(self, model, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self._model = model
        self.model_version = 0
        self._retrieval: RetrievalEngine | None = None
        self._retrieval_unsupported = False
        self.dense_fallbacks = 0
        self.cache = (
            ScoreCache(
                self.config.cache_capacity,
                capacity_bytes=self.config.cache_capacity_bytes,
            )
            if self.config.cache_capacity else None
        )
        # Forward accounting, surfaced as ``snapshot()["batcher"]``.
        self.flushes = 0
        self.batched_requests = 0
        self.largest_flush = 0

    # ------------------------------------------------------------------
    # Model management (cache-invalidation rule lives here)
    # ------------------------------------------------------------------
    @property
    def model(self):
        return self._model

    @property
    def name(self) -> str:
        inner = getattr(self._model, "name", type(self._model).__name__)
        return f"engine({inner})"

    def set_model(self, model) -> None:
        """Swap the wrapped model and invalidate every cached score.

        The invalidation rule on reload: the version in every cache key
        is bumped (so stale entries can never be served) *and* the cache
        is cleared eagerly (so their memory is released now, not via
        LRU churn).  The retrieval index refreshes **incrementally**:
        :meth:`repro.retrieval.RetrievalEngine.refresh` reassigns only
        the changed item vectors to their nearest existing centroids
        (escalating to a full rebuild past the staleness threshold), so
        a hot-swap costs an m-row assignment instead of a k-means run —
        candidate re-scoring always uses the *new* model's output head,
        so stale geometry can cost candidate recall but never score
        correctness.  A structurally incompatible swap (different item
        count or bias layout, or no retrieval hooks) drops the index and
        rebuilds lazily on the next scored request, exactly as before.
        """
        if self._retrieval is not None:
            try:
                self._retrieval.refresh(model)
            except ValueError:
                self._retrieval = None
        self._model = model
        self.model_version += 1
        self._retrieval_unsupported = False
        if self.cache is not None:
            self.cache.clear()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _key(self, history: np.ndarray):
        """Cache key: model version + the suffix the model can see.

        Truncating to ``max_length`` first means any two histories that
        agree on the model's attention window share an entry.
        """
        window = getattr(self._model, "max_length", None)
        if window is not None and len(history) > window:
            history = history[-window:]
        return (self.model_version, history.tobytes())

    def _ensure_retrieval(self) -> RetrievalEngine | None:
        """The retrieval engine for the current model, built lazily.

        Returns ``None`` (and remembers it until the next
        :meth:`set_model`) when no index is configured or the wrapped
        model lacks the retrieval hooks — dense scoring then serves.
        """
        if self.config.index is None or self._retrieval_unsupported:
            return None
        if self._retrieval is None:
            if not getattr(self._model, "supports_retrieval", False):
                self._retrieval_unsupported = True
                return None
            with no_grad():
                self._retrieval = RetrievalEngine(
                    self._model, self.config.index
                )
        return self._retrieval

    def _score_chunk(self, histories: list[np.ndarray]):
        """One batched forward, guaranteed tape-free.

        Returns a narrow :class:`~repro.retrieval.TopScores` batch
        under retrieval, the model's full-width rows everywhere else.
        """
        retrieval = self._ensure_retrieval()
        with no_grad():
            if retrieval is not None:
                return retrieval.score_topk(histories)
            return self._model.score_batch(histories)

    def _forward(self, histories: list[np.ndarray]) -> list:
        """Score ``histories`` in FIFO chunks of ``max_batch`` rows.

        Returns one entry per history: its score row (a full-width row
        or a one-row :class:`~repro.retrieval.TopScores` view) or the
        exception its chunk raised.  A chunk whose forward fails, or
        returns the wrong number of rows (a ``ValueError``), fails every
        request in it; each then falls through the service's normal
        retry/fallback machinery individually.
        """
        out: list = []
        size = self.config.max_batch
        for start in range(0, len(histories), size):
            chunk = histories[start:start + size]
            self.flushes += 1
            self.batched_requests += len(chunk)
            self.largest_flush = max(self.largest_flush, len(chunk))
            try:
                scores = self._score_chunk(chunk)
                if not isinstance(scores, TopScores):
                    scores = np.asarray(scores)
                if len(scores) != len(chunk):
                    raise ValueError(
                        f"scorer returned {len(scores)} rows for a "
                        f"{len(chunk)}-request chunk"
                    )
            except Exception as error:  # noqa: BLE001 — fault isolation
                out.extend([error] * len(chunk))
            else:
                if isinstance(scores, TopScores):
                    out.extend(map(scores.row, range(len(chunk))))
                else:
                    out.extend(scores)
        return out

    def score(self, history: np.ndarray):
        scores = self.score_batch([history])
        return scores.row(0) if isinstance(scores, TopScores) else scores[0]

    def score_batch(self, histories: list[np.ndarray]):
        """Scores for every history: :meth:`prefetch`'s rows stacked in
        order.

        On the candidate-native path the result is one narrow
        :class:`~repro.retrieval.TopScores` batch; otherwise a
        ``(n, num_items + 1)`` full-width matrix.  A single call never
        mixes the two: the serving mode is fixed by config + model, and
        a model swap that changes it also bumps the cache version, so
        stale entries of the other shape are unreachable.

        Raises the first error among the needed chunks (cached requests
        are unaffected; the caller's retry/fallback logic sees exactly
        what it would see calling the model directly).
        """
        entries = self.prefetch(histories)
        for entry in entries:
            if isinstance(entry, Exception):
                raise entry
        if entries and isinstance(entries[0], TopScores):
            return TopScores.stack(entries)
        return np.stack(entries)

    def score_batch_dense(self, histories: list[np.ndarray]) -> np.ndarray:
        """Full-width rows straight from the wrapped model — the escape
        hatch for callers the narrow contract cannot serve (a request
        whose candidates, minus its exclusions, fall short of
        ``top_n``).  Bypasses the cache and the chunked forwards: dense
        rows at catalogue scale are exactly the allocations the narrow
        path exists to avoid, so they must not displace narrow entries,
        and fallbacks are rare enough that coalescing them buys nothing.
        Counted in ``dense_fallbacks``.
        """
        self.dense_fallbacks += len(histories)
        histories = [
            np.asarray(history, dtype=np.int64) for history in histories
        ]
        with no_grad():
            return np.asarray(self._model.score_batch(histories))

    def prefetch(self, histories: list[np.ndarray]) -> list:
        """Look every history up in the cache once and score the misses.

        The distinct missed keys are scored in FIFO chunks of
        ``max_batch`` rows (:meth:`_forward`), and every finite row is
        cached.  Each lookup books a cache hit or miss, so a window with
        a key twice books both lookups but scores the key once.

        Returns one entry per history: its score row (a full-width row
        or a one-row :class:`~repro.retrieval.TopScores`; a cached row
        is the read-only stored entry) or the exception its chunk
        raised.  Non-finite rows are returned as scored.
        """
        histories = [
            np.asarray(history, dtype=np.int64) for history in histories
        ]
        keys = [self._key(history) for history in histories]
        entries = [
            None if self.cache is None else self.cache.get(key)
            for key in keys
        ]
        pending: dict = {}
        for key, history, entry in zip(keys, histories, entries):
            if entry is None:
                pending.setdefault(key, history)
        scored = dict(zip(pending, self._forward(list(pending.values()))))
        if self.cache is not None:
            for key, row in scored.items():
                if not isinstance(row, Exception) and _cacheable(row):
                    self.cache.put(key, row)
        return [
            scored[key] if entry is None else entry
            for key, entry in zip(keys, entries)
        ]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "model": getattr(
                self._model, "name", type(self._model).__name__
            ),
            "model_version": self.model_version,
            "dense_fallbacks": self.dense_fallbacks,
            "cache": (
                self.cache.snapshot() if self.cache is not None else None
            ),
            "batcher": {
                "max_batch": self.config.max_batch,
                "flushes": self.flushes,
                "batched_requests": self.batched_requests,
                "largest_flush": self.largest_flush,
                "queued": 0,
                "mean_flush_size": (
                    round(self.batched_requests / self.flushes, 3)
                    if self.flushes else 0.0
                ),
            },
            "retrieval": (
                self._retrieval.snapshot()
                if self._retrieval is not None
                else None
            ),
        }
