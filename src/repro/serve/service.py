"""`RecommendService`: fault-tolerant top-N recommendation.

The service owns an ordered **fallback chain** of scoring rungs — e.g.
``VSAN → SASRec → POP`` — and guarantees that a valid request either
gets a *valid, finite ranking* from the highest healthy rung or a typed
error, never a silent garbage ranking:

1. **Validation** — histories are checked (1-D, non-empty, integer ids
   in ``1..num_items``), truncated to the most recent ``max_history``
   items, with unknown ids either rejected or dropped
   (:class:`InvalidRequest` is raised when nothing valid remains).
2. **Fallback chain** — each rung is guarded by a
   :class:`repro.serve.breaker.CircuitBreaker`.  A rung that raises,
   overruns the deadline, or emits NaN/``+inf`` scores records a breaker
   failure and traffic flows to the next rung; once its failure rate
   trips the breaker the rung is skipped outright until the cooldown
   elapses and half-open probes re-close it.
3. **Retries** — failures that subclass
   :class:`repro.serve.errors.TransientError` are retried in place with
   exponential backoff + jitter before falling through.
4. **Deadlines** — the budget is enforced *by detection*: a synchronous
   model call cannot be preempted, so any call that takes longer than
   the budget is counted as a ``timeout`` failure on that rung and
   traffic degrades to the next rung (a late-but-valid degraded answer
   beats no answer; the breaker is what protects latency over time by
   skipping a persistently slow rung).  The budget is **cumulative**
   across the whole request: every call is charged against what earlier
   rungs, retries, and backoffs left over, each retry backoff is capped
   at the remaining budget, and a retry is skipped outright when the
   remainder cannot cover ``base_delay``.  :class:`DeadlineExceeded` is
   raised only when *no* rung could answer and the budget was spent.
5. **Accounting** — :meth:`RecommendService.stats` snapshots per-rung
   attempts/failures/latencies and breaker states; every request lands
   in exactly one of served / rejected / exhausted / deadline buckets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..eval.metrics import (
    NonFiniteScoresError,
    rank_items_batch,
    rank_top_scores,
)
from ..models.base import NeuralSequentialRecommender
from ..retrieval import TopScores
from ..tensor.compile import programs_for
from .breaker import CircuitBreaker
from .engine import EngineConfig, InferenceEngine
from .errors import (
    AllRungsFailed,
    DeadlineExceeded,
    InvalidRequest,
    ServeError,
    TransientError,
)
from .loading import safe_load_model
from .retry import RetryPolicy
from .stats import ServiceStats

__all__ = ["Recommendation", "RecommendService", "ServiceConfig"]

_UNSET = object()


@dataclass
class ServiceConfig:
    """Request-handling policy knobs.

    Args:
        top_n: default recommendation list length.
        deadline: default time budget in seconds (``None`` =
            unbounded).  Enforced by detection: a rung call that takes
            longer counts as a ``timeout`` failure and the chain
            degrades; :class:`DeadlineExceeded` is raised only when no
            rung answers and the budget is spent.
        max_history: histories longer than this are truncated to their
            most recent items (mirrors the models' attention windows).
        unknown_items: ``"reject"`` raises :class:`InvalidRequest` on
            out-of-vocabulary ids; ``"drop"`` silently filters them
            (rejecting only if nothing remains).
        exclude_history: remove already-seen items from rankings.
    """

    top_n: int = 10
    deadline: float | None = 0.25
    max_history: int = 200
    unknown_items: str = "reject"
    exclude_history: bool = True

    def __post_init__(self):
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.max_history < 1:
            raise ValueError("max_history must be >= 1")
        if self.unknown_items not in ("reject", "drop"):
            raise ValueError("unknown_items must be 'reject' or 'drop'")


@dataclass
class Recommendation:
    """A served ranking plus provenance.

    ``degraded`` is ``True`` whenever a rung below the primary answered;
    ``fallbacks`` counts the rungs that were skipped or failed first.
    """

    items: np.ndarray
    rung: str
    latency: float
    degraded: bool
    fallbacks: int


@dataclass
class _Rung:
    name: str
    engine: InferenceEngine
    breaker: CircuitBreaker


class RecommendService:
    """Serve top-N recommendations through a guarded fallback chain.

    Args:
        rungs: ordered ``(name, recommender)`` pairs, best model first;
            each recommender needs ``score_batch(histories)``.  The last
            rung should be something that cannot fail (e.g. ``POP``).
        num_items: vocabulary size; scores must be ``num_items + 1``
            wide (index 0 = padding).
        config: request policy (:class:`ServiceConfig`).
        retry: in-place retry policy for transient failures; default
            retries once with a 10 ms backoff.
        breaker_factory: builds one breaker per rung; defaults to
            :class:`CircuitBreaker` on the service clock.
        clock: monotonic time source (injectable for deterministic
            deadline/breaker tests).
        engine: the :class:`EngineConfig` of the
            :class:`repro.serve.engine.InferenceEngine` that serves
            every rung (batched forwards, LRU score cache, guaranteed
            no-tape forwards); ``None`` means ``EngineConfig()``.
            Breakers, retries, and deadlines see the engine exactly like
            a model, so the fault machinery composes with batching
            unchanged.
    """

    def __init__(
        self,
        rungs,
        num_items: int,
        config: ServiceConfig | None = None,
        retry: RetryPolicy | None = None,
        breaker_factory=None,
        clock=time.monotonic,
        engine: EngineConfig | None = None,
    ):
        rungs = list(rungs)
        if not rungs:
            raise ValueError("need at least one rung")
        names = [name for name, _ in rungs]
        if len(set(names)) != len(names):
            raise ValueError(f"rung names must be unique: {names}")
        if num_items < 1:
            raise ValueError("num_items must be >= 1")
        self.num_items = num_items
        self.config = config or ServiceConfig()
        self.retry = retry or RetryPolicy(
            max_attempts=2, base_delay=0.01, max_delay=0.1
        )
        self._clock = clock
        if breaker_factory is None:
            breaker_factory = lambda: CircuitBreaker(clock=clock)  # noqa: E731
        self._rungs = [
            _Rung(
                name, InferenceEngine(model, config=engine),
                breaker_factory(),
            )
            for name, model in rungs
        ]
        self._stats = ServiceStats(names)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def recommend(
        self,
        history,
        top_n: int | None = None,
        deadline=_UNSET,
    ) -> Recommendation:
        """Rank ``top_n`` items for one user history.

        Raises :class:`InvalidRequest`, :class:`DeadlineExceeded`, or
        :class:`AllRungsFailed`; any returned ranking is guaranteed
        finite, deduplicated, in-vocabulary, and free of the user's own
        history (when ``exclude_history`` is on).
        """
        self._stats.requests += 1
        budget = self.config.deadline if deadline is _UNSET else deadline
        try:
            history, top_n = self._validate(history, top_n)
        except InvalidRequest:
            self._stats.rejected += 1
            raise
        return self._serve(history, top_n, budget)

    def _serve(self, history, top_n, budget, ready=None) -> Recommendation:
        """Walk the fallback chain for one validated request.

        ``ready`` is a window entry that stands in for the first rung's
        first scoring call: a ranked ``(ranked, narrow)`` pair, or the
        error the request's prefetch chunk raised (see
        :meth:`recommend_many`).
        """
        start = self._clock()
        causes: dict[str, str] = {}
        for index, rung in enumerate(self._rungs):
            if not rung.breaker.allow():
                self._stats.rungs[rung.name].short_circuited += 1
                causes[rung.name] = "breaker open"
                continue
            ranked = self._attempt(rung, history, top_n, start, budget,
                                   causes, ready if index == 0 else None)
            if ranked is not None:
                if index > 0:
                    self._stats.fallbacks += 1
                self._stats.served[rung.name] += 1
                return Recommendation(
                    items=ranked,
                    rung=rung.name,
                    latency=self._clock() - start,
                    degraded=index > 0,
                    fallbacks=index,
                )
        elapsed = self._clock() - start
        if budget is not None and elapsed >= budget:
            self._stats.deadline_exceeded += 1
            error = DeadlineExceeded(
                f"no rung answered within the {budget}s budget "
                f"({elapsed:.3f}s elapsed); causes: {causes}"
            )
            error.causes = dict(causes)
            raise error
        self._stats.exhausted += 1
        raise AllRungsFailed(
            f"all {len(self._rungs)} rungs failed", causes
        )

    def recommend_many(
        self,
        histories,
        top_n: int | None = None,
        deadline=_UNSET,
    ) -> list:
        """Serve a window of requests as a batch.

        Unless the first rung's breaker is open, the valid histories
        are scored by one :meth:`InferenceEngine.prefetch` through its
        engine and the rows it returns are ranked in one pass.  Each of
        those requests walks the same fallback chain as
        :meth:`recommend`, in window order, with its window entry in
        place of its first scoring call on the first rung: the ranked
        list, or the error its chunk raised.  That error is booked as a
        failed call, as a per-request call's would be (breaker failure,
        ``failures["error"]``), and a transient one is retried in place.

        Every other request goes through :meth:`recommend` unchanged:
        invalid ones, rows that carry NaN/+inf, lists that need the
        slow path (a short narrow list that densifies, or an empty
        one), the whole window when its ranking raised, and every
        request when the first rung's breaker is open.  Breaker, retry,
        deadline and stats bookings happen per request in window order,
        so rankings, provenance and every service counter (latency
        values aside) equal those of a prefetch followed by a
        :meth:`recommend` loop in which each request of a failed chunk
        first books that failure.  Prefetch and window ranking are
        attributed to the batch; the per-request latency stats measure
        the serve itself.

        Returns a list aligned with ``histories`` whose elements are
        :class:`Recommendation` on success and the raised
        :class:`~repro.serve.errors.ServeError` on failure — errors are
        returned, not raised, so one bad request cannot fail the batch.
        """
        histories = list(histories)
        budget = self.config.deadline if deadline is _UNSET else deadline
        valid = {}
        for position, history in enumerate(histories):
            try:
                valid[position] = self._validate(history, top_n)
            except InvalidRequest:
                continue  # recommend() below re-raises and accounts it
        ready = self._rank_window(valid)
        results = []
        for position, history in enumerate(histories):
            try:
                if position in ready:
                    self._stats.requests += 1
                    results.append(self._serve(
                        *valid[position], budget, ready[position]
                    ))
                else:
                    results.append(self.recommend(
                        history, top_n=top_n, deadline=deadline
                    ))
            except ServeError as error:
                results.append(error)
        return results

    def _rank_window(self, valid: dict) -> dict:
        """Score a window's validated requests (``{position: (history,
        top_n)}``) with one prefetch through the first rung's engine,
        and rank the rows it returned in one pass.

        Returns ``{position: entry}``: ``(ranked, narrow)`` for the
        requests whose list needs no slow path, and the error raised by
        the chunk of each request whose forward failed.
        """
        rung = self._rungs[0]
        # Only the first rung is scored: lower rungs see traffic only
        # when requests degrade.  An open breaker means "stop hammering
        # this model": the window then serves request by request.
        if not valid or not rung.breaker.allow():
            return {}
        positions = list(valid)
        histories = [valid[position][0] for position in positions]
        top_n = valid[positions[0]][1]
        entries = rung.engine.prefetch(histories)
        ready, scored = {}, []
        for index, entry in enumerate(entries):
            if isinstance(entry, Exception):
                ready[positions[index]] = entry
            else:
                scored.append(index)
        if not scored:
            return ready
        rows = [entries[index] for index in scored]
        narrow = isinstance(rows[0], TopScores)
        try:
            rows = TopScores.stack(rows) if narrow else np.stack(rows)
            lists, slow = self._rank(
                rows, [histories[index] for index in scored], top_n
            )
        except ValueError:
            return ready
        for index, ranked, needs_slow_path in zip(scored, lists, slow):
            if not needs_slow_path:
                ready[positions[index]] = (ranked, narrow)
        return ready

    def _attempt(
        self, rung: _Rung, history, top_n, start, budget, causes,
        ready=None,
    ) -> np.ndarray | None:
        """Try one rung, retrying transient failures in place.

        Returns the ranking, or ``None`` (with breaker/stats updated and
        ``causes[rung]`` set) to fall through to the next rung.  A
        ``ready`` window entry stands in for the first attempt's scoring
        call: a ``(ranked, narrow)`` pair for the call and the ranking,
        an exception for a call that raised it.
        """
        rstats = self._stats.rungs[rung.name]
        for attempt in range(self.retry.max_attempts):
            rstats.attempts += 1
            called_at = self._clock()
            # The budget is cumulative across the whole request: each
            # call only gets what earlier rungs, retries, and backoffs
            # left over — never a fresh full budget.
            remaining = (
                None if budget is None else budget - (called_at - start)
            )
            outcome, ready = ready, None
            if outcome is None:
                try:
                    scores = rung.engine.score_batch([history])
                except Exception as error:  # noqa: BLE001 — rung isolation
                    outcome = error
            if isinstance(outcome, Exception):
                rung.breaker.record_failure()
                rstats.failures["error"] += 1
                causes[rung.name] = f"error: {outcome}"
                if (
                    isinstance(outcome, TransientError)
                    and attempt < self.retry.max_attempts - 1
                    and self._pause_within_budget(attempt, start, budget)
                ):
                    continue
                return None
            elapsed = self._clock() - called_at
            if budget is not None and elapsed > max(remaining, 0.0):
                # The call returned, but outran what was left of the
                # budget: a caller with a real deadline has given up on
                # it, so it counts as a failure and a cheaper rung gets
                # a shot.
                rung.breaker.record_failure()
                rstats.failures["timeout"] += 1
                causes[rung.name] = (
                    f"timeout ({elapsed:.3f}s call with "
                    f"{max(remaining, 0.0):.3f}s of the {budget}s "
                    f"budget left)"
                )
                return None
            if outcome is None:
                try:
                    outcome = self._rank_one(rung, scores, history, top_n)
                except (NonFiniteScoresError, ValueError) as error:
                    rung.breaker.record_failure()
                    rstats.failures["non_finite"] += 1
                    causes[rung.name] = f"invalid scores: {error}"
                    return None
            ranked, narrow = outcome
            rung.breaker.record_success()
            rstats.successes += 1
            rstats.latency.add(elapsed)
            if narrow:
                self._stats.narrow_ranked += 1
            return ranked
        return None

    def _pause_within_budget(self, attempt, start, budget) -> bool:
        """Back off before a retry iff the remaining budget allows it.

        Returns ``False`` (skip the retry entirely) when the budget is
        spent or the remainder cannot even cover ``base_delay`` — a
        retry that would start after the deadline helps nobody.  The
        pause itself is capped at the remaining budget so a jittered
        backoff can never sleep the request past its deadline.
        """
        if budget is None:
            self.retry.pause(attempt)
            return True
        remaining = budget - (self._clock() - start)
        if remaining <= 0.0 or remaining < self.retry.base_delay:
            return False
        self.retry.pause(attempt, limit=remaining)
        return True

    # ------------------------------------------------------------------
    # Validation and ranking
    # ------------------------------------------------------------------
    def _validate(
        self, history, top_n: int | None
    ) -> tuple[np.ndarray, int]:
        top_n = self.config.top_n if top_n is None else top_n
        if top_n < 1:
            raise InvalidRequest(f"top_n must be >= 1, got {top_n}")
        array = np.asarray(history)
        if array.ndim != 1:
            raise InvalidRequest(
                f"history must be 1-D, got shape {array.shape}"
            )
        if array.size == 0:
            raise InvalidRequest("history is empty")
        if not np.issubdtype(array.dtype, np.integer):
            if np.issubdtype(array.dtype, np.floating) and np.all(
                np.isfinite(array)
            ) and np.all(array == np.floor(array)):
                array = array.astype(np.int64)
            else:
                raise InvalidRequest(
                    f"history must hold integer item ids, got dtype "
                    f"{array.dtype}"
                )
        array = array.astype(np.int64, copy=False)
        invalid = (array < 1) | (array > self.num_items)
        if invalid.any():
            if self.config.unknown_items == "reject":
                bad = np.unique(array[invalid])
                raise InvalidRequest(
                    f"history contains {int(invalid.sum())} unknown or "
                    f"invalid item ids (valid range 1..{self.num_items}): "
                    f"{bad[:5].tolist()}{'…' if len(bad) > 5 else ''}"
                )
            array = array[~invalid]
            if array.size == 0:
                raise InvalidRequest(
                    "history is empty after dropping unknown item ids"
                )
        if len(array) > self.config.max_history:
            array = array[-self.config.max_history:]
        return array, top_n

    def _rank_one(
        self, rung: _Rung, scores, history: np.ndarray, top_n: int
    ) -> tuple[np.ndarray, bool]:
        """Rank one request's scores; returns ``(ranked, narrow)``.

        A narrow list that needs the slow path falls back to one true
        dense forward through the rung's engine (``score_batch_dense``):
        the full catalogue can still be ranked, it just costs the
        allocation the narrow path normally avoids.  Raises
        ``ValueError`` when the scores carry NaN/+inf or nothing is
        rankable.
        """
        lists, slow = self._rank(scores, [history], top_n)
        narrow = isinstance(scores, TopScores)
        if narrow and slow[0] and lists[0] is not None:
            self._stats.dense_fallbacks += 1
            lists, slow = self._rank(
                rung.engine.score_batch_dense([history]), [history], top_n
            )
            narrow = False
        if lists[0] is None:
            raise NonFiniteScoresError("scores contain NaN/+inf entries")
        if slow[0]:
            raise ValueError("no rankable items after exclusions")
        return lists[0], narrow

    def _rank(
        self, scores, histories, top_n: int
    ) -> tuple[list, np.ndarray]:
        """Rank one score row per history: full-width rows, or narrow
        :class:`~repro.retrieval.TopScores` candidate lists ranked in
        O(C log C) per row without densifying them.

        Returns the per-row lists (history ids excluded, the 0 tail
        stripped; ``None`` for a row carrying NaN or +inf) and a
        per-row mask of rows that need the slow path: those non-finite
        rows, empty lists, and narrow lists shorter than ``top_n``
        although the catalogue could fill more of them (thin probed
        lists, or exclusions swallowing the candidates).  A retrieval
        width ``C < top_n`` asks for short lists, so there only an
        empty list needs it.
        """
        narrow = isinstance(scores, TopScores)
        if narrow:
            shape = (len(scores), scores.width)
            values = np.where(scores.ids >= 1, scores.scores, -np.inf)
        else:
            values = scores = np.asarray(scores, dtype=np.float64)
            shape = scores.shape
        expected = (len(histories), self.num_items + 1)
        if shape != expected:
            raise ValueError(
                f"expected scores of shape {expected}, got {shape}"
            )
        poisoned = (np.isnan(values) | (values == np.inf)).any(axis=1)
        exclude = histories if self.config.exclude_history else None
        rank = rank_top_scores if narrow else rank_items_batch
        ranked = rank(scores, top_n, exclude=exclude, check_finite=False)
        # Unrankable slots are 0 and sink to the end of each row.
        counts = np.count_nonzero(ranked, axis=1)
        lists = [
            None if bad else row[:count]
            for row, count, bad in zip(ranked, counts, poisoned)
        ]
        slow = poisoned | (counts == 0)
        if narrow and top_n <= scores.candidates:
            for row in np.flatnonzero((counts < top_n) & ~slow):
                slow[row] = counts[row] < self._rankable(histories[row])
        return lists, slow

    def _rankable(self, history: np.ndarray) -> int:
        """Items the dense path can rank: the catalogue minus the
        excluded history."""
        if not self.config.exclude_history:
            return self.num_items
        return self.num_items - np.unique(history).size

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def reload_rung(
        self,
        name: str,
        path,
        registry: dict[str, type],
        check_finite: bool = True,
        retries: RetryPolicy | None = None,
    ) -> None:
        """Hot-swap a rung's model from a checkpoint.

        The file is loaded through
        :func:`repro.serve.loading.safe_load_model` (corrupt/truncated/
        NaN-weight files raise :class:`repro.nn.CheckpointError` and the
        current model keeps serving); on success the rung's breaker is
        reset so the fresh model starts with a clean slate, and every
        cached score for the old weights is invalidated (the engine's
        version bump + eager clear).
        """
        rung = self._rung(name)
        self._install(rung, safe_load_model(
            path, registry, check_finite=check_finite, retries=retries
        ))

    def swap_model(self, name: str, model) -> None:
        """Replace a rung's model with an already-built one (same cache
        invalidation as :meth:`reload_rung`)."""
        self._install(self._rung(name), model)

    @staticmethod
    def _install(rung: _Rung, model) -> None:
        rung.engine.set_model(model)
        rung.breaker.reset()

    def current_model(self, name: str):
        """The model currently serving rung ``name`` (inside its engine)
        — what a canary rollback must restore."""
        return self._rung(name).engine.model

    def warm_programs(self, batch_sizes) -> int:
        """Pre-trace compiled scoring programs for ``batch_sizes``.

        A respawned cluster replica calls this before rejoining the
        ring: for each rung serving a neural model (whose scoring
        forwards replay compiled programs, :mod:`repro.tensor.compile`),
        one probe ``score_batch`` runs per hot batch size, so the
        replica's first real flushes *replay* programs instead of paying
        the trace.  Dense and retrieval flushes share one compiled
        program (``hidden_last``), so the probe warms both.  Sizes are
        translated to the model-level shapes the engine's chunked
        forwards will actually produce (``max_batch`` chunks plus the ragged
        remainder); probes call the model directly, so no score cache or
        stats counter moves.  Returns how many programs were traced.
        """
        warmed = 0
        for rung in self._rungs:
            model = rung.engine.model
            if not isinstance(model, NeuralSequentialRecommender):
                continue
            max_batch = rung.engine.config.max_batch
            chunk_sizes: set[int] = set()
            for size in batch_sizes:
                size = int(size)
                if size < 1:
                    continue
                full, remainder = divmod(size, max_batch)
                if full:
                    chunk_sizes.add(max_batch)
                if remainder:
                    chunk_sizes.add(remainder)
            probe = np.array([1], dtype=np.int64)
            for size in sorted(chunk_sizes):
                before = len(programs_for(model))
                model.score_batch([probe] * size)
                warmed += len(programs_for(model)) - before
        return warmed

    def describe_rungs(self) -> dict:
        """Per-rung model identity: class name plus the engine's model
        version.  The cluster's canary rollout uses this to assert which
        model generation each shard is actually serving."""
        return {
            rung.name: {
                "model": type(rung.engine.model).__name__,
                "version": rung.engine.model_version,
            }
            for rung in self._rungs
        }

    def breaker(self, name: str) -> CircuitBreaker:
        """The breaker guarding rung ``name`` (for tests/ops)."""
        return self._rung(name).breaker

    def _rung(self, name: str) -> _Rung:
        for rung in self._rungs:
            if rung.name == name:
                return rung
        raise KeyError(
            f"no rung named {name!r}; have "
            f"{[rung.name for rung in self._rungs]}"
        )

    def raw_stats(self) -> ServiceStats:
        """The live :class:`ServiceStats` object (picklable), so shard
        processes can ship it over a pipe for cross-process
        :meth:`ServiceStats.merge` aggregation."""
        return self._stats

    def stats(self) -> dict:
        """JSON-friendly snapshot of all counters, breaker states and
        per-rung engine cache/batcher stats."""
        return self._stats.snapshot(
            breakers={
                rung.name: rung.breaker.snapshot() for rung in self._rungs
            },
            engines={
                rung.name: rung.engine.snapshot() for rung in self._rungs
            },
        )
