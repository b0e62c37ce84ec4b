"""Shared fakes for the serving-layer tests: a fake clock and a family
of deterministic stub recommenders so every breaker/deadline/fallback
transition can be driven without real models or real sleeping."""

import numpy as np
import pytest

NUM_ITEMS = 10


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubModel:
    """Deterministic healthy rung: score = item id (top item = 10)."""

    name = "stub"

    def __init__(self, num_items: int = NUM_ITEMS, offset: float = 0.0):
        self.num_items = num_items
        self.offset = offset
        self.calls = 0

    def score_batch(self, histories):
        self.calls += 1
        scores = np.tile(
            np.arange(self.num_items + 1, dtype=np.float64) + self.offset,
            (len(histories), 1),
        )
        return scores


class FailingModel(StubModel):
    """Raises on every call (optionally only the first ``fail_first``)."""

    name = "failing"

    def __init__(self, error: Exception | None = None,
                 fail_first: int | None = None, **kwargs):
        super().__init__(**kwargs)
        self.error = error or RuntimeError("model exploded")
        self.fail_first = fail_first

    def score_batch(self, histories):
        self.calls += 1
        if self.fail_first is None or self.calls <= self.fail_first:
            raise self.error
        return super().score_batch(histories)


class NaNModel(StubModel):
    """Emits NaN-poisoned scores."""

    name = "nan"

    def score_batch(self, histories):
        scores = super().score_batch(histories)
        scores[:, 1::2] = np.nan
        return scores


class SlowModel(StubModel):
    """Advances the fake clock mid-call to simulate latency."""

    name = "slow"

    def __init__(self, clock: FakeClock, delay: float, **kwargs):
        super().__init__(**kwargs)
        self.clock = clock
        self.delay = delay

    def score_batch(self, histories):
        self.clock.advance(self.delay)
        return super().score_batch(histories)


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def history():
    return np.array([1, 2, 3], dtype=np.int64)


# ----------------------------------------------------------------------
# Window-path parity
# ----------------------------------------------------------------------

def serve_loop(service, histories, top_n=None):
    """The reference for ``recommend_many``: prefetch the valid
    histories through the first rung's engine (unless its breaker is
    open), then serve one ``recommend`` call per request, returning
    errors in place.  A request whose prefetch chunk failed sees that
    error from its first scoring call on the first rung, so its
    counters include the booked prefetch failure."""
    from repro.serve import InvalidRequest, ServeError

    valid = []
    for history in histories:
        try:
            valid.append(service._validate(history, top_n)[0])
        except InvalidRequest:
            valid.append(None)
    engine = service._rungs[0].engine
    entries = [None] * len(histories)
    scored = [index for index, one in enumerate(valid) if one is not None]
    if scored and service._rungs[0].breaker.allow():
        rows = engine.prefetch([valid[index] for index in scored])
        for index, row in zip(scored, rows):
            entries[index] = row
    results = []
    for history, entry in zip(histories, entries):
        if isinstance(entry, Exception):
            engine.score_batch = _RaiseOnce(engine, entry)
        try:
            results.append(service.recommend(history, top_n=top_n))
        except ServeError as error:
            results.append(error)
        finally:
            engine.__dict__.pop("score_batch", None)
    return results


class _RaiseOnce:
    """An engine's ``score_batch`` for one call: raise ``error`` and
    restore the real method."""

    def __init__(self, engine, error):
        self.engine = engine
        self.error = error

    def __call__(self, histories):
        del self.engine.score_batch
        raise self.error


def comparable_stats(service) -> dict:
    """``stats()`` with each latency summary reduced to its count and
    the cache's lookup counters dropped: the window looks each request
    up once, the loop once in its prefetch and again in ``recommend``."""
    stats = service.stats()
    for rung in stats["rungs"].values():
        rung["latency"] = rung["latency"].get("count", 0)
        engine = rung.get("engine")
        if engine and engine["cache"]:
            for name in ("hits", "misses", "hit_rate"):
                del engine["cache"][name]
    return stats


def assert_window_parity(build, histories, top_n=None, prepare=None):
    """Serve ``histories`` through ``recommend_many`` on one fresh
    service and through :func:`serve_loop` on another; every result,
    every stats counter, breaker state and engine counter must agree
    (the cache's lookup counters aside, see :func:`comparable_stats`).
    ``prepare(service)`` runs on both first.  Returns how many requests
    the window path ranked one by one (the rest were served from the
    window's single ranking call)."""
    reference, windowed = build(), build()
    if prepare is not None:
        prepare(reference)
        prepare(windowed)
    loop = serve_loop(reference, histories, top_n)
    one_by_one = []
    rank_one = windowed._rank_one

    def counting(*args, **kwargs):
        one_by_one.append(1)
        return rank_one(*args, **kwargs)

    windowed._rank_one = counting
    window = windowed.recommend_many(histories, top_n=top_n)
    assert_same_results(loop, window)
    assert comparable_stats(windowed) == comparable_stats(reference)
    return len(one_by_one)


def assert_same_results(want, got):
    """Equal results, in order: the same rankings with the same
    provenance, or the same errors."""
    from repro.serve import Recommendation

    assert len(got) == len(want)
    for one, other in zip(want, got):
        assert type(other) is type(one)
        if isinstance(one, Recommendation):
            np.testing.assert_array_equal(other.items, one.items)
            assert (other.rung, other.degraded, other.fallbacks) == (
                one.rung, one.degraded, one.fallbacks
            )
        else:
            assert str(other) == str(one)


def window_forwards(service) -> tuple[int, int]:
    """The first rung's engine forwards: ``(flushes, rows)``."""
    rung = service._rungs[0]
    batcher = service.stats()["rungs"][rung.name]["engine"]["batcher"]
    return batcher["flushes"], batcher["batched_requests"]


def assert_same_window(build_reference, build, histories):
    """Serve ``histories`` through ``recommend_many`` on a service from
    each builder: results and provenance must agree, and so must the
    first rung's forwards.  Returns those ``(flushes, rows)``."""
    reference, service = build_reference(), build()
    assert_same_results(
        reference.recommend_many(histories), service.recommend_many(histories)
    )
    forwards = window_forwards(service)
    assert forwards == window_forwards(reference)
    return forwards
