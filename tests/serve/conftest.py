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
    errors in place."""
    from repro.serve import InvalidRequest, ServeError

    valid = []
    for history in histories:
        try:
            valid.append(service._validate(history, top_n)[0])
        except InvalidRequest:
            pass
    rung = service._rungs[0]
    if valid and rung.engine is not None and rung.breaker.allow():
        rung.engine.prefetch(valid)
    results = []
    for history in histories:
        try:
            results.append(service.recommend(history, top_n=top_n))
        except ServeError as error:
            results.append(error)
    return results


def comparable_stats(service) -> dict:
    """``stats()`` with each latency summary reduced to its count."""
    stats = service.stats()
    for rung in stats["rungs"].values():
        rung["latency"] = rung["latency"].get("count", 0)
    return stats


def assert_window_parity(build, histories, top_n=None, prepare=None):
    """Serve ``histories`` through ``recommend_many`` on one fresh
    service and through :func:`serve_loop` on another; every result,
    every stats counter, breaker state and engine cache counter must
    agree.  ``prepare(service)`` runs on both first.  Returns how many
    requests the window path ranked one by one (the rest were served
    from the window's single ranking call)."""
    from repro.serve import Recommendation

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
    assert len(window) == len(loop)
    for want, got in zip(loop, window):
        assert type(got) is type(want)
        if isinstance(want, Recommendation):
            np.testing.assert_array_equal(got.items, want.items)
            assert (got.rung, got.degraded, got.fallbacks) == (
                want.rung, want.degraded, want.fallbacks
            )
        else:
            assert str(got) == str(want)
    assert comparable_stats(windowed) == comparable_stats(reference)
    return len(one_by_one)
