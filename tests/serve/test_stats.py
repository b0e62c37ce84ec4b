"""Stats merging: cluster shards each keep their own ``ServiceStats``
and the router folds them together with ``merge()`` — the merged
snapshot must satisfy the exact same accounting invariant as a
single-process run."""

import pickle

import numpy as np
import pytest

from repro.serve import InvalidRequest, RecommendService, ServiceConfig
from repro.serve.stats import LatencyTracker, RungStats, ServiceStats

from .conftest import NUM_ITEMS, FailingModel, StubModel
from .test_service import make_service


class TestLatencyMerge:
    def test_pools_samples_and_grows_capacity(self):
        a = LatencyTracker(capacity=4)
        b = LatencyTracker(capacity=4)
        for value in (0.1, 0.2, 0.3, 0.4):
            a.add(value)
        for value in (1.0, 2.0, 3.0, 4.0):
            b.add(value)
        a.merge(b)
        # Nothing dropped: both full reservoirs survive the merge.
        assert len(a) == 8
        assert a.summary()["count"] == 8
        assert a.summary()["max_ms"] == 4000.0

    def test_merge_empty_is_identity(self):
        a = LatencyTracker()
        a.add(0.25)
        a.merge(LatencyTracker())
        assert len(a) == 1
        assert a.summary()["p50_ms"] == 250.0


class TestRungMerge:
    def test_counters_sum_and_failures_pool(self):
        a, b = RungStats(), RungStats()
        a.attempts, a.successes, a.short_circuited = 5, 3, 1
        a.failures["timeout"] += 2
        b.attempts, b.successes = 4, 2
        b.failures["timeout"] += 1
        b.failures["error"] += 1
        a.merge(b)
        assert a.attempts == 9
        assert a.successes == 5
        assert a.short_circuited == 1
        assert dict(a.failures) == {"timeout": 3, "error": 1}


class TestServiceStatsMerge:
    def _drive(self, service, n, bad=0):
        for _ in range(n):
            service.recommend(np.array([1, 2]))
        for _ in range(bad):
            with pytest.raises(InvalidRequest):
                service.recommend(np.array([], dtype=np.int64))

    def test_merged_shards_stay_accounted(self):
        # Two "shards": one healthy, one degrading to its fallback.
        healthy = make_service([("primary", StubModel()),
                                ("pop", StubModel())])
        degraded = make_service([("primary", FailingModel()),
                                 ("pop", StubModel())])
        self._drive(healthy, 7, bad=2)
        self._drive(degraded, 5, bad=1)
        merged = ServiceStats(["primary", "pop"])
        for shard in (healthy, degraded):
            assert shard.raw_stats().accounted()
            merged.merge(shard.raw_stats())
        assert merged.requests == 15
        assert merged.rejected == 3
        assert merged.total_served == 12
        assert merged.fallbacks == 5
        assert merged.accounted()
        snap = merged.snapshot()
        assert snap["accounted"]
        assert snap["served_by_rung"] == {"primary": 7, "pop": 5}
        # The degraded shard's breaker trips after 3 failures; the
        # remaining 2 requests short-circuit the primary.
        assert snap["rungs"]["primary"]["failures"]["error"] == 3
        assert snap["rungs"]["primary"]["short_circuited"] == 2
        # Latency reservoirs pooled: one sample per successful attempt.
        assert snap["rungs"]["primary"]["latency"]["count"] == 7
        assert snap["rungs"]["pop"]["latency"]["count"] == 5

    def test_adopts_unknown_rungs(self):
        a = ServiceStats(["primary"])
        b = ServiceStats(["primary", "canary"])
        b.rungs["canary"].attempts = 3
        a.merge(b)
        assert a.rungs["canary"].attempts == 3

    def test_adopted_rungs_are_not_shared(self):
        # A cluster merges each shard into its total, then shard after
        # shard: merging into the total must leave every source intact.
        total, first, second = (ServiceStats([]) for _ in range(3))
        first.merge(ServiceStats(["primary"]))
        first.rungs["primary"].attempts = 2
        second.merge(ServiceStats(["primary"]))
        second.rungs["primary"].attempts = 3
        total.merge(first)
        total.merge(second)
        assert total.rungs["primary"].attempts == 5
        assert first.rungs["primary"].attempts == 2

    def test_narrow_counters_sum_and_snapshot(self):
        a = ServiceStats(["primary"])
        b = ServiceStats(["primary"])
        a.narrow_ranked, a.dense_fallbacks = 10, 1
        b.narrow_ranked, b.dense_fallbacks = 4, 2
        a.merge(b)
        assert a.narrow_ranked == 14
        assert a.dense_fallbacks == 3
        snap = a.snapshot()
        assert snap["narrow_ranked"] == 14
        assert snap["dense_fallbacks"] == 3

    def test_service_stats_round_trip_through_pickle(self):
        # Shards ship their ServiceStats over a pipe; the object must
        # survive pickling with the accounting intact.
        service = make_service([("primary", StubModel())])
        self._drive(service, 4, bad=1)
        clone = pickle.loads(pickle.dumps(service.raw_stats()))
        assert clone.requests == 5
        assert clone.accounted()
        merged = ServiceStats(["primary"])
        merged.merge(clone)
        merged.merge(service.raw_stats())
        assert merged.requests == 10
        assert merged.accounted()


def test_raw_stats_is_the_live_object():
    service = RecommendService(
        [("primary", StubModel())],
        num_items=NUM_ITEMS,
        config=ServiceConfig(top_n=3, deadline=None),
    )
    service.recommend(np.array([1]))
    assert service.raw_stats().requests == 1
    assert service.raw_stats() is service.raw_stats()
