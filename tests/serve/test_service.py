"""RecommendService: validation, fallback chain, breaker integration,
deadlines, retries, accounting — and the acceptance scenario with the
seeded fault injector (100% valid rankings under faults, breaker
re-closes after they clear, every request accounted for)."""

import numpy as np
import pytest

from repro.serve import (
    CLOSED,
    AllRungsFailed,
    CheckpointError,
    CircuitBreaker,
    DeadlineExceeded,
    EngineConfig,
    InvalidRequest,
    RecommendService,
    RetryPolicy,
    ServiceConfig,
    TransientError,
)
from repro.retrieval import IndexConfig
from repro.tensor import Tensor
from tests.faults import FaultInjector, FaultyRecommender

from .conftest import (
    NUM_ITEMS,
    FailingModel,
    FakeClock,
    NaNModel,
    SlowModel,
    StubModel,
)


def no_sleep_retry(attempts=1):
    return RetryPolicy(max_attempts=attempts, base_delay=0.0, jitter=0.0,
                       sleep=lambda _: None)


def make_service(rungs, clock=None, config=None, retry=None, engine=None,
                 **breaker):
    clock = clock or FakeClock()
    breaker_kwargs = dict(
        failure_threshold=0.5, window=6, min_calls=3, cooldown=1.0,
        half_open_probes=2, clock=clock,
    )
    breaker_kwargs.update(breaker)
    return RecommendService(
        rungs,
        num_items=NUM_ITEMS,
        config=config or ServiceConfig(top_n=3, deadline=None),
        retry=retry or no_sleep_retry(),
        breaker_factory=lambda: CircuitBreaker(**breaker_kwargs),
        clock=clock,
        engine=engine,
    )


class TestConstruction:
    def test_needs_rungs(self):
        with pytest.raises(ValueError, match="at least one rung"):
            make_service([])

    def test_rejects_duplicate_rung_names(self):
        with pytest.raises(ValueError, match="unique"):
            make_service([("a", StubModel()), ("a", StubModel())])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(top_n=0),
            dict(deadline=0.0),
            dict(max_history=0),
            dict(unknown_items="ignore"),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestValidation:
    @pytest.fixture
    def service(self):
        return make_service([("primary", StubModel())])

    def test_empty_history_rejected(self, service):
        with pytest.raises(InvalidRequest, match="empty"):
            service.recommend(np.array([], dtype=np.int64))

    def test_two_dimensional_history_rejected(self, service):
        with pytest.raises(InvalidRequest, match="1-D"):
            service.recommend(np.zeros((2, 3), dtype=np.int64))

    def test_non_integer_history_rejected(self, service):
        with pytest.raises(InvalidRequest, match="integer"):
            service.recommend(np.array([1.5, 2.0]))

    def test_integral_floats_accepted(self, service):
        rec = service.recommend(np.array([1.0, 2.0]))
        assert rec.rung == "primary"

    def test_unknown_ids_rejected_by_default(self, service):
        with pytest.raises(InvalidRequest, match="unknown"):
            service.recommend(np.array([1, NUM_ITEMS + 5]))

    def test_negative_and_padding_ids_rejected(self, service):
        with pytest.raises(InvalidRequest):
            service.recommend(np.array([-3, 1]))
        with pytest.raises(InvalidRequest):
            service.recommend(np.array([0, 1]))

    def test_bad_top_n_rejected(self, service):
        with pytest.raises(InvalidRequest, match="top_n"):
            service.recommend(np.array([1]), top_n=0)

    def test_rejections_are_counted(self, service):
        for _ in range(3):
            with pytest.raises(InvalidRequest):
                service.recommend(np.array([], dtype=np.int64))
        stats = service.stats()
        assert stats["rejected"] == 3
        assert stats["requests"] == 3
        assert stats["accounted"]

    def test_drop_mode_filters_unknown_ids(self):
        model = StubModel()
        service = make_service(
            [("primary", model)],
            config=ServiceConfig(top_n=3, deadline=None,
                                 unknown_items="drop"),
        )
        rec = service.recommend(np.array([1, NUM_ITEMS + 5, 2]))
        assert rec.rung == "primary"
        # But nothing-left-after-dropping is still a rejection.
        with pytest.raises(InvalidRequest, match="empty after dropping"):
            service.recommend(np.array([0, NUM_ITEMS + 5]))

    def test_over_length_history_truncated(self):
        captured = {}

        class Capture(StubModel):
            def score_batch(self, histories):
                captured["history"] = histories[0]
                return super().score_batch(histories)

        service = make_service(
            [("primary", Capture())],
            config=ServiceConfig(top_n=3, deadline=None, max_history=4),
        )
        service.recommend(np.array([1, 2, 3, 4, 5, 6]))
        np.testing.assert_array_equal(captured["history"],
                                      np.array([3, 4, 5, 6]))


class TestRankingContract:
    def test_history_excluded_and_sorted_best_first(self):
        service = make_service([("primary", StubModel())])
        rec = service.recommend(np.array([NUM_ITEMS, NUM_ITEMS - 1]))
        # Scores are the item ids, 10 and 9 are excluded -> 8, 7, 6.
        np.testing.assert_array_equal(rec.items, np.array([8, 7, 6]))
        assert not rec.degraded
        assert rec.fallbacks == 0

    def test_sentinel_tail_trimmed_when_list_runs_short(self):
        # 10 items, 8 in the history, top_n=5 -> only 2 rankable items;
        # the -inf padding the batch kernel would emit must be trimmed,
        # never recommended.
        service = make_service(
            [("primary", StubModel())],
            config=ServiceConfig(top_n=5, deadline=None),
        )
        history = np.arange(1, 9)
        rec = service.recommend(history)
        np.testing.assert_array_equal(rec.items, np.array([10, 9]))

    def test_all_items_excluded_is_a_rung_failure(self):
        service = make_service([("primary", StubModel())])
        with pytest.raises(AllRungsFailed):
            service.recommend(np.arange(1, NUM_ITEMS + 1))

    def test_wrong_score_shape_is_a_rung_failure(self):
        class WrongShape(StubModel):
            def score_batch(self, histories):
                return np.zeros((1, 3))

        service = make_service(
            [("bad", WrongShape()), ("good", StubModel())]
        )
        rec = service.recommend(np.array([1]))
        assert rec.rung == "good"


class NarrowStubModel(StubModel):
    """Score = item id, served narrow through a real index: the engine's
    retrieval re-ranks candidates from ``output_head`` and
    ``hidden_last``, and its dense fallback reaches ``score_batch``.
    The second index coordinate, which the query ignores, puts the
    ``apart`` items in a region of their own, so a two-list index
    probing one list retrieves only them."""

    name = "narrow"
    supports_retrieval = True

    def __init__(self, apart=(), **kwargs):
        super().__init__(**kwargs)
        self.weights = np.zeros((2, self.num_items + 1), dtype=np.float32)
        self.weights[0] = np.arange(self.num_items + 1)
        self.weights[1, 1:] = -1000.0
        self.weights[1, list(apart)] = 1000.0
        self.dense_calls = 0

    def output_head(self):
        return Tensor(self.weights), None

    def hidden_last(self, histories):
        return np.tile(np.float32([1.0, 0.0]), (len(histories), 1))

    def score_batch(self, histories):
        self.dense_calls += 1
        return super().score_batch(histories)


class TestNarrowShortRanking:
    """A narrow list shorter than ``top_n`` densifies whenever the
    catalogue could fill more of it."""

    def _recommend(self, candidates, history, top_n=5, apart=()):
        model = NarrowStubModel(apart)
        index = IndexConfig(nlist=2 if apart else 1, nprobe=1,
                            candidates=candidates)
        service = make_service(
            [("primary", model)],
            config=ServiceConfig(top_n=top_n, deadline=None),
            engine=EngineConfig(index=index),
        )
        rec = service.recommend(np.asarray(history, dtype=np.int64))
        return rec, service.stats(), model

    def test_history_thinning_candidates_falls_back_dense(self):
        # Six candidates (10..5) minus three history items leave
        # 3 < top_n = 5.
        rec, stats, model = self._recommend(6, history=[10, 9, 8])
        np.testing.assert_array_equal(rec.items, [7, 6, 5, 4, 3])
        assert model.dense_calls == 1
        assert stats["dense_fallbacks"] == 1
        assert stats["narrow_ranked"] == 0

    def test_thin_probe_falls_back_dense(self):
        # The probed list holds only items 10 and 9: two real
        # candidates in six slots; nothing excluded.
        rec, stats, model = self._recommend(
            6, history=[1], top_n=3, apart=(9, 10)
        )
        np.testing.assert_array_equal(rec.items, [10, 9, 8])
        assert model.dense_calls == 1
        assert stats["dense_fallbacks"] == 1

    def test_full_list_stays_narrow(self):
        rec, stats, model = self._recommend(6, history=[1])
        np.testing.assert_array_equal(rec.items, [10, 9, 8, 7, 6])
        assert model.dense_calls == 0
        assert stats["narrow_ranked"] == 1

    def test_candidate_width_below_top_n_stays_narrow(self):
        # Every one of the C = 2 slots is ranked: the list is as long as
        # the retrieval width allows, so no dense forward.
        rec, stats, model = self._recommend(2, history=[1], top_n=3)
        np.testing.assert_array_equal(rec.items, [10, 9])
        assert model.dense_calls == 0
        assert stats["dense_fallbacks"] == 0

    def test_exhausted_catalogue_stays_narrow(self):
        # History covers 8 of 10 items: only two are rankable anywhere,
        # and the narrow list already has both.
        rec, stats, model = self._recommend(6, history=np.arange(1, 9))
        np.testing.assert_array_equal(rec.items, [10, 9])
        assert model.dense_calls == 0
        assert stats["narrow_ranked"] == 1


class TestFallbackChain:
    def test_error_falls_back(self):
        service = make_service(
            [("primary", FailingModel()), ("fallback", StubModel())]
        )
        rec = service.recommend(np.array([1]))
        assert rec.rung == "fallback"
        assert rec.degraded
        assert rec.fallbacks == 1
        stats = service.stats()
        assert stats["rungs"]["primary"]["failures"]["error"] == 1
        assert stats["fallbacks"] == 1

    def test_nan_scores_fall_back(self):
        service = make_service(
            [("primary", NaNModel()), ("fallback", StubModel())]
        )
        rec = service.recommend(np.array([1]))
        assert rec.rung == "fallback"
        stats = service.stats()
        assert stats["rungs"]["primary"]["failures"]["non_finite"] == 1

    def test_all_rungs_failing_raises_with_causes(self):
        service = make_service(
            [("a", FailingModel()), ("b", NaNModel())]
        )
        with pytest.raises(AllRungsFailed) as info:
            service.recommend(np.array([1]))
        assert set(info.value.causes) == {"a", "b"}
        stats = service.stats()
        assert stats["exhausted"] == 1
        assert stats["accounted"]


class TestBreaker:
    def test_repeated_failures_trip_and_short_circuit(self):
        primary = FailingModel()
        service = make_service(
            [("primary", primary), ("fallback", StubModel())]
        )
        for _ in range(10):
            service.recommend(np.array([1]))
        stats = service.stats()
        assert stats["rungs"]["primary"]["breaker"]["state"] == "open"
        assert stats["rungs"]["primary"]["short_circuited"] > 0
        # Once open, the model stops being called at all.
        calls_when_open = primary.calls
        service.recommend(np.array([1]))
        assert primary.calls == calls_when_open

    def test_breaker_recloses_after_faults_clear(self):
        clock = FakeClock()
        primary = FailingModel(fail_first=3)  # heals after 3 calls
        service = make_service(
            [("primary", primary), ("fallback", StubModel())],
            clock=clock,
        )
        for _ in range(5):
            service.recommend(np.array([1]))
        assert service.breaker("primary").state == "open"
        clock.advance(1.5)  # past the cooldown -> half-open probes
        for _ in range(3):
            rec = service.recommend(np.array([1]))
        assert service.breaker("primary").state == CLOSED
        assert rec.rung == "primary"


class TestDeadline:
    def test_slow_rung_times_out_and_falls_back(self):
        clock = FakeClock()
        service = make_service(
            [("slow", SlowModel(clock, delay=0.6)),
             ("fast", StubModel())],
            clock=clock,
            config=ServiceConfig(top_n=3, deadline=0.5),
        )
        rec = service.recommend(np.array([1]))
        assert rec.rung == "fast"
        stats = service.stats()
        assert stats["rungs"]["slow"]["failures"]["timeout"] == 1

    def test_budget_spent_raises_deadline_exceeded(self):
        clock = FakeClock()
        service = make_service(
            [("slow", SlowModel(clock, delay=0.6)),
             ("also-slow", SlowModel(clock, delay=0.6))],
            clock=clock,
            config=ServiceConfig(top_n=3, deadline=0.5),
        )
        with pytest.raises(DeadlineExceeded):
            service.recommend(np.array([1]))
        stats = service.stats()
        assert stats["deadline_exceeded"] == 1
        assert stats["accounted"]

    def test_budget_is_cumulative_across_rungs_and_retries(self):
        # Regression test for the per-call accounting bug: every rung
        # attempt used to get a *fresh* full budget (elapsed measured
        # from called_at, compared against the whole budget) and
        # retry.pause slept uncapped backoffs, so one request could
        # legally burn ~rungs x attempts x budget of wall clock.
        clock = FakeClock()
        retry = RetryPolicy(
            max_attempts=5, base_delay=0.04, multiplier=2.0, jitter=0.0,
            sleep=clock.advance,
        )
        rungs = [
            (name, FailingModel(error=TransientError("fault storm")))
            for name in ("primary", "secondary", "tertiary")
        ]
        service = make_service(
            rungs, clock=clock,
            config=ServiceConfig(top_n=3, deadline=0.1),
            retry=retry,
        )
        with pytest.raises(DeadlineExceeded):
            service.recommend(np.array([1]))
        # Old accounting slept 0.04 + 0.08 = 0.12s of backoff alone;
        # cumulative accounting caps the second backoff at the
        # remaining 0.06s and then stops retrying, so total in-service
        # time never exceeds the budget.
        assert clock.now <= 0.1
        stats = service.stats()
        assert stats["deadline_exceeded"] == 1
        assert stats["accounted"]
        # After the budget is spent the later rungs still get their one
        # attempt (a late-but-valid answer beats none), but no retries:
        # the remainder cannot cover base_delay.
        assert stats["rungs"]["primary"]["attempts"] == 3
        assert stats["rungs"]["secondary"]["attempts"] == 1
        assert stats["rungs"]["tertiary"]["attempts"] == 1

    def test_slow_call_charged_against_remaining_budget(self):
        clock = FakeClock()

        class SlowFailingModel(SlowModel):
            def score_batch(self, histories):
                self.clock.advance(self.delay)
                raise RuntimeError("slow and broken")

        service = make_service(
            [("primary", SlowFailingModel(clock, delay=0.3)),
             ("mid", SlowModel(clock, delay=0.3)),
             ("fast", StubModel())],
            clock=clock,
            config=ServiceConfig(top_n=3, deadline=0.5),
        )
        rec = service.recommend(np.array([1]))
        # The mid rung's 0.3s call had only 0.2s of budget left.  The
        # old accounting compared it against the full 0.5s and served
        # it; cumulative accounting times it out and the instant fast
        # rung serves instead.
        assert rec.rung == "fast"
        stats = service.stats()
        assert stats["rungs"]["mid"]["failures"]["timeout"] == 1

    def test_per_request_deadline_override(self):
        clock = FakeClock()
        service = make_service(
            [("slow", SlowModel(clock, delay=0.6)),
             ("fast", StubModel())],
            clock=clock,
            config=ServiceConfig(top_n=3, deadline=0.5),
        )
        # A generous per-request budget lets the slow rung answer.
        rec = service.recommend(np.array([1]), deadline=10.0)
        assert rec.rung == "slow"


class TestRetry:
    def test_transient_error_retried_in_place(self):
        primary = FailingModel(
            error=TransientError("hot reload in progress"), fail_first=1
        )
        service = make_service(
            [("primary", primary), ("fallback", StubModel())],
            retry=no_sleep_retry(attempts=2),
        )
        rec = service.recommend(np.array([1]))
        assert rec.rung == "primary"
        stats = service.stats()
        assert stats["rungs"]["primary"]["attempts"] == 2
        assert stats["rungs"]["primary"]["failures"]["error"] == 1
        assert stats["fallbacks"] == 0

    def test_permanent_error_not_retried(self):
        primary = FailingModel()  # plain RuntimeError
        service = make_service(
            [("primary", primary), ("fallback", StubModel())],
            retry=no_sleep_retry(attempts=3),
        )
        rec = service.recommend(np.array([1]))
        assert rec.rung == "fallback"
        assert primary.calls == 1


class TestWindowFaultAccounting:
    """A window's failed prefetch chunk stands in for the first scoring
    attempt of each of its requests, and is booked as one."""

    @pytest.mark.parametrize(
        "engine", [EngineConfig(), EngineConfig(cache_capacity=0)],
        ids=["cache", "no-cache"],
    )
    def test_failed_prefetch_books_an_error_and_trips_the_breaker(
        self, engine
    ):
        primary = FailingModel(error=TransientError("flaky"), fail_first=1)
        service = make_service(
            [("primary", primary), ("fallback", StubModel())],
            retry=no_sleep_retry(attempts=3),
            engine=engine,
            min_calls=1,
        )
        [rec] = service.recommend_many([np.array([1, 2])])
        # Retried in place: the second forward answers.
        assert rec.rung == "primary"
        stats = service.stats()
        assert stats["rungs"]["primary"]["engine"]["batcher"]["flushes"] == 2
        assert stats["rungs"]["primary"]["failures"] == {"error": 1}
        assert stats["rungs"]["primary"]["attempts"] == 2
        assert service.breaker("primary").times_opened == 1

    def test_every_request_of_the_failed_chunk_books_its_failure(self):
        primary = FailingModel(error=TransientError("flaky"), fail_first=1)
        service = make_service(
            [("primary", primary), ("fallback", StubModel())],
            retry=no_sleep_retry(attempts=2),
            min_calls=10,
        )
        histories = [np.array([1]), np.array([2]), np.array([3])]
        results = service.recommend_many(histories)
        assert [rec.rung for rec in results] == ["primary"] * 3
        rung = service.stats()["rungs"]["primary"]
        assert rung["failures"] == {"error": 3}
        assert rung["attempts"] == 6
        assert rung["successes"] == 3

    def test_permanent_prefetch_error_falls_through(self):
        primary = FailingModel(error=RuntimeError("down"), fail_first=1)
        service = make_service(
            [("primary", primary), ("fallback", StubModel())],
            retry=no_sleep_retry(attempts=3),
        )
        [rec] = service.recommend_many([np.array([1])])
        # Not transient: no retry, the fallback answers.
        assert rec.rung == "fallback" and rec.degraded
        primary_stats = service.stats()["rungs"]["primary"]
        assert primary_stats["failures"] == {"error": 1}
        assert primary_stats["engine"]["batcher"]["flushes"] == 1


class TestOperations:
    def test_swap_model_resets_breaker(self):
        service = make_service(
            [("primary", FailingModel()), ("fallback", StubModel())]
        )
        for _ in range(6):
            service.recommend(np.array([1]))
        assert service.breaker("primary").state == "open"
        service.swap_model("primary", StubModel())
        assert service.breaker("primary").state == CLOSED
        assert service.recommend(np.array([1])).rung == "primary"

    def test_unknown_rung_name_raises(self):
        service = make_service([("primary", StubModel())])
        with pytest.raises(KeyError, match="no rung named"):
            service.swap_model("nope", StubModel())

    def test_reload_rung_from_checkpoint(self, tmp_path):
        from repro.models import SASRec
        from repro.nn import save_checkpoint

        config = dict(num_items=NUM_ITEMS, max_length=4, dim=8,
                      num_blocks=1, seed=0)
        path = save_checkpoint(SASRec(**config), tmp_path / "m.npz",
                               config=config)
        service = make_service(
            [("primary", FailingModel()), ("fallback", StubModel())]
        )
        service.reload_rung("primary", path, {"SASRec": SASRec})
        rec = service.recommend(np.array([1, 2]))
        assert rec.rung == "primary"

    def test_reload_rejects_corrupt_checkpoint_and_keeps_serving(
        self, tmp_path
    ):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"definitely not a checkpoint")
        service = make_service([("primary", StubModel())])
        with pytest.raises(CheckpointError):
            service.reload_rung("primary", bad, {})
        assert service.recommend(np.array([1])).rung == "primary"

    def test_warm_programs_covers_retrieval_flushes(self):
        # A respawned replica warms before rejoining: with an index
        # configured, its first full flush must replay, not trace.
        from repro.models import SASRec
        from repro.retrieval import IndexConfig
        from repro.serve import EngineConfig
        from repro.tensor.compile import programs_for

        num_items, max_batch = 40, 8
        model = SASRec(num_items, 6, dim=8, num_blocks=1, seed=0,
                       tie_weights=False)
        service = RecommendService(
            [("primary", model)],
            num_items=num_items,
            config=ServiceConfig(deadline=None, top_n=3),
            engine=EngineConfig(
                max_batch=max_batch,
                index=IndexConfig(nlist=4, nprobe=2, candidates=16,
                                  seed=0),
            ),
        )
        assert service.warm_programs([max_batch]) == 1
        misses = programs_for(model).misses
        rng = np.random.default_rng(0)
        histories = [
            rng.integers(1, num_items + 1, size=3) for _ in range(max_batch)
        ]
        results = service.recommend_many(histories)
        assert all(len(result.items) == 3 for result in results)
        assert service.stats()["narrow_ranked"] == max_batch
        assert programs_for(model).misses == misses


class TestAcceptance:
    """The ISSUE's acceptance scenario, deterministic end to end."""

    def test_every_request_served_under_faults_and_breaker_recloses(self):
        clock = FakeClock()
        injector = FaultInjector(error_rate=0.4, nan_rate=0.3,
                                 latency_rate=0.2, latency=0.3,
                                 seed=11, sleep=clock.advance)
        primary = FaultyRecommender(StubModel(), injector)
        service = make_service(
            [("primary", primary),
             ("secondary", StubModel(offset=0.5)),
             ("pop", StubModel(offset=1.0))],
            clock=clock,
            config=ServiceConfig(top_n=3, deadline=0.25),
            retry=no_sleep_retry(attempts=2),
            # One history, sent again and again: a cache would answer
            # before the faulty model is reached.
            engine=EngineConfig(cache_capacity=0),
            cooldown=0.5,
        )
        history = np.array([1, 2])
        # Faulty phase: every single request must still produce a valid
        # finite ranking from some rung.
        for index in range(200):
            rec = service.recommend(history)
            items = np.asarray(rec.items)
            assert items.size > 0
            assert ((items >= 1) & (items <= NUM_ITEMS)).all()
            assert len(np.unique(items)) == len(items)
            assert not np.isin(items, history).any()
            clock.advance(0.01)  # requests arrive over time
        stats = service.stats()
        assert stats["requests"] == 200
        assert stats["served"] == 200
        assert stats["accounted"]
        assert service.breaker("primary").times_opened > 0
        assert stats["fallbacks"] > 0
        # Latency spikes actually exceeded the deadline -> timeouts.
        failures = stats["rungs"]["primary"]["failures"]
        assert failures.get("error", 0) > 0
        assert failures.get("non_finite", 0) > 0
        assert failures.get("timeout", 0) > 0

        # Faults clear: the breaker must re-close and the primary must
        # take traffic back.
        injector.disable()
        clock.advance(1.0)  # past the cooldown
        served_before = stats["served_by_rung"].get("primary", 0)
        for _ in range(20):
            service.recommend(history)
            clock.advance(0.01)
        stats = service.stats()
        assert service.breaker("primary").state == CLOSED
        assert stats["served_by_rung"]["primary"] > served_before
        assert stats["requests"] == 220
        assert stats["served"] == 220
        assert stats["accounted"]
