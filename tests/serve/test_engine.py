"""The inference engine: ScoreCache LRU accounting, chunked-forward
determinism, and the headline invariant — batched serving through
`InferenceEngine` / `recommend_many` is bitwise-identical to the
one-at-a-time path, including under fault-driven degradation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import SASRec
from repro.retrieval import IndexConfig, TopScores
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    InvalidRequest,
    Recommendation,
    RecommendService,
    RetryPolicy,
    ScoreCache,
    ServiceConfig,
)
from repro.tensor import tape_node_count
from tests.faults import FaultInjector, FaultyRecommender

from .conftest import (
    NUM_ITEMS,
    FakeClock,
    StubModel,
    assert_same_window,
    assert_window_parity,
    window_forwards,
)

# ----------------------------------------------------------------------
# ScoreCache
# ----------------------------------------------------------------------


class TestScoreCache:
    def test_miss_then_hit_counters(self):
        cache = ScoreCache(capacity=4)
        row = np.arange(3.0)
        assert cache.get("a") is None
        cache.put("a", row)
        assert np.array_equal(cache.get("a"), row)
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_get_returns_a_read_only_entry(self):
        cache = ScoreCache(capacity=2)
        cache.put("a", np.arange(3.0))
        stolen = cache.get("a")
        with pytest.raises(ValueError, match="read-only"):
            stolen[:] = -1.0
        assert np.array_equal(cache.get("a"), np.arange(3.0))

    def test_lru_eviction_order(self):
        cache = ScoreCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.ones(1))
        cache.get("a")  # 'a' becomes most-recently-used
        cache.put("c", np.full(1, 2.0))  # evicts 'b'
        assert cache.evictions == 1
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_contains_counts_nothing(self):
        cache = ScoreCache(capacity=2)
        cache.put("a", np.zeros(1))
        assert "a" in cache and "b" not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_zero_capacity_disables(self):
        cache = ScoreCache(capacity=0)
        cache.put("a", np.zeros(1))
        assert len(cache) == 0

    def test_clear_counts_invalidation(self):
        cache = ScoreCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.clear()
        assert len(cache) == 0 and cache.invalidations == 1

    def test_snapshot_shape(self):
        cache = ScoreCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.get("a")
        cache.get("b")
        snap = cache.snapshot()
        assert snap["size"] == 1 and snap["capacity"] == 2
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5

    def test_put_refreshes_existing_key(self):
        # Regression (satellite fix): a re-put of a live key used to
        # keep the OLD payload, silently serving stale scores for as
        # long as the entry stayed hot.
        cache = ScoreCache(capacity=2)
        cache.put("a", np.zeros(3))
        cache.put("a", np.ones(3))
        assert len(cache) == 1
        np.testing.assert_array_equal(cache.get("a"), np.ones(3))

    def test_put_refresh_updates_byte_accounting(self):
        cache = ScoreCache(capacity=4, capacity_bytes=1024)
        cache.put("a", np.zeros(4))   # 32 bytes
        assert cache.bytes == 32
        cache.put("a", np.zeros(16))  # 128 bytes, replaces
        assert cache.bytes == 128 and len(cache) == 1

    def test_byte_budget_evicts_lru_until_under(self):
        cache = ScoreCache(capacity=100, capacity_bytes=100)
        cache.put("a", np.zeros(5))  # 40 bytes
        cache.put("b", np.zeros(5))  # 80 bytes total
        cache.get("a")               # 'a' becomes MRU
        cache.put("c", np.zeros(5))  # 120 -> evict 'b' (LRU)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.bytes == 80 and cache.evictions == 1

    def test_oversized_entry_refused_not_churned(self):
        cache = ScoreCache(capacity=10, capacity_bytes=64)
        cache.put("a", np.zeros(4))   # 32 bytes, fits
        cache.put("big", np.zeros(100))  # 800 bytes, can never fit
        assert "big" not in cache
        assert "a" in cache  # nothing was evicted for a hopeless entry
        assert cache.evictions == 0

    def test_narrow_entries_accounted_and_cloned(self):
        from repro.retrieval import TopScores

        entry = TopScores(
            np.array([[3, 5]]), np.array([[1.0, 2.0]], dtype=np.float32),
            width=11,
        )
        cache = ScoreCache(capacity=4, capacity_bytes=1024)
        cache.put("a", entry)
        assert cache.bytes == entry.nbytes
        # Mutating what the caller handed in never touches the stored
        # entry, and what it gets back cannot be written.
        entry.scores[0, 0] = 99.0
        got = cache.get("a")
        assert got.scores[0, 0] == 1.0
        for array in (got.ids, got.scores):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 5
        assert cache.get("a").scores[0, 0] == 1.0

    def test_clear_resets_bytes(self):
        cache = ScoreCache(capacity=4, capacity_bytes=1024)
        cache.put("a", np.zeros(8))
        cache.clear()
        assert cache.bytes == 0

    def test_byte_snapshot_fields(self):
        cache = ScoreCache(capacity=4, capacity_bytes=500)
        cache.put("a", np.zeros(5))
        cache.put("b", np.zeros(5))
        snap = cache.snapshot()
        assert snap["capacity_bytes"] == 500
        assert snap["bytes"] == 80
        assert snap["bytes_per_entry"] == 40.0

    def test_capacity_bytes_validated(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            ScoreCache(capacity=4, capacity_bytes=0)
        with pytest.raises(ValueError, match="capacity_bytes"):
            EngineConfig(cache_capacity_bytes=-1)


# ----------------------------------------------------------------------
# Chunked forwards
# ----------------------------------------------------------------------


class RecordingModel:
    """Score = last item id, broadcast over a 4-wide row; records the
    exact batches it was called with."""

    def __init__(self, fail_times: int = 0):
        self.batches: list[list[np.ndarray]] = []
        self.fail_times = fail_times

    def score_batch(self, histories):
        self.batches.append([h.copy() for h in histories])
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("scorer exploded")
        return np.stack([
            np.full(4, float(history[-1])) for history in histories
        ])


class TestChunkedForwards:
    def test_fifo_order_and_chunking(self):
        model = RecordingModel()
        engine = InferenceEngine(
            model, EngineConfig(max_batch=3, cache_capacity=0)
        )
        scores = engine.score_batch([np.array([i]) for i in range(1, 8)])
        assert [len(b) for b in model.batches] == [3, 3, 1]
        flat = [int(h[0]) for batch in model.batches for h in batch]
        assert flat == [1, 2, 3, 4, 5, 6, 7]  # deterministic FIFO
        np.testing.assert_array_equal(scores[:, 0], np.arange(1.0, 8.0))

    def test_error_fans_out_to_whole_chunk(self):
        model = RecordingModel(fail_times=1)
        engine = InferenceEngine(model, EngineConfig(max_batch=2))
        # The first chunk fails as a whole; the second still scores.
        entries = engine.prefetch([np.array([i]) for i in (1, 2, 3)])
        assert isinstance(entries[0], RuntimeError)
        assert entries[1] is entries[0]
        np.testing.assert_array_equal(entries[2], np.full(4, 3.0))
        assert [len(b) for b in model.batches] == [2, 1]
        assert len(engine.cache) == 1
        engine.score_batch([np.array([i]) for i in (1, 2, 3)])
        assert [len(b) for b in model.batches] == [2, 1, 2]
        model.fail_times = 1
        with pytest.raises(RuntimeError, match="scorer exploded"):
            engine.score_batch([np.array([4]), np.array([5])])
        assert len(engine.cache) == 3

    def test_row_count_mismatch_is_an_error(self):
        class OneRow:
            def score_batch(self, histories):
                return np.zeros((1, 4))

        engine = InferenceEngine(OneRow(), EngineConfig(max_batch=8))
        with pytest.raises(ValueError, match="rows"):
            engine.score_batch([np.array([1]), np.array([2])])
        entries = engine.prefetch([np.array([1]), np.array([2])])
        assert all(isinstance(entry, ValueError) for entry in entries)
        assert len(engine.cache) == 0


# ----------------------------------------------------------------------
# InferenceEngine
# ----------------------------------------------------------------------


class TestInferenceEngine:
    def test_batches_underlying_calls(self):
        model = StubModel()
        engine = InferenceEngine(
            model, EngineConfig(max_batch=16, cache_capacity=0)
        )
        histories = [  # 40 distinct histories
            np.array([i // NUM_ITEMS + 1, i % NUM_ITEMS + 1])
            for i in range(40)
        ]
        scores = engine.score_batch(histories)
        assert scores.shape == (40, NUM_ITEMS + 1)
        assert model.calls == 3  # ceil(40 / 16) forwards, not 40

    def test_cache_absorbs_repeat_traffic(self):
        model = StubModel()
        engine = InferenceEngine(model, EngineConfig(max_batch=8))
        history = np.array([1, 2, 3])
        first = engine.score_batch([history])
        again = engine.score_batch([history])
        assert model.calls == 1
        assert np.array_equal(first, again)
        assert engine.cache.hits == 1 and engine.cache.misses == 1

    def test_duplicate_histories_in_one_batch_share_a_forward_row(self):
        model = StubModel()
        engine = InferenceEngine(model, EngineConfig(max_batch=8))
        h = np.array([1, 2])
        scores = engine.score_batch([h, h, h])
        assert scores.shape == (3, NUM_ITEMS + 1)
        assert model.calls == 1

    def test_non_finite_rows_are_never_cached(self):
        class NaNOnce(StubModel):
            def score_batch(self, histories):
                scores = super().score_batch(histories)
                if self.calls == 1:
                    scores[:, 1::2] = np.nan
                return scores

        model = NaNOnce()
        engine = InferenceEngine(model, EngineConfig(max_batch=8))
        poisoned = engine.score_batch([np.array([1])])
        assert np.isnan(poisoned).any()
        assert len(engine.cache) == 0
        clean = engine.score_batch([np.array([1])])
        assert np.isfinite(clean[:, 1:]).all()
        assert model.calls == 2 and len(engine.cache) == 1

    def test_set_model_invalidates_cache_and_bumps_version(self):
        engine = InferenceEngine(StubModel(), EngineConfig(max_batch=4))
        engine.score_batch([np.array([1])])
        assert len(engine.cache) == 1
        replacement = StubModel(offset=5.0)
        engine.set_model(replacement)
        assert engine.model_version == 1 and len(engine.cache) == 0
        scores = engine.score_batch([np.array([1])])
        assert scores[0, 1] == 1.0 + 5.0  # served by the new model

    def test_wrapping_leaves_the_model_untouched(self):
        """The engine never writes to the model it wraps, so every other
        holder of that model (an unwrapped rung, a retrieval refresh)
        sees it exactly as it was."""
        model = SASRec(NUM_ITEMS, max_length=4, dim=8, num_blocks=1)
        before = dict(vars(model))
        engine = InferenceEngine(model, EngineConfig(max_batch=4))
        engine.set_model(model)
        after = vars(model)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())

    def test_score_returns_one_narrow_row(self):
        model = SASRec(NUM_ITEMS, max_length=4, dim=8, num_blocks=1)
        engine = InferenceEngine(model, EngineConfig(
            index=IndexConfig(nlist=2, nprobe=1, candidates=4, seed=0)
        ))
        row = engine.score(np.array([1, 2]))
        assert isinstance(row, TopScores) and len(row) == 1

    def test_key_shares_suffix_beyond_model_window(self):
        model = SASRec(NUM_ITEMS, max_length=4, dim=8, num_blocks=1)
        engine = InferenceEngine(model, EngineConfig(max_batch=4))
        long = np.arange(1, 9) % NUM_ITEMS + 1  # 8 items
        suffix = long[-4:]  # what the model actually sees
        engine.score_batch([long])
        engine.score_batch([suffix])
        assert engine.cache.hits == 1  # same window -> same entry

    def test_model_errors_propagate(self):
        class Exploding(StubModel):
            def score_batch(self, histories):
                raise RuntimeError("boom")

        engine = InferenceEngine(Exploding(), EngineConfig(max_batch=4))
        with pytest.raises(RuntimeError, match="boom"):
            engine.score_batch([np.array([1])])

    def test_prefetch_warms_and_swallows_errors(self):
        model = StubModel()
        engine = InferenceEngine(model, EngineConfig(max_batch=8))
        rows = engine.prefetch([np.array([1]), np.array([2])])
        for row in rows:
            np.testing.assert_array_equal(row, np.arange(NUM_ITEMS + 1.0))
        assert len(engine.cache) == 2
        assert engine.cache.misses == 2 and engine.cache.hits == 0
        # real traffic is now pure cache hits
        engine.score_batch([np.array([1]), np.array([2])])
        assert model.calls == 1 and engine.cache.hits == 2

        class Exploding(StubModel):
            def score_batch(self, histories):
                raise RuntimeError("boom")

        broken = InferenceEngine(Exploding(), EngineConfig(max_batch=8))
        (entry,) = broken.prefetch([np.array([1])])  # returned, not raised
        assert isinstance(entry, RuntimeError) and len(broken.cache) == 0

    def test_no_tape_even_for_unguarded_models(self):
        class TapeBuilder:
            """Scores through live Tensor parameters *without* its own
            no_grad — the engine must be what prevents tape growth."""

            def __init__(self, dim=4, seed=0):
                from repro.nn import Parameter

                rng = np.random.default_rng(seed)
                self.weight = Parameter(rng.normal(size=(dim, NUM_ITEMS + 1)))
                self.features = Parameter(rng.normal(size=(1, dim)))

            def score_batch(self, histories):
                from repro.tensor import concatenate

                rows = concatenate(
                    [self.features for _ in histories], axis=0
                )
                return (rows @ self.weight).numpy()

        engine = InferenceEngine(
            TapeBuilder(), EngineConfig(max_batch=4, cache_capacity=0)
        )
        before = tape_node_count()
        engine.score_batch([np.array([1]), np.array([2])])
        assert tape_node_count() == before

    def test_snapshot_shape(self):
        engine = InferenceEngine(StubModel(), EngineConfig(max_batch=4))
        engine.score_batch([np.array([1])])
        snap = engine.snapshot()
        assert snap["model_version"] == 0
        assert snap["cache"]["misses"] == 1
        assert set(snap["batcher"]) == {
            "max_batch", "flushes", "batched_requests", "largest_flush",
            "queued", "mean_flush_size",
        }
        assert snap["batcher"]["flushes"] == 1
        assert snap["batcher"]["max_batch"] == 4
        assert snap["batcher"]["queued"] == 0


# ----------------------------------------------------------------------
# Service integration: batched == sequential, bitwise
# ----------------------------------------------------------------------


NUM_REAL_ITEMS = 30


@pytest.fixture(scope="module")
def sasrec():
    model = SASRec(NUM_REAL_ITEMS, max_length=8, dim=16, num_blocks=1,
                   seed=3)
    model.eval()
    return model


def make_service(model, engine=None, **config):
    return RecommendService(
        [("primary", model)],
        num_items=NUM_REAL_ITEMS,
        config=ServiceConfig(top_n=10, deadline=None, **config),
        engine=engine,
    )


def ragged_histories(seed, count=37):
    rng = np.random.default_rng(seed)
    histories = [
        rng.integers(1, NUM_REAL_ITEMS + 1, size=rng.integers(1, 14))
        for _ in range(count)
    ]
    # duplicate users: repeat a third of them verbatim
    histories += [histories[i].copy() for i in range(0, count, 3)]
    return histories


def window_keys(histories, window=8) -> int:
    """Distinct cache keys among ``histories`` for a model attending to
    ``window`` items."""
    return len({tuple(history[-window:]) for history in histories})


def distinct_histories(seed, count=64):
    """``count`` ragged histories that differ within an 8-item window."""
    rng = np.random.default_rng(seed)
    histories = []
    while window_keys(histories) < count:
        histories.append(
            rng.integers(1, NUM_REAL_ITEMS + 1, size=rng.integers(1, 14))
        )
        if window_keys(histories) < len(histories):
            histories.pop()
    return histories


#: The one-at-a-time path: one forward per request, nothing cached.
ONE_AT_A_TIME = EngineConfig(max_batch=1, cache_capacity=0)


class TestBatchedSequentialEquivalence:
    def test_engine_service_matches_plain_service_bitwise(self, sasrec):
        plain = make_service(sasrec, engine=ONE_AT_A_TIME)
        engined = make_service(
            sasrec, engine=EngineConfig(max_batch=8)
        )
        for history in ragged_histories(seed=0):
            a = plain.recommend(history)
            b = engined.recommend(history)
            assert np.array_equal(a.items, b.items)
            assert a.rung == b.rung

    def test_recommend_many_matches_recommend_loop_bitwise(self, sasrec):
        service = make_service(sasrec, engine=EngineConfig(max_batch=8))
        histories = ragged_histories(seed=1)
        sequential = [service.recommend(h) for h in histories]
        # fresh service so the batch path starts from a cold cache
        batched_service = make_service(
            sasrec, engine=EngineConfig(max_batch=8)
        )
        batched = batched_service.recommend_many(histories)
        assert len(batched) == len(sequential)
        for one, many in zip(sequential, batched):
            assert isinstance(many, Recommendation)
            assert np.array_equal(one.items, many.items)
        # the batch really was coalesced, not served one-by-one: one
        # lookup per request, one row per distinct key
        snap = batched_service.stats()["rungs"]["primary"]["engine"]
        assert snap["batcher"]["largest_flush"] == 8
        assert snap["batcher"]["batched_requests"] == window_keys(histories)
        assert snap["cache"]["misses"] == len(histories)
        assert snap["cache"]["hits"] == 0

    def test_cache_counters_count_window_lookups(self, sasrec):
        service = make_service(sasrec, engine=EngineConfig(max_batch=32))
        window = distinct_histories(seed=20)
        service.recommend_many(window)
        cache = service.stats()["rungs"]["primary"]["engine"]["cache"]
        assert (cache["misses"], cache["hits"]) == (64, 0)
        service.recommend_many(window)
        cache = service.stats()["rungs"]["primary"]["engine"]["cache"]
        assert (cache["misses"], cache["hits"]) == (64, 64)
        assert cache["hit_rate"] == 0.5
        assert window_forwards(service) == (2, 64)

    def test_recommend_many_returns_errors_in_place(self, sasrec):
        service = make_service(sasrec, engine=EngineConfig(max_batch=4))
        histories = [
            np.array([1, 2, 3]),
            np.array([], dtype=np.int64),  # invalid: empty
            np.array([4, 5]),
        ]
        results = service.recommend_many(histories)
        assert isinstance(results[0], Recommendation)
        assert isinstance(results[1], InvalidRequest)
        assert isinstance(results[2], Recommendation)
        stats = service.stats()
        assert stats["rejected"] == 1 and stats["accounted"]

    def test_degradation_under_faults_matches_sequential(self, sasrec):
        """With the primary rung hard-failing, batched requests must
        degrade to the fallback rung exactly like sequential ones."""

        def build(engine):
            faulty = FaultyRecommender(
                sasrec,
                FaultInjector(error_rate=1.0, seed=0),
            )
            return RecommendService(
                [("primary", faulty), ("fallback", StubModel(NUM_REAL_ITEMS))],
                num_items=NUM_REAL_ITEMS,
                config=ServiceConfig(top_n=5, deadline=None),
                retry=RetryPolicy(max_attempts=1),
                engine=engine,
            )

        histories = ragged_histories(seed=2, count=11)
        sequential = [build(ONE_AT_A_TIME).recommend(h) for h in histories]
        batched = build(EngineConfig(max_batch=4)).recommend_many(histories)
        for one, many in zip(sequential, batched):
            assert isinstance(many, Recommendation)
            assert many.rung == "fallback" == one.rung
            assert many.degraded
            assert np.array_equal(one.items, many.items)

    def test_swap_model_through_service_invalidates_cache(self, sasrec):
        service = make_service(sasrec, engine=EngineConfig(max_batch=4))
        history = np.array([1, 2, 3])
        before = service.recommend(history)
        fresh = SASRec(NUM_REAL_ITEMS, max_length=8, dim=16, num_blocks=1,
                       seed=99)
        fresh.eval()
        service.swap_model("primary", fresh)
        engine = service._rung("primary").engine
        assert engine.model_version == 1 and len(engine.cache) == 0
        after = service.recommend(history)
        direct = make_service(fresh).recommend(history)
        assert np.array_equal(after.items, direct.items)
        assert isinstance(before, Recommendation)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=NUM_REAL_ITEMS),
                min_size=1, max_size=12,
            ),
            min_size=1, max_size=24,
        ),
        st.sampled_from([0, 1, 3, 4096]),
        st.integers(min_value=1, max_value=8),
    )
    def test_property_batched_rankings_bitwise_identical(
        self, raw, cache_capacity, max_batch
    ):
        # Window batching does not depend on the cache: whatever its
        # size, each distinct key is scored once, max_batch at a time.
        model = _property_model()
        histories = [np.array(h, dtype=np.int64) for h in raw]
        sequential = make_service(model, engine=ONE_AT_A_TIME)
        engined = make_service(model, engine=EngineConfig(
            max_batch=max_batch, cache_capacity=cache_capacity
        ))
        loop = [sequential.recommend(h) for h in histories]
        many = engined.recommend_many(histories)
        for one, result in zip(loop, many):
            assert isinstance(result, Recommendation)
            assert np.array_equal(one.items, result.items)
        flushes, _ = window_forwards(engined)
        assert flushes == -(-window_keys(histories) // max_batch)


class TestWindowParity:
    """``recommend_many`` ranks a window in one call, yet every result
    and service counter equals prefetch + a ``recommend`` loop (dense
    rows).  The loop's counters include each failed prefetch's booked
    failure (see ``serve_loop``)."""

    @staticmethod
    def _build(sasrec, engine=None, clock=None, faulty=None, **config):
        def build():
            primary = sasrec
            if faulty is not None:
                primary = FaultyRecommender(sasrec, faulty())
            kwargs = {} if clock is None else {"clock": clock()}
            return RecommendService(
                [("primary", primary),
                 ("fallback", StubModel(NUM_REAL_ITEMS))],
                num_items=NUM_REAL_ITEMS,
                config=ServiceConfig(top_n=10, deadline=None, **config),
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                engine=engine or EngineConfig(max_batch=8),
                **kwargs,
            )
        return build

    def test_dense_rows_with_duplicates(self, sasrec):
        histories = ragged_histories(seed=4)
        assert assert_window_parity(self._build(sasrec), histories) == 0

    def test_invalid_requests_interleaved(self, sasrec):
        histories = ragged_histories(seed=5, count=9)
        histories[1:1] = [np.array([], dtype=np.int64)]
        histories[4:4] = [np.array([1, NUM_REAL_ITEMS + 3])]
        histories[7:7] = [np.array([[1, 2]])]
        histories.append(np.array([0.5, 2.0]))
        assert_window_parity(self._build(sasrec), histories)

    def test_invalid_top_n_rejects_every_request(self, sasrec):
        assert_window_parity(
            self._build(sasrec), ragged_histories(seed=6, count=4), top_n=0
        )

    def test_rows_with_nothing_rankable_take_the_slow_path(self, sasrec):
        # max_history=NUM_REAL_ITEMS lets a history exclude the whole
        # catalogue: its dense list is empty, so that request is ranked
        # again on its own, fails, and the fallback rung ranks it too.
        everything = np.arange(1, NUM_REAL_ITEMS + 1)
        histories = ragged_histories(seed=7, count=6)
        histories[2:2] = [everything]
        assert assert_window_parity(
            self._build(sasrec, max_history=NUM_REAL_ITEMS), histories
        ) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nan_faults_same_injector_seed(self, sasrec, seed):
        assert_window_parity(
            self._build(
                sasrec,
                faulty=lambda: FaultInjector(nan_rate=0.3, seed=seed),
            ),
            ragged_histories(seed=8 + seed, count=15),
        )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_error_faults_same_injector_seed(self, sasrec, seed):
        # Failed chunks book one error per request and retry in place.
        assert_window_parity(
            self._build(
                sasrec, engine=EngineConfig(max_batch=4),
                faulty=lambda: FaultInjector(error_rate=0.4, seed=seed),
            ),
            ragged_histories(seed=20 + seed, count=15),
        )

    def test_half_open_primary_breaker(self, sasrec):
        def half_open(service):
            breaker = service.breaker("primary")
            for _ in range(breaker.min_calls):
                breaker.record_failure()
            assert breaker.state == "open"
            service._clock.advance(breaker.cooldown)
            assert breaker.state == "half_open"

        assert_window_parity(
            self._build(sasrec, clock=FakeClock),
            ragged_histories(seed=11, count=10),
            prepare=half_open,
        )

    def test_open_primary_breaker(self, sasrec):
        def trip(service):
            breaker = service.breaker("primary")
            for _ in range(breaker.min_calls):
                breaker.record_failure()

        assert_window_parity(
            self._build(sasrec, clock=FakeClock),
            ragged_histories(seed=12, count=10),
            prepare=trip,
        )

    # Without a cache, or with one smaller than the window, the window
    # still scores each request once: the same two forwards of 64 rows
    # and the same rankings as with the default cache.
    def test_cache_disabled(self, sasrec):
        assert self._same_window_as_default_cache(sasrec, 0, 13) == (2, 64)

    def test_cache_smaller_than_the_window(self, sasrec):
        assert self._same_window_as_default_cache(sasrec, 3, 14) == (2, 64)

    def _same_window_as_default_cache(self, sasrec, capacity, seed):
        return assert_same_window(
            self._build(sasrec, engine=EngineConfig(max_batch=32)),
            self._build(sasrec, engine=EngineConfig(
                max_batch=32, cache_capacity=capacity
            )),
            distinct_histories(seed=seed),
        )


_PROPERTY_MODEL = None


def _property_model():
    global _PROPERTY_MODEL
    if _PROPERTY_MODEL is None:
        _PROPERTY_MODEL = SASRec(
            NUM_REAL_ITEMS, max_length=8, dim=16, num_blocks=1, seed=7
        )
        _PROPERTY_MODEL.eval()
    return _PROPERTY_MODEL
