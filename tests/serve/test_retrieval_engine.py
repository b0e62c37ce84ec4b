"""Two-stage retrieval through the serving stack.

Pins the guarantees: the exact path, the engine without an index, is
*bitwise* the model's own dense scoring (alone, under chunked forwards,
and under fault degradation), the approximate path serves the candidate-native
narrow contract whose ranking is bitwise-identical to ranking the
full-width scattered row, and a `set_model` hot-swap refreshes the
index incrementally while atomically invalidating the score cache
(stale-score serving impossible; stale centroids can only cost
candidate recall, never score correctness).
"""

import numpy as np
import pytest

from repro.models import SASRec
from repro.retrieval import IndexConfig, RetrievalEngine, TopScores
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    RecommendService,
    ServiceConfig,
)
from repro.tensor import Tensor, set_default_dtype
from tests.faults import FaultInjector, FaultyRecommender

from .conftest import (
    FakeClock,
    StubModel,
    assert_same_window,
    assert_window_parity,
)

NUM_ITEMS = 60
MAX_LENGTH = 12


@pytest.fixture(scope="module", autouse=True)
def float32_default():
    previous = set_default_dtype(np.float32)
    yield
    set_default_dtype(previous)


@pytest.fixture(scope="module")
def model():
    return SASRec(
        NUM_ITEMS, MAX_LENGTH, dim=16, num_blocks=1, seed=0,
        tie_weights=False,
    )


@pytest.fixture(scope="module")
def histories():
    rng = np.random.default_rng(9)
    return [
        rng.integers(1, NUM_ITEMS + 1, size=int(n)).astype(np.int64)
        for n in rng.integers(2, MAX_LENGTH + 4, size=12)
    ]


APPROX = IndexConfig(nlist=6, nprobe=2, candidates=16, seed=0)


class _ScatteredRows:
    """Full-width reference: the approximate path's candidates scattered
    into ``-inf`` rows (``TopScores.to_dense``), served as a plain dense
    model so a service ranks it through the dense path."""

    name = "scattered"
    max_length = MAX_LENGTH

    def __init__(self, model, config=APPROX):
        self._retrieval = RetrievalEngine(model, config)

    def score_batch(self, histories):
        return self._retrieval.score_topk(histories).to_dense()


def _chunked(scorer, histories, size=4):
    """``scorer.score_batch`` over ``size``-row chunks, as the engine
    forwards them: the rows stacked, or the first error raised (every
    chunk is scored either way, so fault draws are consumed alike)."""
    rows, errors = [], []
    for start in range(0, len(histories), size):
        try:
            rows.append(scorer.score_batch(histories[start:start + size]))
        except Exception as error:  # noqa: BLE001
            errors.append(error)
    if errors:
        raise errors[0]
    return np.concatenate(rows)


class TestExactModeBitwise:
    """The exact path is the engine without an index: its rows are
    bitwise the model's own ``score_batch``."""

    def test_direct_engine(self, model, histories):
        dense = model.score_batch(histories)
        engine = InferenceEngine(model, EngineConfig(cache_capacity=0))
        np.testing.assert_array_equal(engine.score_batch(histories), dense)
        assert engine.snapshot()["retrieval"] is None

    def test_under_micro_batcher(self, model, histories):
        engine = InferenceEngine(
            model, EngineConfig(max_batch=4, cache_capacity=0)
        )
        np.testing.assert_array_equal(
            engine.score_batch(histories), _chunked(model, histories)
        )
        assert engine.snapshot()["batcher"]["flushes"] == 3

    def test_under_fault_degradation(self, model, histories):
        # Same injector seed on both sides: the fault decision stream
        # must be consumed identically by the engine and by direct
        # calls, so degraded outputs stay bitwise equal too.
        def faulty():
            return FaultyRecommender(
                model, FaultInjector(nan_rate=0.5, seed=4)
            )

        engine = InferenceEngine(
            faulty(), EngineConfig(max_batch=4, cache_capacity=0)
        )
        direct = faulty()
        for chunk in (histories[:5], histories[5:]):
            np.testing.assert_array_equal(
                engine.score_batch(chunk), _chunked(direct, chunk)
            )
        assert direct.injector.injected["nan"] > 0

    def test_injected_errors_match(self, model, histories):
        def faulty():
            return FaultyRecommender(
                model, FaultInjector(error_rate=0.6, seed=2)
            )

        engine = InferenceEngine(
            faulty(), EngineConfig(max_batch=4, cache_capacity=0)
        )
        direct = faulty()
        for chunk in (histories[:4], histories[4:8], histories[8:]):
            outcomes = []
            for scorer in (engine, direct):
                try:
                    outcomes.append(_chunked(scorer, chunk))
                except Exception as error:  # noqa: BLE001
                    outcomes.append(type(error).__name__)
            if isinstance(outcomes[0], str):
                assert outcomes[0] == outcomes[1]
            else:
                np.testing.assert_array_equal(*outcomes)
        assert direct.injector.injected["error"] > 0


class TestApproximatePath:
    def test_full_width_rows_with_masked_non_candidates(
        self, model, histories
    ):
        engine = RetrievalEngine(model, APPROX)
        rows = engine.score_topk(histories).to_dense()
        assert rows.shape == (len(histories), NUM_ITEMS + 1)
        assert np.isneginf(rows[:, 0]).all()
        finite = np.isfinite(rows)
        assert (finite.sum(axis=1) <= APPROX.candidates).all()
        assert (finite.sum(axis=1) > 0).all()

    def test_candidate_scores_are_exact(self, model, histories):
        # "Exact re-rank" = the same GEMM inputs as dense scoring; the
        # C-column gather contracts in a different order than the full
        # GEMM, so equality is to float32 rounding, not bitwise (only
        # the engine without an index promises bitwise identity).
        engine = RetrievalEngine(model, APPROX)
        rows = engine.score_topk(histories).to_dense()
        dense = model.score_batch(histories)
        mask = np.isfinite(rows)
        np.testing.assert_allclose(
            rows[mask], dense[mask], rtol=0, atol=1e-5
        )

    def test_faulty_nan_rows_degrade_not_crash(self, model, histories):
        faulty = FaultyRecommender(
            model, FaultInjector(nan_rate=1.0, seed=0)
        )
        engine = RetrievalEngine(faulty, APPROX)
        rows = engine.score_topk(histories[:3]).scores
        # NaN-poisoned hidden states surface as NaN candidate scores —
        # the same non-finite signal the service's guard rejects.
        assert np.isnan(rows).any()

    def test_unsupported_model_is_rejected(self):
        class Dense:
            name = "dense-only"

            def score_batch(self, histories):
                return np.zeros((len(histories), NUM_ITEMS + 1))

        with pytest.raises(ValueError, match="does not support"):
            RetrievalEngine(Dense(), APPROX)

    def test_engine_falls_back_silently_for_unsupported(self, histories):
        class Dense:
            name = "dense-only"
            max_length = MAX_LENGTH

            def score_batch(self, histories):
                rows = np.tile(
                    np.arange(NUM_ITEMS + 1, dtype=np.float32),
                    (len(histories), 1),
                )
                rows[:, 0] = -np.inf
                return rows

        engine = InferenceEngine(
            Dense(), EngineConfig(cache_capacity=0, index=APPROX)
        )
        rows = engine.score_batch(histories[:2])
        assert np.isfinite(rows[:, 1:]).all()
        assert engine.snapshot()["retrieval"] is None


class TestNarrowBitwise:
    """Ranking the narrow candidate list is bitwise-identical to ranking
    the full-width scattered row, through every serving composition."""

    def _services(self, model, narrow_extra=None):
        """A narrow-path service and its full-width twin, whose rung
        serves ``score_topk(h).to_dense()`` rows through the dense
        ranking path."""
        def build(inner, index):
            return RecommendService(
                [("primary", inner)],
                num_items=NUM_ITEMS,
                config=ServiceConfig(deadline=None, top_n=5),
                engine=EngineConfig(max_batch=4, index=index),
            )

        def inner():
            return narrow_extra(model) if narrow_extra else model
        return (
            build(inner(), APPROX), build(_ScatteredRows(inner()), None)
        )

    def test_scatter_of_topk_is_bitwise_score_batch(
        self, model, histories
    ):
        # The full-width twin every test below ranks against serves
        # exactly the scatter of the narrow result.
        top = RetrievalEngine(model, APPROX).score_topk(histories)
        assert isinstance(top, TopScores)
        _, wide = self._services(model)
        np.testing.assert_array_equal(
            wide._rungs[0].engine.score_batch(histories), top.to_dense()
        )

    def test_probing_every_list_serves_narrow_rows(self, model, histories):
        # nprobe >= nlist scans every list: still the narrow contract,
        # with the whole catalogue as candidates.
        config = IndexConfig(nlist=1, nprobe=1, candidates=NUM_ITEMS)
        top = RetrievalEngine(model, config).score_topk(histories)
        assert isinstance(top, TopScores)
        np.testing.assert_array_equal(
            np.sort(top.ids, axis=1),
            np.tile(np.arange(1, NUM_ITEMS + 1), (len(histories), 1)),
        )

    def test_engine_serves_narrow_batches(self, model, histories):
        engine = InferenceEngine(
            model, EngineConfig(max_batch=4, index=APPROX)
        )
        top = engine.score_batch(histories)
        assert isinstance(top, TopScores)
        assert len(top) == len(histories)
        # Micro-batched fan-out + restacking reproduces the direct
        # narrow call bitwise.
        direct = RetrievalEngine(model, APPROX).score_topk(histories)
        np.testing.assert_array_equal(top.ids, direct.ids)
        np.testing.assert_array_equal(top.scores, direct.scores)

    def test_plain_requests_match_full_width(self, model, histories):
        narrow, wide = self._services(model)
        for history in histories:
            a = narrow.recommend(history)
            b = wide.recommend(history)
            np.testing.assert_array_equal(a.items, b.items)
            assert a.rung == b.rung
        assert narrow.stats()["narrow_ranked"] == len(histories)

    def test_cached_requests_match_full_width(self, model, histories):
        narrow, wide = self._services(model)
        first = [narrow.recommend(h).items for h in histories]
        cache = narrow._rungs[0].engine.cache
        hits_before = cache.hits
        for history, want in zip(histories, first):
            np.testing.assert_array_equal(
                narrow.recommend(history).items, want
            )
            np.testing.assert_array_equal(
                wide.recommend(history).items, want
            )
        assert cache.hits > hits_before
        assert cache.bytes > 0

    def test_recommend_many_matches_recommend_loop(
        self, model, histories
    ):
        narrow, wide = self._services(model)
        batched = narrow.recommend_many(histories)
        for history, result in zip(histories, batched):
            np.testing.assert_array_equal(
                result.items, wide.recommend(history).items
            )

    def test_fault_degraded_requests_match_full_width(
        self, model, histories
    ):
        # Same injector seed both sides: the NaN schedule hits the same
        # requests, so degradation decisions — and every served ranking
        # — must agree between the narrow and full-width paths.
        def extra(inner):
            return FaultyRecommender(
                inner, FaultInjector(nan_rate=0.4, seed=13)
            )

        narrow, wide = self._services(model, narrow_extra=extra)
        for history in histories:
            outcomes = []
            for service in (narrow, wide):
                try:
                    outcomes.append(service.recommend(history).items)
                except Exception as error:  # noqa: BLE001
                    outcomes.append(type(error).__name__)
            if isinstance(outcomes[0], str):
                assert outcomes[0] == outcomes[1]
            else:
                np.testing.assert_array_equal(*outcomes)

    def test_evaluator_parity(self, model):
        # The offline evaluator consumes the narrow contract natively;
        # metrics must equal the full-width engine's bitwise.
        from repro.data.splits import FoldInUser
        from repro.eval import evaluate_recommender

        rng = np.random.default_rng(5)
        users = []
        for _ in range(12):
            items = rng.choice(
                np.arange(1, NUM_ITEMS + 1), size=10, replace=False
            )
            users.append(
                FoldInUser(
                    user_id=len(users),
                    fold_in=items[:7].astype(np.int64),
                    targets=items[7:].astype(np.int64),
                )
            )
        narrow_engine = InferenceEngine(model, EngineConfig(index=APPROX))
        wide_engine = InferenceEngine(_ScatteredRows(model), EngineConfig())
        a = evaluate_recommender(narrow_engine, users, cutoffs=(5,))
        b = evaluate_recommender(wide_engine, users, cutoffs=(5,))
        assert a.values == b.values


class _FixedQueryModel:
    """Retrieval-capable stub whose query ignores history content — the
    candidate set is therefore knowable in advance, which lets a test
    construct a history that excludes every candidate."""

    name = "fixed-query"
    max_length = MAX_LENGTH
    supports_retrieval = True

    def __init__(self, seed=0, dim=8):
        rng = np.random.default_rng(seed)
        self.weights = rng.standard_normal(
            (dim, NUM_ITEMS + 1)
        ).astype(np.float32)
        self.query = rng.standard_normal(dim).astype(np.float32)

    def output_head(self):
        return Tensor(self.weights), None

    def hidden_last(self, histories):
        return np.tile(self.query, (len(histories), 1))

    def score_batch(self, histories):
        rows = np.tile(
            self.query @ self.weights, (len(histories), 1)
        ).astype(np.float32)
        rows[:, 0] = -np.inf
        return rows


class TestNarrowExclusionFallback:
    """Exhausting the candidate set falls back to one dense forward."""

    CONFIG = IndexConfig(nlist=2, nprobe=2, candidates=4, seed=0)

    def _service(self):
        return RecommendService(
            [("primary", _FixedQueryModel())],
            num_items=NUM_ITEMS,
            config=ServiceConfig(deadline=None, top_n=5),
            engine=EngineConfig(index=self.CONFIG),
        )

    def test_dense_fallback_when_exclusions_exhaust_candidates(self):
        model = _FixedQueryModel()
        top4 = np.argsort(
            -(model.query @ model.weights)[1:]
        )[:4] + 1  # the fixed query's entire candidate set

        service = self._service()
        rec = service.recommend(top4.astype(np.int64))
        # Every candidate was the user's own history: the narrow list
        # empties, one dense forward serves instead — and the result
        # still honours the exclusions.
        assert rec.rung == "primary" and not rec.degraded
        assert not np.isin(rec.items, top4).any()
        stats = service.stats()
        assert stats["dense_fallbacks"] == 1
        assert stats["narrow_ranked"] == 0
        engine_snap = stats["rungs"]["primary"]["engine"]
        assert engine_snap["dense_fallbacks"] == 1
        # The dense ranking equals ranking the stub's full row with the
        # same exclusions.
        from repro.eval.metrics import rank_items_batch
        want = rank_items_batch(
            model.score_batch([top4]).astype(np.float64), 5,
            exclude=[top4],
        )[0]
        np.testing.assert_array_equal(rec.items, want)

    def test_normal_requests_stay_narrow(self):
        service = self._service()
        rec = service.recommend(np.array([50, 51], dtype=np.int64))
        assert rec.items.size > 0
        stats = service.stats()
        assert stats["narrow_ranked"] == 1
        assert stats["dense_fallbacks"] == 0


class TestWindowParity:
    """``recommend_many`` ranks a window's narrow rows in one call, yet
    every result and service counter equals prefetch + a ``recommend``
    loop (whose counters include each failed prefetch's booked failure,
    see ``serve_loop``)."""

    @staticmethod
    def _build(inner, index=APPROX, engine=None, faulty=None, clock=None,
               top_n=5):
        def build():
            primary = inner()
            if faulty is not None:
                primary = FaultyRecommender(primary, faulty())
            kwargs = {} if clock is None else {"clock": clock()}
            return RecommendService(
                [("primary", primary), ("fallback", StubModel(NUM_ITEMS))],
                num_items=NUM_ITEMS,
                config=ServiceConfig(deadline=None, top_n=top_n),
                engine=engine or EngineConfig(max_batch=4, index=index),
                **kwargs,
            )
        return build

    def test_narrow_rows_with_duplicates_and_invalid(self, model, histories):
        window = list(histories) + [histories[0], histories[3]]
        window[2:2] = [np.array([0, 1])]
        window[6:6] = [np.array([], dtype=np.int64)]
        assert assert_window_parity(
            self._build(lambda: model), window
        ) == 0

    def test_exact_index_serves_dense_rows(self, model, histories):
        # The exact path: no index, full-width rows.
        assert assert_window_parity(
            self._build(lambda: model, index=None), histories
        ) == 0

    def test_row_needing_the_dense_fallback(self):
        fixed = _FixedQueryModel()
        candidates = np.argsort(
            -(fixed.query @ fixed.weights)[1:]
        )[:4] + 1
        window = [
            np.array([50, 51]),
            candidates.astype(np.int64),
            np.array([7, 8, 9]),
            candidates[:2].astype(np.int64),
        ]
        build = self._build(
            _FixedQueryModel, index=TestNarrowExclusionFallback.CONFIG
        )
        # Only the request whose history swallows every candidate is
        # ranked on its own (narrow, then dense).
        assert assert_window_parity(build, window) == 1
        service = build()
        service.recommend_many(window)
        assert service.stats()["dense_fallbacks"] == 1

    @pytest.mark.parametrize("seed", [13, 14])
    def test_nan_faults_same_injector_seed(self, model, histories, seed):
        assert_window_parity(
            self._build(
                lambda: model,
                faulty=lambda: FaultInjector(nan_rate=0.4, seed=seed),
            ),
            list(histories) * 2,
        )

    def test_half_open_primary_breaker(self, model, histories):
        def half_open(service):
            breaker = service.breaker("primary")
            for _ in range(breaker.min_calls):
                breaker.record_failure()
            service._clock.advance(breaker.cooldown)
            assert breaker.state == "half_open"

        assert_window_parity(
            self._build(lambda: model, clock=FakeClock), histories,
            prepare=half_open,
        )

    def test_cache_disabled(self, model, histories):
        # Without a cache the window still scores each request once:
        # the same forward and rankings as with the default cache.
        assert assert_same_window(
            self._build(lambda: model, engine=EngineConfig(index=APPROX)),
            self._build(
                lambda: model,
                engine=EngineConfig(cache_capacity=0, index=APPROX),
            ),
            histories,
        ) == (1, len(histories))


class TestSnapshotObservability:
    def test_effective_nprobe_reported(self, model):
        # Satellite: a config probing more lists than exist is clamped
        # by the search; the snapshot must report the clamped truth.
        config = IndexConfig(nlist=4, nprobe=32, candidates=16, seed=0)
        engine = RetrievalEngine(model, config)
        snap = engine.snapshot()
        assert snap["nprobe"] == 4
        assert snap["nlist"] == 4

    def test_narrow_counters(self, model, histories):
        engine = RetrievalEngine(model, APPROX)
        engine.score_topk(histories)
        snap = engine.snapshot()
        assert snap["narrow_batches"] == len(histories)
        assert snap["staleness"] == 0.0
        assert snap["refreshes"] == 0 and snap["rebuilds"] == 0


class TestVersionCoupling:
    """Satellite: hot-swap must atomically invalidate cache AND index."""

    def _engine(self):
        model = SASRec(
            NUM_ITEMS, MAX_LENGTH, dim=16, num_blocks=1, seed=1,
            tie_weights=False,
        )
        return model, InferenceEngine(
            model, EngineConfig(max_batch=4, index=APPROX)
        )

    def test_set_model_refreshes_index_and_drops_cache(self, histories):
        model, engine = self._engine()
        before = engine.score_batch(histories)
        assert engine.cache.hits + engine.cache.misses > 0
        old_retrieval = engine._retrieval
        assert old_retrieval is not None

        replacement = SASRec(
            NUM_ITEMS, MAX_LENGTH, dim=16, num_blocks=1, seed=99,
            tie_weights=False,
        )
        engine.set_model(replacement)
        # The retrieval engine is *kept* and refreshed in place (no
        # lazy rebuild from scratch); the cache is still atomically
        # invalidated.
        assert engine._retrieval is old_retrieval
        assert len(engine.cache) == 0
        assert engine.cache.invalidations == 1
        # Every item vector changed (a fully different seed), which
        # trips the staleness threshold: the refresh escalates to a
        # deterministic full rebuild rather than patching 100% churn.
        snap = engine._retrieval.snapshot()
        assert snap["rebuilds"] == 1 and snap["refreshes"] == 0
        assert snap["updates_since_build"] == 0

        after = engine.score_batch(histories)
        # What gets served is the new model's scoring — identical to a
        # fresh engine built from the replacement (the rebuild re-ran
        # k-means on the new table with the same config/seed).
        expected = RetrievalEngine(replacement, APPROX).score_topk(
            histories
        )
        np.testing.assert_array_equal(after.ids, expected.ids)
        np.testing.assert_array_equal(after.scores, expected.scores)
        assert not np.array_equal(before.scores, after.scores)

    def test_set_model_small_churn_updates_in_place(self, histories):
        model, engine = self._engine()
        engine.score_batch(histories)
        old_retrieval = engine._retrieval
        old_index = old_retrieval.index

        # Perturb one item vector: well under the rebuild threshold, so
        # the hot-swap must take the incremental-assignment path and
        # keep the built index object.
        replacement = SASRec(
            NUM_ITEMS, MAX_LENGTH, dim=16, num_blocks=1, seed=1,
            tie_weights=False,
        )
        replacement.output.weight.data[:, 8] += 0.25
        engine.set_model(replacement)
        assert engine._retrieval is old_retrieval
        assert engine._retrieval.index is old_index
        snap = engine._retrieval.snapshot()
        assert snap["refreshes"] == 1 and snap["rebuilds"] == 0
        assert snap["updates_since_build"] == 1
        assert snap["staleness"] > 0

        # Served scores are the NEW model's exact re-rank (the stale
        # centroids can only affect which candidates are probed).
        after = engine.score_batch(histories)
        dense = replacement.score_batch(histories)
        mask = after.ids >= 1
        np.testing.assert_allclose(
            after.scores[mask],
            np.take_along_axis(
                dense, np.maximum(after.ids, 0), axis=1
            )[mask],
            rtol=0, atol=1e-5,
        )

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("config", [APPROX, None],
                             ids=["approx", "exact"])
    def test_refresh_patches_table_to_new_head(
        self, tied, config, histories
    ):
        """With an index, the diffed, patched table is bitwise the one a
        fresh build would take from the new model, and ``changed``
        counts exactly the items whose vector or bias moved.  Without
        one (the exact path), the swapped engine's rows are bitwise the
        new model's ``score_batch``."""
        def make():
            return SASRec(
                NUM_ITEMS, MAX_LENGTH, dim=16, num_blocks=1, seed=1,
                tie_weights=tied,
            )

        original, replacement = make(), make()
        if tied:
            replacement.embedding.item_embedding.weight.data[[3, 40]] += 0.5
            moved = 2
        else:
            replacement.output.weight.data[:, [3, 40]] += 0.5
            replacement.output.bias.data[[40, 59]] -= 0.25  # 40 twice
            moved = 3
        if config is None:
            engine = InferenceEngine(original, EngineConfig())
            engine.score_batch(histories)
            engine.set_model(replacement)
            np.testing.assert_array_equal(
                engine.score_batch(histories),
                replacement.score_batch(histories),
            )
            return
        retrieval = RetrievalEngine(original, config)
        report = retrieval.refresh(replacement)
        want, _ = RetrievalEngine._item_table(replacement)
        assert retrieval._items.tobytes() == want.tobytes()
        assert report == {"mode": "update", "changed": moved}
        assert retrieval.refresh(replacement) == {
            "mode": "noop", "changed": 0,
        }

    def test_swap_resets_unsupported_flag(self, histories):
        class Dense:
            name = "dense-only"
            max_length = MAX_LENGTH

            def score_batch(self, histories):
                rows = np.ones(
                    (len(histories), NUM_ITEMS + 1), dtype=np.float32
                )
                rows[:, 0] = -np.inf
                return rows

        _, engine = self._engine()
        engine.set_model(Dense())
        engine.score_batch(histories[:2])
        assert engine._retrieval_unsupported
        model = SASRec(
            NUM_ITEMS, MAX_LENGTH, dim=16, num_blocks=1, seed=3,
            tie_weights=False,
        )
        engine.set_model(model)
        assert not engine._retrieval_unsupported
        engine.score_batch(histories[:2])
        assert engine.snapshot()["retrieval"] is not None

    def test_approximate_rows_are_cacheable(self, histories):
        _, engine = self._engine()
        engine.score_batch(histories)
        hits_before = engine.cache.hits
        engine.score_batch(histories)
        assert engine.cache.hits > hits_before
