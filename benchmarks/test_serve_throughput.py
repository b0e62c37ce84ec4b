"""Serving-path benchmarks: request throughput and latency through the
:class:`repro.serve.InferenceEngine` versus the pre-engine one-at-a-time
path (full per-position forward, no batching, no cache).

Three effects stack in the engine path and are measured separately:

- **last-position decoding** — the output GEMM runs on ``(B, d)``
  instead of ``(B·L, d)`` activations, an O(L) saving;
- **micro-batching** — ``max_batch`` requests share one padded forward
  (benchmarked cold at batch 1 / 8 / 32);
- **score caching** — repeat traffic skips the forward entirely
  (benchmarked as the warm-cache case).

Latency percentiles (p50/p95/p99 per request) ride along in each
benchmark's ``extra_info``.  ``test_engine_speedup_gate`` enforces the
headline claim — batch-32 engine throughput ≥ 3× the sequential path
for VSAN — and the recorded means are gated against
``benchmarks/BENCH_baseline.json`` by ``compare_bench.py`` like every
substrate benchmark (``make bench-serve``)."""

import time

import numpy as np
import pytest

from repro.core import VSAN
from repro.data import pad_left
from repro.serve import EngineConfig, RecommendService, ServiceConfig
from repro.tensor import set_default_dtype

NUM_ITEMS = 500
MAX_LENGTH = 30
NUM_REQUESTS = 64

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module", autouse=True)
def float32_compute():
    """Serve under the production float32 compute dtype."""
    previous = set_default_dtype(np.float32)
    yield
    set_default_dtype(previous)


@pytest.fixture(scope="module")
def model(float32_compute):
    vsan = VSAN(NUM_ITEMS, MAX_LENGTH, dim=48, h1=1, h2=1, seed=0)
    vsan.eval()
    return vsan


@pytest.fixture(scope="module")
def requests():
    rng = np.random.default_rng(7)
    return [
        rng.integers(1, NUM_ITEMS + 1, size=rng.integers(3, MAX_LENGTH))
        for _ in range(NUM_REQUESTS)
    ]


class LegacyScorer:
    """The pre-engine serving path, preserved for comparison: pad, run
    the full per-position forward, slice the last position afterwards.
    No ``no_grad`` guard, no last-position ``encode_last`` — exactly what
    a rung paid per request before the engine existed."""

    name = "legacy"

    def __init__(self, model):
        self._model = model

    def score_batch(self, histories):
        self._model.eval()
        padded = np.stack([
            pad_left(np.asarray(h, dtype=np.int64), self._model.max_length)
            for h in histories
        ])
        scores = self._model.forward_scores(padded).numpy()[:, -1, :].copy()
        scores[:, 0] = -np.inf
        return scores


def sequential_service(model):
    return RecommendService(
        [("vsan", LegacyScorer(model))],
        num_items=NUM_ITEMS,
        config=ServiceConfig(top_n=10, deadline=None),
    )


def engine_service(model, max_batch, cache_capacity=4096):
    return RecommendService(
        [("vsan", model)],
        num_items=NUM_ITEMS,
        config=ServiceConfig(top_n=10, deadline=None),
        engine=EngineConfig(
            max_batch=max_batch, cache_capacity=cache_capacity
        ),
    )


def attach_latency(benchmark, service, served):
    """Per-request latency percentiles + throughput into extra_info."""
    stats = service.stats()
    benchmark.extra_info["latency"] = stats["rungs"]["vsan"]["latency"]
    benchmark.extra_info["req_per_sec"] = round(
        served / benchmark.stats.stats.mean, 1
    )


def test_serve_sequential_baseline(benchmark, model, requests):
    """PR 3's request loop: one full forward per request."""
    state = {}

    def serve():
        service = sequential_service(model)
        results = [service.recommend(h) for h in requests]
        state["service"] = service
        return results

    results = benchmark(serve)
    assert len(results) == NUM_REQUESTS
    attach_latency(benchmark, state["service"], NUM_REQUESTS)


@pytest.mark.parametrize("max_batch", [1, 8, 32])
def test_serve_engine_cold(benchmark, model, requests, max_batch):
    """Cold engine: a fresh cache every round, so the measurement is
    pure batched last-position forwards at the given coalescing width."""
    state = {}

    def serve():
        service = engine_service(model, max_batch)
        results = service.recommend_many(requests)
        state["service"] = service
        return results

    results = benchmark(serve)
    assert all(r.rung == "vsan" for r in results)
    attach_latency(benchmark, state["service"], NUM_REQUESTS)


def test_serve_engine_warm_cache(benchmark, model, requests):
    """Steady-state repeat traffic: after the first round every request
    is an LRU hit and no forward runs at all."""
    service = engine_service(model, max_batch=32)
    service.recommend_many(requests)  # warm

    results = benchmark(lambda: service.recommend_many(requests))
    assert all(r.rung == "vsan" for r in results)
    snapshot = service.stats()["rungs"]["vsan"]["engine"]["cache"]
    assert snapshot["hits"] > snapshot["misses"]
    attach_latency(benchmark, service, NUM_REQUESTS)


def test_engine_speedup_gate(model, requests):
    """The PR's acceptance bar: batch-32 engine throughput must be at
    least 3x the one-at-a-time pre-engine path for VSAN."""

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    def sequential():
        service = sequential_service(model)
        for history in requests:
            service.recommend(history)

    def engined():
        engine_service(model, max_batch=32).recommend_many(requests)

    sequential_time = best_of(sequential)
    engine_time = best_of(engined)
    speedup = sequential_time / engine_time
    print(
        f"\nsequential {NUM_REQUESTS / sequential_time:.1f} req/s, "
        f"engine(32) {NUM_REQUESTS / engine_time:.1f} req/s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 3.0, (
        f"engine at max_batch=32 is only {speedup:.2f}x the sequential "
        f"path; the serving fast path has regressed"
    )
