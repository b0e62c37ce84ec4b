"""``serve-catalog``: one ``RecommendService`` over a 100k-item VSAN.

Exercises the whole narrow serving path: IVF probe, int8 scan, exact
re-rank, the narrow score cache and ranking.  The VSAN's output head is
planted with cluster structure (as learned item tables are), so IVF
recall is meaningful; it is measured against exact dense ranking.

Arrivals are Zipf traffic over 1M users (~40% of requests come from
returning users and can hit the cache).  The serving loop groups
arrivals into fixed schedule windows and serves each window with one
``recommend_many`` call, so batch composition depends on the seed only.

- Set-up (``setup_s``): model build, index build and a warm-up stream
  from another sub-seed of the same traffic (traces the compiled
  programs and fills the cache).
- Capacity phase (``job_s``): the capacity stream's windows back to
  back; req/s is its request count over ``job_s``.
- Latency phase (``p50_ms``, ``p95_ms``): an open loop that dispatches
  each window when it closes; each request is timed from its scheduled
  arrival.

The phases alternate in ``SEGMENTS`` rounds over equal parts of their
streams, so both sample the whole run: ``job_s`` is ``SEGMENTS`` times
the fastest capacity round, the percentiles are those of the fastest
latency round (see ``common.SEGMENTS``).

A served list shorter than ``top_n`` (the IVF probe returned fewer
candidates than the history excludes) is a failed request, not a wrong
one: the service documents that it never pads a list.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

import repro.serve.service as service_module
from repro.core import VSAN
from repro.eval import rank_items_batch
from repro.models.base import NeuralSequentialRecommender
from repro.retrieval import IndexConfig, IVFIndex, RetrievalEngine
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    RecommendService,
    ServeError,
    ServiceConfig,
)
from repro.tensor import set_default_dtype
from repro.tensor.compile import programs_for

from .common import (
    SEGMENTS,
    Outcome,
    alternate,
    fastest_round,
    fault_summary,
    median,
    peak_rss_mb,
    quantile,
    ranking_fault,
    setup_median,
    success_ratio,
)
from .inputs import (
    CAPACITY,
    LATENCY,
    WARMUP,
    request_stream,
    schedule_windows,
    split_windows,
)
from .tracing import Tracer

NUM_ITEMS = 100_000
DIM = 64
WINDOW = 20
TOP_N = 10
INDEX = {"nlist": 1024, "nprobe": 4, "candidates": 64, "quantize": "int8"}
PLANTED_CENTERS = 512
PLANTED_NOISE = 0.2
#: Schedule window: arrivals in one window are served by one call.
WINDOW_SECONDS = 0.010
#: Nominal capacity on the reference box; the capacity stream is
#: generated at this rate (so windows hold ~25 requests) and sized to
#: last 40% of ``--seconds``.
CAPACITY_RATE = 2500.0
#: Open-loop rate of the latency phase, sized to 60% of ``--seconds``.
#: A window of 2 requests costs ~3 ms, mostly per-call overhead, so
#: this keeps the loop ~25% busy.  At 500-600 req/s it was >50% busy, at
#: 300 req/s ~35%, and p95 swung with backlog whenever hypervisor steal
#: slowed the calls (spread 33% over ten runs at 300 req/s).
LATENCY_RATE = 200.0
WARMUP_REQUESTS = 1500
#: Distinct latency-phase histories whose served lists are compared with
#: exact dense ranking.
RECALL_SAMPLE = 512


def build_model(seed: int, num_items: int, centers: int) -> VSAN:
    """A VSAN whose output head holds ``centers`` planted clusters."""
    model = VSAN(num_items, max_length=WINDOW, dim=DIM, h1=1, h2=1, k=1,
                 seed=seed)
    model.eval()
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((centers, DIM)).astype(np.float32) * 2.0
    assign = rng.integers(0, centers, size=num_items + 1)
    noise = rng.standard_normal((num_items + 1, DIM)).astype(np.float32)
    model.output.weight.data[...] = (means[assign] + PLANTED_NOISE * noise).T
    return model


def serve(service, stream, indices):
    return service.recommend_many([stream[i][1] for i in indices],
                                  top_n=TOP_N)


def _setup(seed: int, sizes: dict):
    model = build_model(seed, sizes["items"], sizes["centers"])
    index = IndexConfig(**{**INDEX, "nlist": sizes["nlist"]}, seed=seed)
    service = RecommendService(
        [("vsan", model)],
        num_items=sizes["items"],
        config=ServiceConfig(top_n=TOP_N, deadline=None),
        engine=EngineConfig(index=index),
    )
    warmup = request_stream(seed, WARMUP, sizes["items"],
                            sizes["warmup"], CAPACITY_RATE)
    for _, indices in schedule_windows(warmup, WINDOW_SECONDS):
        serve(service, warmup, indices)
    return model, service


def serve_back_to_back(service, stream, windows, results) -> None:
    """Capacity round: serve ``windows`` one after another."""
    for _, indices in windows:
        for index, result in zip(indices, serve(service, stream, indices)):
            results[index] = result


def open_loop(service, stream, windows, results, timing) -> None:
    """Latency round: dispatch each of ``windows`` when it closes, on a
    schedule that starts at the first window.

    Fills, per request, ``latency`` (from scheduled arrival to the end
    of its call), ``window_wait`` (arrival to window close) and
    ``queue_wait`` (window close to the end of the previous call), and
    appends per window how ``late`` the dispatch was after both the
    close and the previous call.
    """
    base = windows[0][0] * WINDOW_SECONDS
    origin = time.perf_counter()
    previous_end = 0.0
    for window, indices in windows:
        close = (window + 1) * WINDOW_SECONDS - base
        ahead = close - (time.perf_counter() - origin)
        if ahead > 0:
            time.sleep(ahead)
        dispatched = time.perf_counter() - origin
        served = serve(service, stream, indices)
        ended = time.perf_counter() - origin
        timing["late"].append(dispatched - max(close, previous_end))
        backlog = max(0.0, previous_end - close)
        for index, result in zip(indices, served):
            arrival = stream[index][2] - base
            results[index] = result
            timing["latency"][index] = ended - arrival
            timing["window_wait"][index] = close - arrival
            timing["queue_wait"][index] = backlog
        previous_end = ended


def exact_recall(model, stream, results, sample: int) -> float:
    """Mean recall@TOP_N of served lists against exact dense ranking
    (same history exclusion) over the first ``sample`` distinct users."""
    seen: dict[int, int] = {}
    for index, (user, _, _) in enumerate(stream):
        if user not in seen and not isinstance(results[index], ServeError):
            seen[user] = index
        if len(seen) == sample:
            break
    picked = list(seen.values())
    hits = 0
    for begin in range(0, len(picked), 64):
        chunk = picked[begin:begin + 64]
        histories = [stream[i][1] for i in chunk]
        exact = rank_items_batch(
            model.score_batch(histories), TOP_N, exclude=histories
        )
        for row, index in zip(exact, chunk):
            hits += np.isin(results[index].items, row).sum()
    return hits / (TOP_N * max(len(picked), 1))


def instrument(tracer: Tracer) -> None:
    tracer.wrap(RecommendService, "recommend_many", "service.batch")
    tracer.wrap(RecommendService, "recommend", "service.recommend")
    tracer.wrap(InferenceEngine, "score_batch", "engine.score_batch")
    tracer.wrap(InferenceEngine, "prefetch", "engine.prefetch")
    tracer.wrap(RetrievalEngine, "score_topk", "retrieval.score_topk")
    tracer.wrap(NeuralSequentialRecommender, "hidden_last",
                "model.hidden_last")
    tracer.wrap(IVFIndex, "search", "retrieval.search")
    tracer.wrap(service_module, "rank_top_scores", "ranking")
    tracer.wrap(service_module, "rank_items_batch", "ranking")


def _engine_counts(service) -> dict[str, float]:
    snapshot = service.stats()
    engine = snapshot["rungs"]["vsan"]["engine"]
    return {
        "flushes": engine["batcher"]["flushes"],
        "rows": engine["batcher"]["batched_requests"],
        "narrow": snapshot["narrow_ranked"],
        "served": snapshot["served"],
    }


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Outcome:
    set_default_dtype(np.float32)
    if smoke:
        sizes = {"items": 5000, "centers": 64, "nlist": 64, "warmup": 200}
        capacity_count, latency_count, sample = 300, 200, 64
    else:
        sizes = {"items": NUM_ITEMS, "centers": PLANTED_CENTERS,
                 "nlist": INDEX["nlist"], "warmup": WARMUP_REQUESTS}
        capacity_count = round(0.4 * seconds * CAPACITY_RATE)
        latency_count = round(0.6 * seconds * LATENCY_RATE)
        sample = RECALL_SAMPLE
    (model, service), setup_s = setup_median(lambda: _setup(seed, sizes))
    num_items = sizes["items"]
    capacity_stream = request_stream(seed, CAPACITY, num_items,
                                     capacity_count, CAPACITY_RATE)
    latency_stream = request_stream(seed, LATENCY, num_items,
                                    latency_count, LATENCY_RATE)
    programs = programs_for(model)
    compile_before = (programs.hits, programs.misses)
    engine_before = _engine_counts(service)
    capacity_parts = split_windows(
        schedule_windows(capacity_stream, WINDOW_SECONDS),
        len(capacity_stream), SEGMENTS,
    )
    latency_parts = split_windows(
        schedule_windows(latency_stream, WINDOW_SECONDS),
        len(latency_stream), SEGMENTS,
    )
    capacity_results = [None] * len(capacity_stream)
    latency_results = [None] * len(latency_stream)
    timing = {name: np.empty(len(latency_stream))
              for name in ("latency", "window_wait", "queue_wait")}
    timing["late"] = []
    tracer = Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        if tracer is not None:
            instrument(tracer)
        capacity_times, cpu_s = alternate(
            lambda k: serve_back_to_back(service, capacity_stream,
                                         capacity_parts[k],
                                         capacity_results),
            lambda k: open_loop(service, latency_stream, latency_parts[k],
                                latency_results, timing),
        )
    rss = peak_rss_mb()
    latency = timing["latency"]
    rounds = [[i for _, indices in part for i in indices]
              for part in latency_parts]

    requests = [
        (stream[i][1], result)
        for stream, results in ((capacity_stream, capacity_results),
                                (latency_stream, latency_results))
        for i, result in enumerate(results)
    ]
    faults = [
        "error" if isinstance(result, ServeError)
        else ranking_fault(result.items, history, TOP_N, num_items)
        for history, result in requests
    ]
    failed, detail = fault_summary(faults)
    # A failed request misses every latency limit.
    latency[[f is not None for f in faults[len(capacity_stream):]]] = np.inf
    quality = exact_recall(model, latency_stream, latency_results, sample)
    stats = service.raw_stats()
    outcome = Outcome(
        metrics={
            "setup_s": setup_s,
            "job_s": SEGMENTS * min(capacity_times),
            "p50_ms": 1e3 * fastest_round(latency, rounds, 0.5),
            "p95_ms": 1e3 * fastest_round(latency, rounds, 0.95),
            "cpu_s": cpu_s,
            "peak_rss_mb": rss,
            "quality": quality,
            "success_ratio": success_ratio(len(requests), failed),
        },
        attempted=len(requests),
        failed=failed,
    )
    outcome.check("no invalid ranking", "invalid" not in faults,
                  f"of {len(requests)}: {detail}")
    outcome.check("service accounted", stats.accounted(), "")
    if tracer is not None:
        engine_after = _engine_counts(service)
        delta = {k: engine_after[k] - engine_before[k] for k in engine_after}
        outcome.layers = catalog_layers(
            tracer,
            hits=programs.hits - compile_before[0],
            misses=programs.misses - compile_before[1],
            engine=delta,
            timing=timing,
        )
    return outcome


def catalog_layers(tracer, hits, misses, engine, timing) -> dict[str, float]:
    spans = tracer.durations
    own = tracer.self_times
    return {
        "compile.traces": misses,
        "compile.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "ranking.rank_us": 1e6 * median(spans["ranking"]),
        "model.hidden_last_ms": 1e3 * median(spans["model.hidden_last"]),
        "retrieval.search_ms": 1e3 * median(spans["retrieval.search"]),
        "retrieval.rerank_ms": 1e3 * median(own["retrieval.score_topk"]),
        "engine.prefetch_ms": 1e3 * median(spans["engine.prefetch"]),
        # recommend_many prefetches every miss before serving, so the
        # cache's own counters see only hits; the batcher's row count is
        # the true miss count.
        "engine.cache_hit_ratio": (
            1.0 - engine["rows"] / engine["served"] if engine["served"]
            else 0.0
        ),
        "engine.forward_batch": (
            engine["rows"] / engine["flushes"] if engine["flushes"] else 0.0
        ),
        "service.batch_ms": 1e3 * median(spans["service.batch"]),
        "service.recommend_us": 1e6 * median(own["service.recommend"]),
        "service.narrow_ratio": (
            engine["narrow"] / engine["served"] if engine["served"] else 0.0
        ),
        "serve.window_wait_ms": 1e3 * median(timing["window_wait"]),
        "serve.queue_wait_ms": 1e3 * quantile(timing["queue_wait"], 0.95),
        "driver.late_ms": 1e3 * quantile(timing["late"], 0.95),
    }
