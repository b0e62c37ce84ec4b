"""Catalogue-scale retrieval benchmarks: IVF + exact re-rank vs dense.

The tentpole claim of the retrieval stack, measured end to end on a
100k-item synthetic catalogue: two-stage scoring (coarse probe →
candidate scan → exact re-rank) must beat the compiled dense
``hidden @ W`` GEMM by **≥ 3× per request** while keeping
**recall@10 ≥ 0.95** against the exact ranking.

Setup notes:

- The item table is *planted* with cluster structure (512 Gaussian
  centers): learned item embeddings are strongly clustered in practice,
  and IVF's nprobe/nlist trade-off is only meaningful on clusterable
  geometry (isotropic noise is its pathological worst case and no one's
  embedding table).  Recall is still *measured* against brute force, not
  assumed.
- Histories come from :func:`repro.data.zipf_histories` — catalogue-
  scale without O(users × items) materialization (a satellite of the
  same PR).
- The dense baseline is the model's own ``score_batch`` — the exact
  path every serving rung used before `IndexConfig` existed.

``test_retrieval_speedup_gate`` enforces the headline bar, and
``test_recall_curve_report`` sweeps recall@N vs nprobe and commits the
curve to ``benchmarks/results/retrieval_recall.json``.  The recorded
means are gated against ``benchmarks/BENCH_baseline.json`` by
``compare_bench.py`` (``make bench-retrieval``).

Candidate-native gates (the narrow ``TopScores`` serving path):

- ``test_narrow_serving_gate`` — warm-cache serving through
  :class:`InferenceEngine` at 100k items must hit the cache with
  narrow entries ≤ 4 KB each.
- ``test_narrow_cached_alloc_gate`` — the cached narrow path holds no
  steady-state allocations (tracemalloc net growth ~0 across repeated
  fully-cached calls).
- ``test_incremental_update_gate`` — adopting a 1%-churn model via
  :meth:`RetrievalEngine.refresh` must beat a from-scratch index build
  by ≥ 10× at recall@10 within ±0.005 of the rebuild.
"""

import gc
import json
import time
import tracemalloc

import numpy as np
import pytest

from repro.data import ZipfCatalogConfig, zipf_histories
from repro.models import SASRec
from repro.retrieval import IndexConfig, RetrievalEngine, TopScores, recall_curve
from repro.serve import EngineConfig, InferenceEngine
from repro.tensor import set_default_dtype
from repro.tensor.topk import top_k_indices

from conftest import RESULTS_DIR

NUM_ITEMS = 100_000
MAX_LENGTH = 6
DIM = 96
NUM_REQUESTS = 64
PLANTED_CENTERS = 512
PLANTED_NOISE = 0.2

# The shipped operating point: ~0.4% of the catalogue scanned per query
# (nprobe/nlist = 4/1024), int8 lists, 64 exactly re-ranked candidates.
GATE_CONFIG = IndexConfig(
    nlist=1024, nprobe=4, candidates=64, quantize="int8", seed=0,
    kmeans_iters=4,
)
FLOAT_CONFIG = IndexConfig(
    nlist=1024, nprobe=4, candidates=64, seed=0, kmeans_iters=4,
)


@pytest.fixture(scope="module", autouse=True)
def float32_compute():
    previous = set_default_dtype(np.float32)
    yield
    set_default_dtype(previous)


@pytest.fixture(scope="module")
def model(float32_compute):
    sasrec = SASRec(
        NUM_ITEMS, MAX_LENGTH, dim=DIM, num_blocks=1, seed=0,
        tie_weights=False,
    )
    sasrec.eval()
    rng = np.random.default_rng(0)
    centers = rng.standard_normal(
        (PLANTED_CENTERS, DIM)
    ).astype(np.float32) * 2.0
    assign = rng.integers(0, PLANTED_CENTERS, size=NUM_ITEMS + 1)
    planted = centers[assign] + PLANTED_NOISE * rng.standard_normal(
        (NUM_ITEMS + 1, DIM)
    ).astype(np.float32)
    sasrec.output.weight.data[...] = planted.T
    return sasrec


@pytest.fixture(scope="module")
def requests():
    return zipf_histories(
        ZipfCatalogConfig(
            num_users=NUM_REQUESTS, num_items=NUM_ITEMS,
            mean_length=8.0, max_length=16,
        ),
        seed=1,
    )


@pytest.fixture(scope="module")
def exact_top10(model, requests):
    return top_k_indices(model.score_batch(requests), 10)


def _recall_at_10(rows, exact_top10):
    got = top_k_indices(rows, 10)
    return float(np.mean([
        np.isin(want, have).mean()
        for want, have in zip(exact_top10, got)
    ]))


def test_retrieval_dense_scoring(benchmark, model, requests):
    """The O(|I|·d) dense baseline every rung paid before the index."""
    rows = benchmark(lambda: model.score_batch(requests))
    assert rows.shape == (NUM_REQUESTS, NUM_ITEMS + 1)


@pytest.mark.parametrize(
    "config", [GATE_CONFIG, FLOAT_CONFIG], ids=["int8", "f32"]
)
def test_retrieval_ivf(benchmark, model, requests, exact_top10, config):
    """Two-stage scoring at the shipped operating point (int8 lists)
    and its float32 ablation — same probes, 4× the scan traffic.
    ``score_topk`` returns packed ``(ids, scores)`` at C=64; no
    full-width row is built."""
    engine = RetrievalEngine(model, config)
    top = benchmark(lambda: engine.score_topk(requests))
    assert isinstance(top, TopScores)
    assert top.ids.shape == (NUM_REQUESTS, config.candidates)
    recall = _recall_at_10(top.to_dense(), exact_top10)
    benchmark.extra_info["recall_at_10"] = round(recall, 4)
    benchmark.extra_info["rows_per_query"] = round(
        engine.index.scanned / engine.index.searches, 1
    )
    benchmark.extra_info["bytes_per_request"] = top.nbytes // len(top)
    assert recall >= 0.95


def test_retrieval_speedup_gate(model, requests, exact_top10):
    """The acceptance bar: ≥ 3× per-request speedup over dense scoring
    at recall@10 ≥ 0.95 on the 100k-item catalogue.

    The bar was ≥ 5× when recorded against *eager* dense scoring
    (measured ~7.5× at 812µs/req dense); compiled batch scoring then
    made the dense baseline itself ~1.6× faster (~500µs/req), and the
    bar is re-anchored against that honest, faster baseline.  The IVF
    path is unchanged (~110µs/req) — what this gate catches is the
    two-stage fast path regressing, not the baseline improving.

    Timed as *interleaved* (dense, ivf) pairs with the median per-pair
    ratio as the verdict: this host is a shared VM whose effective CPU
    and memory bandwidth drift by 2-3× over minutes, and back-to-back
    blocks of one path can land in different regimes.  A pair straddles
    at most one drift boundary, and the median discards the straddlers.
    """
    engine = RetrievalEngine(model, GATE_CONFIG)

    for _ in range(3):  # warm caches, scratch buffers, BLAS threads
        model.score_batch(requests)
        engine.score_topk(requests)
    ratios, dense_times, ivf_times = [], [], []
    for _ in range(9):
        start = time.perf_counter()
        model.score_batch(requests)
        mid = time.perf_counter()
        engine.score_topk(requests)
        end = time.perf_counter()
        dense_times.append(mid - start)
        ivf_times.append(end - mid)
        ratios.append((mid - start) / (end - mid))
    dense_time = float(np.median(dense_times))
    ivf_time = float(np.median(ivf_times))
    speedup = float(np.median(ratios))
    recall = _recall_at_10(
        engine.score_topk(requests).to_dense(), exact_top10
    )
    print(
        f"\ndense {dense_time / NUM_REQUESTS * 1e6:.0f}us/req, "
        f"ivf {ivf_time / NUM_REQUESTS * 1e6:.0f}us/req, "
        f"speedup {speedup:.1f}x, recall@10 {recall:.3f}"
    )
    assert recall >= 0.95, (
        f"recall@10 {recall:.3f} < 0.95 at the gate operating point"
    )
    assert speedup >= 3.0, (
        f"IVF path is only {speedup:.2f}x dense scoring; the two-stage "
        f"fast path has regressed"
    )


def test_narrow_serving_gate(model, requests):
    """Candidate-native acceptance bar: warm-cache serving at 100k
    items hits the cache, and narrow cache entries stay ≤ 4 KB each
    (a full-width row would cost ~400 KB)."""
    engine = InferenceEngine(
        model, EngineConfig(max_batch=NUM_REQUESTS, index=GATE_CONFIG),
    )
    top = engine.score_batch(requests)             # cold: fills the cache
    assert isinstance(top, TopScores)
    for _ in range(2):                             # warm-path shakeout
        engine.score_batch(requests)
    assert engine.cache.snapshot()["hits"] > 0

    times = []
    for _ in range(9):
        start = time.perf_counter()
        engine.score_batch(requests)
        times.append(time.perf_counter() - start)
    cache = engine.cache.snapshot()
    print(
        f"\nnarrow {float(np.median(times)) / NUM_REQUESTS * 1e6:.0f}"
        f"us/req warm, {cache['bytes_per_entry']:.0f} B/entry cached"
    )
    assert cache["bytes_per_entry"] <= 4096, (
        f"narrow cache entries cost {cache['bytes_per_entry']:.0f} B "
        f"each; the candidate-native representation has leaked width"
    )


def test_narrow_cached_alloc_gate(model, requests):
    """Zero steady-state allocation on the fully-cached narrow path.

    Per-call transients (entry clones, the stacked result) are freed
    before the next call; nothing may *accumulate*.  The 64 KB slack
    absorbs allocator noise but is well under one retained narrow batch
    per iteration (5 × 64 req × 776 B ≈ 242 KB) — and three orders of
    magnitude under a single leaked full-width row batch (~25 MB).
    """
    engine = InferenceEngine(
        model, EngineConfig(max_batch=NUM_REQUESTS, index=GATE_CONFIG),
    )
    for _ in range(3):  # fill the cache, then exercise the hit path
        engine.score_batch(requests)
    gc.collect()
    tracemalloc.start()
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    for _ in range(5):
        engine.score_batch(requests)
    gc.collect()
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    growth = after - before
    print(f"\ncached narrow path: {growth} B net allocation over 5 calls")
    assert engine.cache.snapshot()["hits"] >= 5 * len(requests)
    assert growth <= 64 * 1024, (
        f"cached narrow serving accumulated {growth} B over 5 calls; "
        f"the hit path should hold no steady-state allocations"
    )


def _churned_clone(model, frac=0.01, seed=7):
    """A same-architecture clone of ``model`` with ``frac`` of the item
    columns perturbed — the shape of a routine embedding-refresh
    rollout.  Identical construction seed keeps every non-head
    parameter bitwise equal, so the two models agree on queries and
    differ only in the item table."""
    clone = SASRec(
        NUM_ITEMS, MAX_LENGTH, dim=DIM, num_blocks=1, seed=0,
        tie_weights=False,
    )
    clone.eval()
    clone.output.weight.data[...] = model.output.weight.data
    rng = np.random.default_rng(seed)
    cols = rng.choice(
        np.arange(1, NUM_ITEMS + 1), size=int(NUM_ITEMS * frac),
        replace=False,
    )
    clone.output.weight.data[:, cols] += (
        0.5 * PLANTED_NOISE
        * rng.standard_normal((DIM, cols.size)).astype(np.float32)
    )
    return clone, cols.size


def test_incremental_update_gate(model, requests):
    """Hot-swap acceptance bar: adopting a 1%-churn model through
    :meth:`RetrievalEngine.refresh` (assign-only ``IVFIndex.update``)
    must be ≥ 10× faster than building the index from scratch, and give
    recall@10 within ±0.005 of the full rebuild — stale centroids on
    1% drift must not cost measurable candidate coverage."""
    clone, churned = _churned_clone(model)
    update_times, build_times = [], []
    refreshed = rebuilt = None
    for _ in range(3):
        refreshed = RetrievalEngine(model, GATE_CONFIG)
        start = time.perf_counter()
        report = refreshed.refresh(clone)
        update_times.append(time.perf_counter() - start)
        assert report["mode"] == "update"
        assert report["changed"] == churned
        start = time.perf_counter()
        rebuilt = RetrievalEngine(clone, GATE_CONFIG)
        build_times.append(time.perf_counter() - start)
    update_time = float(np.median(update_times))
    build_time = float(np.median(build_times))
    speedup = build_time / update_time

    exact = top_k_indices(clone.score_batch(requests), 10)
    recall_update = _recall_at_10(
        refreshed.score_topk(requests).to_dense(), exact
    )
    recall_rebuild = _recall_at_10(
        rebuilt.score_topk(requests).to_dense(), exact
    )
    print(
        f"\nupdate {update_time * 1e3:.1f}ms vs rebuild "
        f"{build_time * 1e3:.1f}ms ({speedup:.1f}x), recall@10 "
        f"update {recall_update:.4f} / rebuild {recall_rebuild:.4f}"
    )
    assert speedup >= 10.0, (
        f"incremental update is only {speedup:.1f}x a full rebuild at "
        f"1% churn; the assign-only path has regressed"
    )
    assert abs(recall_update - recall_rebuild) <= 0.005, (
        f"incremental update recall {recall_update:.4f} drifted more "
        f"than 0.005 from rebuild recall {recall_rebuild:.4f}"
    )


def test_recall_curve_report(model, requests):
    """Recall@N vs nprobe at the shipped nlist/candidates, committed to
    ``benchmarks/results/retrieval_recall.json`` so the trade-off table
    in docs/SERVING.md stays reproducible."""
    curve = recall_curve(
        model, requests, GATE_CONFIG,
        nprobes=(1, 2, 4, 8, 16, 32), top_ns=(1, 5, 10, 20),
    )
    recalls_at_10 = [
        point["recall"]["10"] for point in curve["curve"]
    ]
    # More probes widen the scanned pool; coverage can only dip by
    # top-C cutoff noise, never trend downward.
    for earlier, later in zip(recalls_at_10, recalls_at_10[1:]):
        assert later >= earlier - 0.01
    assert recalls_at_10[-1] >= 0.95
    by_nprobe = {
        point["nprobe"]: point["recall"] for point in curve["curve"]
    }
    assert by_nprobe[GATE_CONFIG.nprobe]["10"] >= 0.95

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "retrieval_recall.json"
    out.write_text(json.dumps(curve, indent=2) + "\n")
    print(f"\nnprobe -> recall@10: "
          + ", ".join(f"{p['nprobe']}: {p['recall']['10']:.3f}"
                      for p in curve["curve"]))
