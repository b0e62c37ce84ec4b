#!/usr/bin/env python
"""The hard performance gates of the system around the paper's model.

Usage, from the repository root::

    python benchmarks/gates.py [ROW ...]

Runs every row (or the named ones), prints one table and exits 1 when
any gated row is red.  The paper's own claims are checked by the
table and figure benchmarks beside this file; these rows check the
speed and resource claims of the training, serving and retrieval
machinery.

**Ratio rows** run one mechanism on against the same work with only
that mechanism off, as alternating pairs (the side that runs first
alternates too), through :func:`paired`.  Each reports the median on
and off cost, the median per-pair ratio off / on, the pairs the on
side won, and the interquartile range of the off side, and is green
when the median per-pair ratio reaches its bar:

- ``engine``: batch-32 ``InferenceEngine`` serving of 64 requests
  against the one-at-a-time full-forward path (a batch-1 engine with
  no cache), ≥ 3×;
- ``trim-bucket``: 6 VSAN epochs on a long-tail corpus with column
  trimming and length bucketing against neither, ≥ 2×;
- ``ivf``: two-stage IVF scoring of 64 requests at 100k items against
  compiled dense scoring, ≥ 3× at recall@10 ≥ 0.95.  The same row run
  under the BLAS library's default thread count is printed as a
  report: pinning one thread is what makes the row green;
- ``incremental``: adopting a 1 %-churn model through
  ``RetrievalEngine.refresh`` against an index rebuild, ≥ 10×, with
  recall@10 within ±0.005 of the rebuild;
- ``cold-forward``: batch-1 uncached engine scoring through compiled
  ``hidden_last`` against its eager twin, ≥ 1.3×;
- ``compiled-train``: an 8-epoch VSAN fit with validation on the
  ``perfbench train`` corpus, compiled against the eager twin of the
  train step, each arm in its own fresh process, 10 pairs on seeds
  4001–4010.  Wall time ≥ 1.05×, with peak RSS at most 0.95× eager
  (median per-pair ratio) and the final loss bitwise equal in every
  pair.  Wall time alone cannot tell compiled from eager reliably at
  10 pairs (a self-comparison's median ratio spreads about ±0.05);
  peak RSS can (it spreads ±0.005).

**Growth rows** run the same work at two settings of a model knob as
alternating pairs and bound how much a resource may grow between them:

- ``next-k head``: a 2-epoch VSAN fit on the ``perfbench train``
  corpus at ``k = 2`` against ``k = 1``, each in its own fresh process,
  5 pairs on seeds 5001–5005.  The next-``k`` objective scores id slots
  in the same row-tiled head as next-item training, so the ``k = 2``
  fit's peak RSS is at most 1.15× the ``k = 1`` fit's (median per-pair
  ratio); a catalogue-wide target or logit array would show as ~2×.

**Bound rows** check one run against an absolute bound: narrow cache
entries ≤ 4 KB each and ≤ 64 KB net allocation over 5 fully cached
calls; an int8 engine build at ``perfbench serve-catalog``'s shape
(100k items, d = 64 plus the bias, ``nlist=1024``) holding ≤ 8 MB of
traced memory beyond what the engine keeps; the 2-shard cluster
≥ 150 req/s (best of 3) with exact accounting; overload shed at
admission and drained in under 20 s;
the replicated cluster's chaos drill (availability ≥ 0.95, worst heal
≤ 5 s, goodput ``dip_depth < 1.0``, no failed request); and a healthy
canary rolled across a 2×2 cluster between two halves of paced traffic
(rollout ok, availability ≥ 0.95, no failed request, the canary served
on every shard).  All cluster rows drive load and faults through the
open-loop driver of ``tests/chaos.py``.

**Report rows** have no bar: the recall@N-vs-nprobe curve (committed
as ``benchmarks/results/retrieval_recall.json``, with its monotonicity
and floor checks) and the hardware ceiling of the two heaviest kernels
of a training step against a bare numpy matmul of the same shapes.

Every row runs with one BLAS thread (pinned before numpy loads, as
``perfbench/run.py`` pins it) and the float32 compute dtype, except the
default-BLAS reading of ``ivf``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass
from functools import partial
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads.  Only when run as a
    # script: importing this module leaves the caller's environment be.
    for _name in BLAS_THREADS:
        os.environ[_name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import repro.train.trainer as trainer_module  # noqa: E402
from perfbench.catalog_workload import (  # noqa: E402
    INDEX as SERVE_CATALOG_INDEX,
    NUM_ITEMS as SERVE_CATALOG_ITEMS,
    PLANTED_CENTERS as SERVE_CATALOG_CENTERS,
    build_model as serve_catalog_model,
)
from perfbench.common import (  # noqa: E402
    host_fingerprint,
    loadavg,
    median,
    quantile,
    steal_ticks,
)
from perfbench.inputs import beauty_dataset  # noqa: E402
from perfbench.train_workload import SCALE  # noqa: E402
from repro.core import VSAN  # noqa: E402
from repro.core.elbo import reconstruction_targets  # noqa: E402
from repro.data import (  # noqa: E402
    SequenceCorpus,
    ZipfCatalogConfig,
    pad_left,
    split_strong_generalization,
    zipf_histories,
)
from repro.data.synthetic import ZipfTrafficConfig, zipf_traffic  # noqa: E402
from repro.experiments.zoo import build_model  # noqa: E402
from repro.models import SASRec  # noqa: E402
from repro.retrieval import (  # noqa: E402
    IndexConfig,
    RetrievalEngine,
    recall_curve,
)
from repro.serve import (  # noqa: E402
    CircuitBreaker,
    ClusterConfig,
    EngineConfig,
    InferenceEngine,
    RecommendService,
    RetryPolicy,
    ServiceConfig,
    ServingCluster,
)
from repro.tensor import default_dtype  # noqa: E402
from repro.tensor.random import make_rng  # noqa: E402
from repro.tensor.topk import top_k_indices  # noqa: E402
from repro.train import Trainer, TrainerConfig  # noqa: E402
from tests.chaos import (  # noqa: E402
    ChaosConfig,
    ChaosScheduleConfig,
    chaos_schedule,
    run_chaos,
)
from tests.reference import eager_hidden_last, eager_step_values  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Median per-pair ratio (off / on) each ratio row must reach.
RATIO_BARS = {
    "engine": 3.0,
    "trim-bucket": 2.0,
    "ivf": 3.0,
    "incremental": 10.0,
    "cold-forward": 1.3,
    "compiled-train": 1.05,
}
#: Compiled training's peak RSS over eager's, at most (median pair).
TRAIN_RSS_BAR = 0.95
TRAIN_PAIRS = 10
#: A k = 2 fit's peak RSS over a k = 1 fit's, at most (median pair).
NEXT_K_RSS_BAR = 1.15
NEXT_K_PAIRS = 5


# ----------------------------------------------------------------------
# Pairing and verdicts
# ----------------------------------------------------------------------

@dataclass
class Pairing:
    """Costs of alternating on / off runs (lower is better), pair by
    pair."""

    on: list
    off: list

    def of(self, key: str) -> "Pairing":
        """The pairing of one field of dict-valued costs."""
        return Pairing([v[key] for v in self.on], [v[key] for v in self.off])

    @property
    def ratio(self) -> float:
        """Median per-pair ratio off / on: how many times cheaper the
        mechanism makes the work."""
        return median([f / n for n, f in zip(self.on, self.off)])

    @property
    def wins(self) -> int:
        """Pairs in which the on side was strictly cheaper."""
        return sum(n < f for n, f in zip(self.on, self.off))

    @property
    def iqr(self) -> float:
        """Interquartile range of the off side's costs."""
        return quantile(self.off, 0.75) - quantile(self.off, 0.25)


def paired(on, off, pairs: int, warmup: int = 1) -> Pairing:
    """Run ``on(k)`` and ``off(k)`` for pairs ``k = 0 .. pairs - 1``,
    the on side first in even pairs and second in odd ones; each call
    returns its own cost.  ``warmup`` pairs run first and are dropped.
    """
    for _ in range(warmup):
        on(0)
        off(0)
    on_costs, off_costs = [], []
    for k in range(pairs):
        if k % 2:
            off_costs.append(off(k))
            on_costs.append(on(k))
        else:
            on_costs.append(on(k))
            off_costs.append(off(k))
    return Pairing(on_costs, off_costs)


def seconds(fn):
    """``fn`` as a cost: a callable of the pair index that runs it after
    a garbage collection and returns its wall seconds."""

    def timed(_k):
        gc.collect()
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    return timed


@dataclass
class Row:
    """One line of the table.  ``ok`` is None for a report row."""

    name: str
    bar: str
    ok: bool | None
    pairing: Pairing | None = None
    unit: str = "ms"
    scale: float = 1e3
    blas: str = "1"
    note: str = ""


def verdict(checks, note: str) -> tuple[bool, str]:
    """Whether every ``(label, ok)`` of ``checks`` holds, and ``note``
    with the failed labels appended."""
    failed = ["FAILED " + label for label, ok in checks if not ok]
    return not failed, "; ".join(filter(None, [note, *failed]))


def ratio_row(name: str, pairing: Pairing, unit="ms", scale=1e3,
              checks=(), note="") -> Row:
    """A ratio row: green when the median per-pair ratio reaches
    ``RATIO_BARS[name]`` and every check holds."""
    bar = RATIO_BARS[name]
    ok, note = verdict(checks, note)
    return Row(name, f"≥ {bar:.3g}×", ok and pairing.ratio >= bar,
               pairing, unit, scale, note=note)


def bound_row(name: str, bar: str, checks, note: str) -> Row:
    """A row green when every check holds."""
    ok, note = verdict(checks, note)
    return Row(name, bar, ok, note=note)


# ----------------------------------------------------------------------
# Serving engine
# ----------------------------------------------------------------------

ENGINE_ITEMS, ENGINE_LENGTH, ENGINE_REQUESTS = 500, 30, 64


class SequentialScorer:
    """The serving path before the engine: pad, run the full
    per-position forward, slice the last position afterwards."""

    def __init__(self, model):
        self._model = model

    def score_batch(self, histories):
        padded = np.stack([
            pad_left(np.asarray(h, dtype=np.int64), self._model.max_length)
            for h in histories
        ])
        scores = self._model.forward_scores(padded).numpy()[:, -1, :].copy()
        scores[:, 0] = -np.inf
        return scores


def engine_rows() -> list[Row]:
    model = VSAN(ENGINE_ITEMS, ENGINE_LENGTH, dim=48, h1=1, h2=1, seed=0)
    model.eval()
    rng = np.random.default_rng(7)
    requests = [
        rng.integers(1, ENGINE_ITEMS + 1, size=rng.integers(3, ENGINE_LENGTH))
        for _ in range(ENGINE_REQUESTS)
    ]
    config = ServiceConfig(top_n=10, deadline=None)

    def engined():  # a fresh service each round: a cold cache
        RecommendService(
            [("vsan", model)], num_items=ENGINE_ITEMS, config=config,
            engine=EngineConfig(max_batch=32, cache_capacity=4096),
        ).recommend_many(requests)

    def sequential():  # one request per forward, nothing cached
        service = RecommendService(
            [("vsan", SequentialScorer(model))], num_items=ENGINE_ITEMS,
            config=config,
            engine=EngineConfig(max_batch=1, cache_capacity=0),
        )
        for history in requests:
            service.recommend(history)

    pairing = paired(seconds(engined), seconds(sequential), pairs=7)
    return [ratio_row("engine", pairing)]


# ----------------------------------------------------------------------
# Training fast path: trimming and length bucketing
# ----------------------------------------------------------------------

TRIM_ITEMS, TRIM_LENGTH, TRIM_USERS, TRIM_EPOCHS = 200, 50, 768, 6


def long_tail_split():
    """7/8 of the users have 3–8 items, 1/8 have 40–50, each following a
    cyclic next-item pattern, padded to a 50-item window."""
    rng = np.random.default_rng(0)
    sequences = []
    for user in range(TRIM_USERS):
        length = int(
            rng.integers(40, 51) if user % 8 == 0 else rng.integers(3, 9)
        )
        start = int(rng.integers(0, TRIM_ITEMS))
        sequences.append(np.array(
            [(start + t) % TRIM_ITEMS + 1 for t in range(length)],
            dtype=np.int64,
        ))
    corpus = SequenceCorpus(sequences=sequences, num_items=TRIM_ITEMS)
    return split_strong_generalization(corpus, 64, make_rng(2))


def trim_bucket_rows() -> list[Row]:
    split = long_tail_split()

    def fit(fast: bool):
        def cost(_k):
            model = VSAN(TRIM_ITEMS, TRIM_LENGTH, dim=48, h1=1, h2=1,
                         dropout_rate=0.2, seed=3)
            config = TrainerConfig(
                epochs=TRIM_EPOCHS, batch_size=64, seed=0,
                compute_dtype="float32", trim_batches=fast,
                bucket_by_length=fast,
            )
            gc.collect()
            start = time.perf_counter()
            Trainer(config).fit(model, split.train)
            return time.perf_counter() - start

        return cost

    pairing = paired(fit(True), fit(False), pairs=5, warmup=0)
    return [ratio_row("trim-bucket", pairing, unit="s", scale=1.0)]


# ----------------------------------------------------------------------
# Catalogue-scale retrieval
# ----------------------------------------------------------------------

CATALOG_ITEMS, CATALOG_LENGTH, CATALOG_DIM = 100_000, 6, 96
CATALOG_REQUESTS = 64
PLANTED_CENTERS, PLANTED_NOISE = 512, 0.2
#: Traced bytes an engine build at serve-catalog's shape may hold
#: beyond what the engine keeps (see :func:`build_memory_row`).
BUILD_TRANSIENT_BAR = 8 << 20
#: The shipped operating point: ~0.4 % of the catalogue scanned per
#: query (nprobe / nlist = 4 / 1024), int8 lists, 64 re-ranked
#: candidates.
GATE_CONFIG = IndexConfig(
    nlist=1024, nprobe=4, candidates=64, quantize="int8", seed=0,
    kmeans_iters=4,
)


def catalog_model(churn: float = 0.0):
    """SASRec over a 100k-item table planted with 512 Gaussian clusters
    (learned item embeddings are strongly clustered; isotropic noise is
    IVF's worst case and no one's embedding table).  ``churn`` perturbs
    that fraction of the item columns, as a routine embedding refresh
    would; every other parameter stays bitwise equal."""
    model = SASRec(
        CATALOG_ITEMS, CATALOG_LENGTH, dim=CATALOG_DIM, num_blocks=1, seed=0,
        tie_weights=False,
    )
    model.eval()
    rng = np.random.default_rng(0)
    centers = rng.standard_normal(
        (PLANTED_CENTERS, CATALOG_DIM)
    ).astype(np.float32) * 2.0
    assign = rng.integers(0, PLANTED_CENTERS, size=CATALOG_ITEMS + 1)
    noise = rng.standard_normal((CATALOG_ITEMS + 1, CATALOG_DIM))
    model.output.weight.data[...] = (
        centers[assign] + PLANTED_NOISE * noise.astype(np.float32)
    ).T
    if churn:
        rng = np.random.default_rng(7)
        cols = rng.choice(np.arange(1, CATALOG_ITEMS + 1),
                          size=int(CATALOG_ITEMS * churn), replace=False)
        model.output.weight.data[:, cols] += 0.5 * PLANTED_NOISE * (
            rng.standard_normal((CATALOG_DIM, cols.size)).astype(np.float32)
        )
    return model


def catalog_requests():
    return zipf_histories(
        ZipfCatalogConfig(
            num_users=CATALOG_REQUESTS, num_items=CATALOG_ITEMS,
            mean_length=8.0, max_length=16,
        ),
        seed=1,
    )


def recall_at_10(rows, exact_top10) -> float:
    got = top_k_indices(rows, 10)
    return float(np.mean([
        np.isin(want, have).mean() for want, have in zip(exact_top10, got)
    ]))


def ivf_pairing(model, requests) -> tuple[Pairing, float]:
    engine = RetrievalEngine(model, GATE_CONFIG)
    pairing = paired(
        seconds(lambda: engine.score_topk(requests)),
        seconds(lambda: model.score_batch(requests)),
        pairs=9, warmup=3,
    )
    exact = top_k_indices(model.score_batch(requests), 10)
    return pairing, recall_at_10(engine.score_topk(requests).to_dense(), exact)


def ivf_reading() -> dict:
    """The ``ivf`` row from scratch, for a child process."""
    with default_dtype(np.float32):
        pairing, recall = ivf_pairing(catalog_model(), catalog_requests())
    return {"on": pairing.on, "off": pairing.off, "recall": recall}


def retrieval_rows() -> list[Row]:
    model, requests = catalog_model(), catalog_requests()
    per_request = dict(unit="µs/req", scale=1e6 / CATALOG_REQUESTS)

    pairing, recall = ivf_pairing(model, requests)
    rows = [ratio_row("ivf", pairing, **per_request,
                      checks=[("recall@10 ≥ 0.95", recall >= 0.95)],
                      note=f"recall@10 {recall:.3f}")]
    default = in_child(ivf_reading, pinned=False)
    rows.append(Row(
        "ivf, default BLAS", f"(≥ {RATIO_BARS['ivf']:.3g}×)", None,
        Pairing(default["on"], default["off"]), **per_request,
        blas="default", note=f"recall@10 {default['recall']:.3f}",
    ))

    # Incremental refresh against a rebuild.
    clone = catalog_model(churn=0.01)
    engines, reports = {}, []

    def refresh(_k):
        engines["refreshed"] = refreshed = RetrievalEngine(model, GATE_CONFIG)
        gc.collect()
        start = time.perf_counter()
        reports.append(refreshed.refresh(clone))
        return time.perf_counter() - start

    def rebuild(_k):
        gc.collect()
        start = time.perf_counter()
        engines["rebuilt"] = RetrievalEngine(clone, GATE_CONFIG)
        return time.perf_counter() - start

    pairing = paired(refresh, rebuild, pairs=3, warmup=0)
    exact = top_k_indices(clone.score_batch(requests), 10)
    recall_update, recall_rebuild = (
        recall_at_10(engines[key].score_topk(requests).to_dense(), exact)
        for key in ("refreshed", "rebuilt")
    )
    rows.append(ratio_row(
        "incremental", pairing,
        checks=[
            ("mode update", all(r["mode"] == "update" for r in reports)),
            ("1 % changed", all(r["changed"] == int(CATALOG_ITEMS * 0.01)
                                for r in reports)),
            ("recall within ±0.005",
             abs(recall_update - recall_rebuild) <= 0.005),
        ],
        note=f"recall@10 update {recall_update:.4f} / rebuild "
             f"{recall_rebuild:.4f}",
    ))

    # The narrow cached path: entry size and steady-state allocation.
    engine = InferenceEngine(
        model, EngineConfig(max_batch=CATALOG_REQUESTS, index=GATE_CONFIG),
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
    growth = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    cache = engine.cache.snapshot()
    rows.append(bound_row(
        "narrow-cache", "≤ 4096 B/entry, ≤ 64 KB over 5 calls",
        [("cache hit", cache["hits"] >= 5 * CATALOG_REQUESTS),
         ("entry size", cache["bytes_per_entry"] <= 4096),
         ("net allocation", growth <= 64 * 1024)],
        f"{cache['bytes_per_entry']:.0f} B/entry, {growth} B net over "
        f"5 cached calls",
    ))

    rows.append(build_memory_row())
    rows.append(recall_curve_row(model, requests))
    return rows


def build_memory_row() -> Row:
    """An int8 ``RetrievalEngine`` built over the serve-catalog model
    under tracemalloc: the traced peak above the bytes the engine keeps
    (its item table, codes and ids) is the build's working memory.
    Streamed in cache-sized blocks it stays a few MB; one full-size
    float32 temporary of the ``(N, d + 1)`` table is 25 MB."""
    model = serve_catalog_model(0, SERVE_CATALOG_ITEMS, SERVE_CATALOG_CENTERS)
    config = IndexConfig(**SERVE_CATALOG_INDEX, seed=0)
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    engine = RetrievalEngine(model, config)
    build_s = time.perf_counter() - start
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    transient = peak - retained
    return bound_row(
        "build-memory", f"≤ {BUILD_TRANSIENT_BAR >> 20} MB over retained",
        [("int8 index", engine.index.quant is not None),
         ("transient", transient <= BUILD_TRANSIENT_BAR)],
        f"{transient / 2**20:.1f} MB transient over "
        f"{retained / 2**20:.1f} MB retained; build {build_s:.2f} s "
        f"under tracemalloc",
    )


def recall_curve_row(model, requests) -> Row:
    """Recall@N vs nprobe at the shipped nlist and candidates, written
    to ``benchmarks/results/retrieval_recall.json`` (the trade-off
    table of docs/SERVING.md)."""
    curve = recall_curve(
        model, requests, GATE_CONFIG,
        nprobes=(1, 2, 4, 8, 16, 32), top_ns=(1, 5, 10, 20),
    )
    at_10 = {point["nprobe"]: point["recall"]["10"]
             for point in curve["curve"]}
    readings = list(at_10.values())
    steps = zip(readings, readings[1:])
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "retrieval_recall.json").write_text(
        json.dumps(curve, indent=2) + "\n"
    )
    return bound_row(
        "recall-curve", "monotone; ≥ 0.95 at nprobe 4 and 32", [
            # More probes widen the scanned pool; coverage can only dip
            # by top-C cutoff noise, never trend downward.
            ("monotone", all(b >= a - 0.01 for a, b in steps)),
            ("≥ 0.95 at nprobe 4", at_10[GATE_CONFIG.nprobe] >= 0.95),
            ("≥ 0.95 at the widest nprobe", readings[-1] >= 0.95),
        ],
        "recall@10 by nprobe " + ", ".join(
            f"{nprobe}: {r:.3f}" for nprobe, r in at_10.items()),
    )


# ----------------------------------------------------------------------
# Compiled execution
# ----------------------------------------------------------------------

def cold_forward_rows() -> list[Row]:
    """Batch-1 uncached engine scoring, 20 calls per measurement."""

    def forward(compiled: bool):
        model = VSAN(ENGINE_ITEMS, ENGINE_LENGTH, dim=48, h1=1, h2=1, seed=0)
        model.eval()
        if not compiled:
            model.hidden_last = partial(eager_hidden_last, model)
        engine = InferenceEngine(model, EngineConfig(cache_capacity=0))
        history = np.random.default_rng(7).integers(
            1, ENGINE_ITEMS + 1, size=20)

        def calls():
            for _ in range(20):
                engine.score_batch([history])

        return seconds(calls)

    pairing = paired(forward(True), forward(False), pairs=15, warmup=2)
    return [ratio_row("cold-forward", pairing, scale=1e3 / 20)]


def vm_hwm_mb() -> float:
    """Peak resident set of this process's address space (``VmHWM``),
    which, unlike ``getrusage``, starts afresh at exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def train_arm(compiled: bool, seed: int) -> dict:
    """One arm of ``compiled-train``, in a fresh process: an 8-epoch
    VSAN fit with validation every epoch on the ``perfbench train``
    corpus, compiled or with the eager twin of the train step."""
    if not compiled:
        trainer_module.training_step_values = eager_step_values
    dataset = beauty_dataset(SCALE)
    model = build_model("VSAN", dataset, seed=seed)
    config = TrainerConfig(epochs=8, batch_size=128, seed=seed,
                           compute_dtype="float32", eval_every=1)
    gc.collect()
    start = time.perf_counter()
    history = Trainer(config).fit(
        model, dataset.split.train, validation=dataset.split.validation
    )
    return {
        "seconds": time.perf_counter() - start,
        "rss_mb": vm_hwm_mb(),
        "loss": float(history.losses[-1]),
    }


def compiled_train_rows() -> list[Row]:
    runs = paired(
        lambda k: in_child(train_arm, True, 4001 + k),
        lambda k: in_child(train_arm, False, 4001 + k),
        pairs=TRAIN_PAIRS, warmup=0,
    )
    rss = runs.of("rss_mb")
    equal = sum(n["loss"] == f["loss"] for n, f in zip(runs.on, runs.off))
    row = ratio_row(
        "compiled-train", runs.of("seconds"), unit="s", scale=1.0, checks=[
            (f"peak RSS ≤ {TRAIN_RSS_BAR}× eager",
             rss.ratio >= 1 / TRAIN_RSS_BAR),
            ("final loss bitwise equal", equal == TRAIN_PAIRS),
        ],
        note=f"peak RSS {median(rss.on):.1f} / {median(rss.off):.1f} MB "
             f"({1 / rss.ratio:.3f}×, off IQR {rss.iqr:.2f} MB); final "
             f"loss equal in {equal}/{TRAIN_PAIRS} pairs",
    )
    row.bar += f", RSS ≤ {TRAIN_RSS_BAR}×, equal loss"
    return [row]


def next_k_arm(k: int, seed: int) -> dict:
    """One arm of ``next-k head``, in a fresh process: a 2-epoch VSAN
    fit with next-``k`` targets on the ``perfbench train`` corpus."""
    dataset = beauty_dataset(SCALE)
    model = build_model("VSAN", dataset, seed=seed, k=k)
    config = TrainerConfig(epochs=2, batch_size=128, seed=seed,
                           compute_dtype="float32")
    gc.collect()
    start = time.perf_counter()
    Trainer(config).fit(model, dataset.split.train)
    return {"seconds": time.perf_counter() - start, "rss_mb": vm_hwm_mb()}


def next_k_rows() -> list[Row]:
    runs = paired(
        lambda i: in_child(next_k_arm, 2, 5001 + i),
        lambda i: in_child(next_k_arm, 1, 5001 + i),
        pairs=NEXT_K_PAIRS, warmup=0,
    )
    rss, wall = runs.of("rss_mb"), runs.of("seconds")
    growth = median([n / f for n, f in zip(rss.on, rss.off)])
    return [Row(
        "next-k head", f"k=2 RSS ≤ {NEXT_K_RSS_BAR}× k=1",
        growth <= NEXT_K_RSS_BAR, rss, unit="MB", scale=1.0,
        note=f"peak RSS k=2 over k=1 {growth:.3f}×; wall "
             f"{median(wall.on):.2f} / {median(wall.off):.2f} s",
    )]


# ----------------------------------------------------------------------
# Sharded cluster
# ----------------------------------------------------------------------

CLUSTER_USERS, CLUSTER_ITEMS = 1_000_000, 200
CLUSTER_RATE = 2_000.0  # offered-load schedule; the replay is unpaced
#: The reference box sustains ~800 req/s with this model and traffic;
#: the floor sits well under half, so only a real regression trips it.
CLUSTER_MIN_RPS = 150.0


def cluster_traffic(requests: int, seed: int, rate=CLUSTER_RATE):
    return zipf_traffic(ZipfTrafficConfig(
        num_users=CLUSTER_USERS, num_items=CLUSTER_ITEMS,
        num_requests=requests, rate=rate, max_length=18,
    ), seed)


def service_factory(primary):
    def factory():
        return RecommendService(
            [("vsan", primary)],
            num_items=CLUSTER_ITEMS,
            config=ServiceConfig(top_n=10, deadline=None),
            retry=RetryPolicy(max_attempts=2, base_delay=0.001,
                              max_delay=0.002, seed=0),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=0.5, window=8, min_calls=4, cooldown=1.0,
            ),
        )

    return factory


def accounted(report) -> list[tuple[str, bool]]:
    return [("cluster accounting", report["cluster_accounted"]),
            ("merged shard accounting", report["service_accounted"])]


def cluster_rows() -> list[Row]:
    primary = VSAN(CLUSTER_ITEMS, max_length=20, dim=16, h1=1, h2=1, k=1,
                   seed=0)
    primary.eval()
    factory = service_factory(primary)
    rows = []

    # Sustained throughput: best of 3 unpaced replays of 200 requests.
    traffic = list(cluster_traffic(200, seed=0))
    unpaced = ChaosConfig(pace=False, probe_requests=0, drain_timeout=20.0)
    reports = []
    for _ in range(3):
        with ServingCluster(factory, config=ClusterConfig(
            num_shards=2, batch_size=16, max_queue=256, worker_timeout=20.0,
        )) as cluster:
            reports.append(run_chaos(cluster, traffic, [], unpaced))
    best = max(reports, key=lambda r: r["sustained_rps"])
    checks = [("sustained req/s", best["sustained_rps"] >= CLUSTER_MIN_RPS)]
    for report in reports:
        checks += accounted(report) + [
            ("all completed", report["completed"] == len(traffic)
             and report["latency"]["count"] == len(traffic)),
            ("none shed or failed",
             report["shed"] == 0 and report["failed"] == 0),
        ]
    rows.append(bound_row(
        "cluster", f"≥ {CLUSTER_MIN_RPS:.0f} req/s, exact accounting",
        checks, f"{best['sustained_rps']:.0f} req/s, p99 "
                f"{best['latency']['p99_ms']:.1f} ms (2 shards, best of 3)",
    ))

    # Overload sheds at admission and never wedges.
    start = time.perf_counter()
    with ServingCluster(factory, config=ClusterConfig(
        num_shards=2, batch_size=64, max_queue=8, worker_timeout=20.0,
    )) as cluster:
        report = run_chaos(cluster, cluster_traffic(300, seed=3), [],
                           unpaced)
    elapsed = time.perf_counter() - start
    rows.append(bound_row("shed", "sheds, drains < 20 s", [
        ("shed at admission", report["shed"] > 0),
        *accounted(report),
        ("completed + shed = offered",
         report["completed"] + report["shed"] == report["offered"]),
        ("no wedge", elapsed < 20.0),
    ], f"{report['shed']}/{report['offered']} shed, {elapsed:.1f} s"))

    # Seeded kill / stall drill against a 2x2 replicated cluster.
    schedule = chaos_schedule(
        ChaosScheduleConfig(num_requests=240, num_faults=4,
                            kinds=("kill", "stall")),
        0,
    )
    with ServingCluster(factory, config=ClusterConfig(
        num_shards=2, replicas_per_shard=2, batch_size=8, max_queue=256,
        worker_timeout=20.0, respawn_backoff=0.05, stall_timeout=0.3,
        heartbeat_interval=0.1,
    )) as cluster:
        report = run_chaos(
            cluster, cluster_traffic(240, seed=0, rate=400.0), schedule,
            ChaosConfig(stall_seconds=0.9, checkpoint_every=20),
        )
    dip = report["goodput"]["dip_depth"]
    rows.append(bound_row(
        "recovery", "avail ≥ 0.95, heal ≤ 5 s, dip < 1, 0 failed", [
            ("faults fired", report["faults_applied"] >= 3),
            ("no failed request", report["failed"] == 0),
            ("availability", report["availability"] >= 0.95),
            *accounted(report),
            ("full capacity", report["recovered"]
             and report["serving_shards"] == [0, 1]),
            ("probes served", report["probe_completed"] > 0),
            ("respawned", report["respawns"] >= 1),
            ("worst heal", report["max_recovery_seconds"] <= 5.0),
            ("goodput never stalled", dip is not None and dip < 1.0),
        ],
        f"{report['faults_applied']} faults, availability "
        f"{report['availability']:.3f}, worst heal "
        f"{report['max_recovery_seconds']:.2f} s, dip {dip}",
    ))

    # A healthy canary (a SASRec in the VSAN rung) rolled across a 2x2
    # cluster between two halves of paced traffic.
    canary = SASRec(CLUSTER_ITEMS, max_length=20, dim=16, seed=1)
    canary.eval()
    paced = ChaosConfig(probe_requests=0, drain_timeout=20.0)
    with ServingCluster(factory, config=ClusterConfig(
        num_shards=2, replicas_per_shard=2, batch_size=8, max_queue=256,
        worker_timeout=20.0,
    )) as cluster:
        halves = [run_chaos(
            cluster, cluster_traffic(120, seed=4, rate=400.0), [], paced
        )]
        probes = [history for _, history, _ in cluster_traffic(8, seed=5)]
        rollout = cluster.rollout("vsan", canary, probes)
        halves.append(run_chaos(
            cluster, cluster_traffic(120, seed=6, rate=400.0), [], paced
        ))
        serving = {shard: rungs["vsan"]["model"]
                   for shard, rungs in cluster.describe().items()}
    availability = sum(h["completed"] for h in halves) / max(
        sum(h["submitted"] for h in halves), 1)
    checks = [
        ("rollout ok", rollout.ok),
        ("no failed request", all(h["failed"] == 0 for h in halves)),
        ("availability", availability >= 0.95),
        *accounted(halves[0]), *accounted(halves[1]),
        ("canary on every shard", serving == {0: "SASRec", 1: "SASRec"}),
    ]
    rows.append(bound_row(
        "rollout", "ok, avail ≥ 0.95, 0 failed, canary served", checks,
        f"ok {rollout.ok}, availability {availability:.3f}, serving "
        f"{serving}",
    ))
    return rows


# ----------------------------------------------------------------------
# Hardware ceiling
# ----------------------------------------------------------------------

def bare_seconds(*products) -> float:
    """Median wall seconds of one pass over ``products``, pairs of
    operands to multiply with ``@``."""
    times = []
    for _ in range(15):
        start = time.perf_counter()
        for a, b in products:
            a @ b
        times.append(time.perf_counter() - start)
    return median(times)


def ceiling_rows() -> list[Row]:
    """Achieved GFLOP/s of the output head and of attention in the
    largest training program, against bare numpy matmuls of the same
    shapes (GEMM flops only, one thread)."""
    from profile_train_step import largest_program

    key, program, rows = largest_program(seed=0)
    with default_dtype(np.float32):
        program.profile(3, {"rows": rows})
        table = program.profile(20, {"rows": rows})
    head, attention = table["linear_cross_entropy"], table["fused_attention"]
    dim, classes = build_model(
        "VSAN", beauty_dataset(SCALE), seed=0).output_head()[0].shape
    batch, length = rows.shape[0], rows.shape[1] - 1
    supervised = int(np.count_nonzero(
        reconstruction_targets(rows, 1)[2]))
    draw = partial(np.random.default_rng(0).standard_normal,
                   dtype=np.float32)
    h, g = draw((supervised, dim)), draw((supervised, classes))
    w = draw((dim, classes))
    q, p = draw((batch, length, dim)), draw((batch, length, length))
    head_flops = 3 * 2 * supervised * dim * classes
    calls = attention["forward_steps"]
    attention_flops = calls * 6 * 2 * batch * length * length * dim
    bare_head = bare_seconds((h, w), (g, w.T), (h.T, g))
    bare_attention = calls * bare_seconds(
        (q, q.swapaxes(1, 2)), (p, q), (p.swapaxes(1, 2), q),
        (q, q.swapaxes(1, 2)), (p, q), (p.swapaxes(1, 2), q),
    )
    out = []
    for name, entry, flops, bare in (
        ("ceiling: head", head, head_flops, bare_head),
        ("ceiling: attention", attention, attention_flops, bare_attention),
    ):
        ms = entry["forward_ms"] + entry["backward_ms"]
        out.append(Row(name, "report", None, note=(
            f"{ms:.1f} ms, {flops / ms / 1e6:.1f} GFLOP/s; bare GEMMs "
            f"{bare * 1e3:.1f} ms, {flops / bare / 1e9:.1f} GFLOP/s "
            f"({100 * bare / (ms / 1e3):.0f} % of the kernel)")))
    return out


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def in_child(fn, *args, pinned: bool = True):
    """``fn(*args)`` in a fresh spawned interpreter, where numpy loads
    anew: with one BLAS thread, or with the library's default when not
    ``pinned``."""
    saved = {name: os.environ.pop(name, None) for name in BLAS_THREADS}
    if pinned:
        os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    try:
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            return pool.apply(fn, args)
    finally:
        for name, value in saved.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value


ROWS = {
    "engine": engine_rows,
    "trim-bucket": trim_bucket_rows,
    "retrieval": retrieval_rows,
    "cold-forward": cold_forward_rows,
    "compiled-train": compiled_train_rows,
    "next-k": next_k_rows,
    "cluster": cluster_rows,
    "ceiling": ceiling_rows,
}


def cell(row: Row, costs) -> str:
    return f"{median(costs) * row.scale:.3g} {row.unit}"


def render(row: Row) -> str:
    state = {True: "green", False: "RED", None: "report"}[row.ok]
    if row.pairing is None:
        numbers = ["", "", "", "", ""]
    else:
        pairing = row.pairing
        numbers = [
            cell(row, pairing.on), cell(row, pairing.off),
            f"{pairing.ratio:.2f}×", f"{pairing.wins}/{len(pairing.on)}",
            f"{pairing.iqr * row.scale:.3g} {row.unit}",
        ]
    return "| " + " | ".join(
        [row.name, *numbers, row.blas, row.bar, state, row.note]) + " |"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="*", metavar="ROW",
                        help=f"row groups to run: {', '.join(ROWS)} "
                             "(default: all)")
    names = parser.parse_args(argv).rows or list(ROWS)
    unknown = sorted(set(names) - ROWS.keys())
    if unknown:
        parser.error(f"unknown rows: {', '.join(unknown)}")

    steal = steal_ticks()
    started = time.perf_counter()
    print("| row | on | off | ratio off/on | wins | off IQR | BLAS threads "
          "| bar | verdict | note |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    red = []
    with default_dtype(np.float32):
        for name in names:
            for row in ROWS[name]():
                print(render(row), flush=True)
                if row.ok is False:
                    red.append(row.name)
    host = host_fingerprint(ROOT)
    host["noise"] = {"steal_ticks": steal_ticks() - steal,
                     "loadavg": loadavg()}
    print(f"\n{time.perf_counter() - started:.0f} s; host {json.dumps(host)}")
    print(f"red: {', '.join(red)}" if red else "all gated rows green")
    return 1 if red else 0


if __name__ == "__main__":
    sys.exit(main())
