"""``train``: ``Trainer.fit`` of VSAN on the Beauty-like corpus.

The only workload with a backward pass, Adam, and length bucketing and
trimming.  Its short histories make the output GEMM, the CE+KL loss and
trimming matter, with attention still present.

Set-up (timed as ``setup_s``) generates, preprocesses and splits the
corpus and builds the model with the zoo's Beauty hyper-parameters.
The job (``job_s``) is a fixed epoch budget in float32 with the default
compile, trim and bucket fast paths, validation NDCG@10 after every
epoch (the last one is ``quality``) and no early stop.  ``p50_ms`` and
``p95_ms`` are percentiles of the wall time of one optimizer step (batch
build, forward, backward, clip, Adam): the gaps between consecutive
``Adam.step`` returns within an epoch, stamped from outside.  The corpus
and split are fixed, so every seed trains on the same mix of batch
shapes.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

import repro.eval.evaluator as evaluator_module
import repro.train.trainer as trainer_module
from repro.experiments.zoo import build_model
from repro.optim import Adam
from repro.tensor.compile import programs_for
from repro.train import Trainer, TrainerConfig

from .common import (
    Outcome,
    cpu_seconds,
    median,
    peak_rss_mb,
    quantile,
    settle,
    setup_median,
    success_ratio,
)
from .inputs import beauty_dataset
from .tracing import Tracer

#: Corpus size relative to the Beauty-like analogue: ~2.4k users,
#: ~1.1k items, attention window 30.
SCALE = 3.0
#: Nominal epoch on the reference box (2 vCPUs, one BLAS thread); the
#: epoch budget is ``--seconds`` divided by this, rounded.
EPOCH_SECONDS = 1.2


def _setup(seed: int, scale: float):
    dataset = beauty_dataset(scale)
    return dataset, build_model("VSAN", dataset, seed=seed)


def _count_fill(tracer: Tracer, rows: np.ndarray) -> None:
    tracer.counters["tokens.real"] += int(np.count_nonzero(rows))
    tracer.counters["tokens.padded"] += rows.size


def instrument(tracer: Tracer) -> None:
    """Spans around the trainer's calls into each layer (wrapped where
    the trainer looks them up)."""
    tracer.wrap(trainer_module, "training_step_values", "train.step")
    tracer.wrap(trainer_module, "bucketed_minibatch_indices", "batching")
    tracer.wrap(trainer_module, "trim_batch", "batching", observe=_count_fill)
    tracer.wrap(trainer_module, "clip_grad_norm", "optim.clip")
    tracer.wrap(Adam, "step", "optim.adam")
    tracer.wrap(trainer_module, "evaluate_recommender", "eval")
    tracer.wrap(evaluator_module, "rank_items_batch", "ranking")
    tracer.wrap(evaluator_module, "rank_top_scores", "ranking")


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Outcome:
    scale = 0.5 if smoke else SCALE
    (dataset, model), setup_s = setup_median(lambda: _setup(seed, scale))
    split = dataset.split
    epochs = 1 if smoke else max(1, round(seconds / EPOCH_SECONDS))
    config = TrainerConfig(
        epochs=epochs, batch_size=128, seed=seed, compute_dtype="float32",
        eval_every=1,
    )
    stamps = []
    tracer = Tracer() if trace else None
    with Tracer() as clock, tracer or contextlib.nullcontext():
        clock.wrap(Adam, "step", "step.clock",
                   observe=lambda _, __: stamps.append(time.perf_counter()))
        if tracer is not None:
            instrument(tracer)
        settle()
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        history = Trainer(config).fit(
            model, split.train, validation=split.validation
        )
        job_s = time.perf_counter() - start
        cpu_s = cpu_seconds() - cpu_start
    rss = peak_rss_mb()

    steps = len(history.grad_norms)
    per_epoch = steps // epochs
    # The first gap of each epoch spans the previous epoch's validation.
    step_times = [stamps[i] - stamps[i - 1] for i in range(1, len(stamps))
                  if i % per_epoch]
    quality = float(history.validation_scores[-1][1])
    outcome = Outcome(
        metrics={
            "setup_s": setup_s,
            "job_s": job_s,
            "p50_ms": 1e3 * median(step_times),
            "p95_ms": 1e3 * quantile(step_times, 0.95),
            "cpu_s": cpu_s,
            "peak_rss_mb": rss,
            "quality": quality,
            # The trainer raises on a non-finite loss or gradient, so
            # every step that returns succeeded.
            "success_ratio": success_ratio(steps, 0),
        },
        attempted=steps,
        failed=0,
    )
    outcome.check(
        "train losses finite",
        np.isfinite(history.losses).all()
        and np.isfinite(history.grad_norms).all(),
        f"{len(history.losses)} epochs, {steps} steps",
    )
    outcome.check(
        "validation every epoch",
        len(history.validation_scores) == epochs,
        f"{len(history.validation_scores)} of {epochs}",
    )
    outcome.check(
        "same number of steps every epoch",
        len(stamps) == steps and steps == per_epoch * epochs,
        f"{steps} steps in {epochs} epochs",
    )
    if tracer is not None:
        outcome.layers = train_layers(tracer, programs_for(model))
    return outcome


def train_layers(tracer: Tracer, programs) -> dict[str, float]:
    spans = tracer.durations
    counters = tracer.counters
    lookups = programs.hits + programs.misses
    return {
        "train.step_ms": 1e3 * median(spans["train.step"]),
        "compile.traces": programs.misses,
        "compile.hit_ratio": programs.hits / lookups if lookups else 0.0,
        "batching.ms": 1e3 * sum(spans["batching"]),
        "batching.fill_ratio": (
            counters["tokens.real"] / counters["tokens.padded"]
            if counters["tokens.padded"] else 0.0
        ),
        "optim.clip_ms": 1e3 * median(spans["optim.clip"]),
        "optim.adam_ms": 1e3 * median(spans["optim.adam"]),
        "eval.ms": 1e3 * median(spans["eval"]),
        "ranking.rank_us": 1e6 * median(spans["ranking"]),
    }
