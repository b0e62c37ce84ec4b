"""Compiled-execution benchmarks: trace-and-replay vs eager.

The compiled path (:mod:`repro.tensor.compile`) records one eager run of
a training or scoring step as a flat program over its model's shared
scratch slab, then replays it with zero graph construction and zero
steady-state allocation.  Two scenarios are tracked, each as an
eager/compiled pytest-benchmark pair plus an in-process speedup gate:

- **training step** — full VSAN optimizer step (forward + backward +
  clip + Adam) at the substrate-bench shape, under the float64 default
  dtype;
- **engine cold forward** — a batch-1 uncached ``score_batch`` through
  :class:`repro.serve.InferenceEngine` under the production float32
  serving dtype.

Production code has no eager switch, so the eager arms are built here:
the train step runs the taped forward and backward inline, and the cold
forward's model scores through an uncompiled ``hidden_last``.

The gate tests time eager and compiled steps *interleaved* (alternating
best-of pairs) because sequential A-then-B runs drift by tens of percent
on a busy single-core CI runner.  Recorded means are also compared
against ``benchmarks/BENCH_baseline.json`` by ``compare_bench.py``
(``make bench-compile``).

Gate calibration: the engine cold forward reliably measures 1.6-1.8x and
is gated at the 1.3x design target.  The training step measured
1.35-1.45x until the SAN block, FFN and reparameterization became fused
kernels, whose eager calls allocate only the buffers their replays
reuse; it now measures about 1.2-1.4x.  The 1.5x design target for the
tracing work is met against the pre-tracing eager baseline, but the same
change set also landed buffer-reuse gradient paths (``_accumulate_owned``,
closure-cached product buffers) in the *shared* backward code, speeding
the in-process eager twin by ~10% and eating into the headline ratio.
The hard gate therefore sits at 1.15x — low enough not to flake under CI
noise, high enough that losing the replay win (a retrace per step,
per-step graph construction, buffer churn) still fails loudly."""

import time

import numpy as np
import pytest

from repro.core import VSAN
from repro.data.batching import pad_left_into
from repro.optim import Adam, clip_grad_norm
from repro.serve import EngineConfig, InferenceEngine
from repro.tensor import default_dtype, no_grad
from repro.train.trainer import training_step_values

NUM_ITEMS = 500
MAX_LENGTH = 30
DIM = 48
BATCH = 64
ROW_LENGTH = 10

TRAIN_GATE = 1.15
COLD_FORWARD_GATE = 1.3


def eager_step_values(model, padded):
    """The uncompiled twin of ``training_step_values``: one taped
    forward and backward."""
    terms = model.training_elbo(padded)
    loss = terms.loss
    value = loss.item()
    loss.backward()
    return value, terms.reconstruction_value, terms.kl_value, terms.beta


def eager_hidden_last(model):
    """An uncompiled ``model.hidden_last``: one tape-free forward."""

    def hidden_last(histories):
        padded = model._padded_buffer(len(histories))
        for row, history in zip(padded, histories):
            pad_left_into(np.asarray(history, dtype=np.int64), row)
        with no_grad():
            return model.encode_last(padded).numpy().copy()

    return hidden_last


def make_train_step(compiled):
    """A full optimizer step (loss + backward + clip + Adam) closure over
    a fresh model; eager and compiled twins are built identically."""
    model = VSAN(NUM_ITEMS, MAX_LENGTH, dim=DIM, h1=1, h2=1, seed=0)
    model.train()
    optimizer = Adam(model.parameters())
    padded = np.zeros((BATCH, MAX_LENGTH + 1), dtype=np.int64)
    padded[:, -ROW_LENGTH:] = np.random.default_rng(7).integers(
        1, NUM_ITEMS + 1, size=(BATCH, ROW_LENGTH)
    )

    step_values = training_step_values if compiled else eager_step_values

    def step():
        optimizer.zero_grad()
        loss, _, _, _ = step_values(model, padded)
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        return loss

    return step


def make_cold_forward(compiled):
    """Batch-1 uncached engine scoring closure (cache disabled so every
    call pays the forward)."""
    model = VSAN(NUM_ITEMS, MAX_LENGTH, dim=DIM, h1=1, h2=1, seed=0)
    model.eval()
    if not compiled:
        model.hidden_last = eager_hidden_last(model)
    engine = InferenceEngine(model, EngineConfig(cache_capacity=0))
    history = np.random.default_rng(7).integers(1, NUM_ITEMS + 1, size=20)
    return lambda: engine.score_batch([history])


def interleaved_best(eager_step, compiled_step, pairs=10, warmup=3):
    """Best-of timings from alternating eager/compiled runs.

    Interleaving keeps both measurements under the same machine
    conditions; best-of filters scheduler noise."""
    for _ in range(warmup):
        eager_step()
        compiled_step()
    best_eager = best_compiled = float("inf")
    for _ in range(pairs):
        start = time.perf_counter()
        eager_step()
        best_eager = min(best_eager, time.perf_counter() - start)
        start = time.perf_counter()
        compiled_step()
        best_compiled = min(best_compiled, time.perf_counter() - start)
    return best_eager, best_compiled


# ----------------------------------------------------------------------
# Recorded benchmarks (run under --benchmark-only, tracked by
# compare_bench.py against BENCH_baseline.json)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["eager", "compiled"])
def test_vsan_train_step(benchmark, mode):
    step = make_train_step(compiled=(mode == "compiled"))
    step()  # trace (compiled) / warm allocator (eager)
    loss = benchmark(step)
    assert np.isfinite(loss)


@pytest.mark.parametrize("mode", ["eager", "compiled"])
def test_engine_cold_forward(benchmark, mode):
    with default_dtype(np.float32):
        forward = make_cold_forward(compiled=(mode == "compiled"))
        forward()  # trace (compiled) / warm allocator (eager)
        scores = benchmark(forward)
    assert scores.shape == (1, NUM_ITEMS + 1)


# ----------------------------------------------------------------------
# Hard speedup gates (no benchmark fixture: skipped under
# --benchmark-only, run second by ``make bench-compile``)
# ----------------------------------------------------------------------

def test_compiled_train_step_speedup_gate():
    """Replaying the training program must beat the eager twin by
    >= 1.15x (typical 1.35-1.45x; see the module docstring for why the
    gate sits below the 1.5x design target)."""
    eager = make_train_step(compiled=False)
    compiled = make_train_step(compiled=True)
    best_eager, best_compiled = interleaved_best(eager, compiled)
    ratio = best_eager / best_compiled
    print(
        f"\ntrain step: eager {best_eager * 1e3:.1f}ms, "
        f"compiled {best_compiled * 1e3:.1f}ms -> {ratio:.2f}x "
        f"(gate {TRAIN_GATE}x)"
    )
    assert ratio >= TRAIN_GATE, (
        f"compiled training step only {ratio:.2f}x faster than eager "
        f"(gate {TRAIN_GATE}x) — replay is paying per-step graph "
        "construction or allocation it should not"
    )


def test_compiled_cold_forward_speedup_gate():
    """Batch-1 uncached engine scoring must beat eager by >= 1.3x
    (typical 1.6-1.8x)."""
    with default_dtype(np.float32):
        eager = make_cold_forward(compiled=False)
        compiled = make_cold_forward(compiled=True)
        best_eager, best_compiled = interleaved_best(
            eager, compiled, pairs=20, warmup=5
        )
    ratio = best_eager / best_compiled
    print(
        f"\ncold forward: eager {best_eager * 1e3:.2f}ms, "
        f"compiled {best_compiled * 1e3:.2f}ms -> {ratio:.2f}x "
        f"(gate {COLD_FORWARD_GATE}x)"
    )
    assert ratio >= COLD_FORWARD_GATE, (
        f"compiled engine cold forward only {ratio:.2f}x faster than "
        f"eager (gate {COLD_FORWARD_GATE}x)"
    )
