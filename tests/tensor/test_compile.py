"""Trace-and-replay compiled execution: bitwise parity with eager.

The compiled path (``repro.tensor.compile``) records one instrumented
eager run into a flat program and replays it for every later step with
the same cache key.  Every program of a model keeps its replay-rewritten
buffers in one shared scratch slab, so the acceptance bar is *bitwise*
identity — loss, every gradient, every RNG stream — even when the slab
is poisoned between calls and keys of different shapes interleave.  The
tests below compare twin models (same seed) stepped through
``training_step_values`` vs. its eager twin (``tests/reference.py``),
full ``Trainer.fit`` runs vs. fits with the eager twin patched into the
trainer, and check that the slab is sized to the largest program rather
than the sum of all.
"""

import functools
import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from repro.core.vsan import VSAN
from repro.data import SequenceCorpus
from repro.models import Caser, GRU4Rec, SASRec
from repro.models.svae import SVAE
from repro.optim import Adam, clip_grad_norm
from repro.tensor import (
    Tensor,
    default_dtype,
    linear_cross_entropy,
    tape_node_count,
)
from repro.tensor import fused as fused_module
from repro.tensor.tensor import _retain as retain
from repro.tensor import compile as compile_module
from repro.tensor.compile import (
    DYNAMIC,
    Program,
    ProgramCache,
    build_program,
    programs_for,
    step_scratch,
    trace,
)
from repro.tensor.random import noise_scratch_size
from repro.train import Trainer, TrainerConfig
from repro.train import trainer as trainer_module
from repro.train.annealing import ConstantBeta, KLAnnealing
from repro.train.trainer import _training_key, training_step_values
from tests.reference import eager_hidden_last, eager_step_values

NUM_ITEMS = 50
WIDTH = 12


MODEL_FACTORIES = {
    # annealing crosses beta=0 within the first steps, so VSAN/SVAE also
    # exercise the beta-zero cache-key split and the retrace at the
    # zero-crossing.
    "vsan": lambda: VSAN(
        NUM_ITEMS, WIDTH, dim=16, seed=3,
        annealing=KLAnnealing(target=0.2, warmup_steps=2, anneal_steps=4),
    ),
    "svae": lambda: SVAE(
        NUM_ITEMS, WIDTH, dim=16, k=2, seed=3,
        annealing=KLAnnealing(target=0.2, warmup_steps=2, anneal_steps=4),
    ),
    "sasrec": lambda: SASRec(NUM_ITEMS, WIDTH, dim=16, seed=3),
    "gru4rec": lambda: GRU4Rec(NUM_ITEMS, WIDTH, dim=16, seed=3),
}


def make_batches(num_items, width, batch, n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        rows = np.zeros((batch, width), dtype=np.int64)
        for r in range(batch):
            length = rng.integers(2, width + 1)
            rows[r, width - length:] = rng.integers(
                1, num_items + 1, size=length
            )
        out.append(rows)
    return out


def grads_of(model):
    return [
        None if p.grad is None else np.asarray(p.grad).copy()
        for p in model.parameters()
    ]


def assert_same_grads(a, b, context):
    for i, (ga, gb) in enumerate(zip(a, b)):
        assert (ga is None) == (gb is None), (context, i)
        if ga is not None:
            np.testing.assert_array_equal(ga, gb, err_msg=f"{context}[{i}]")


def run_twin_steps(name, steps=5):
    """Step eager and compiled twins in lockstep; return the compiled
    model's program cache for inspection."""
    eager = MODEL_FACTORIES[name]()
    compiled = MODEL_FACTORIES[name]()
    eager.train()
    compiled.train()
    opt_e = Adam(eager.parameters(), lr=1e-3)
    opt_c = Adam(compiled.parameters(), lr=1e-3)
    for i, rows in enumerate(
        make_batches(NUM_ITEMS, WIDTH + 1, 8, steps)
    ):
        opt_e.zero_grad()
        ve = eager_step_values(eager, rows)
        opt_c.zero_grad()
        before = tape_node_count()
        vc = training_step_values(compiled, rows)
        tape_delta = tape_node_count() - before
        cache = programs_for(compiled)
        assert ve[0] == vc[0], (name, i, "loss", ve[0], vc[0])
        for a, b in zip(ve[1:], vc[1:]):
            assert (a is None) == (b is None) and (a is None or a == b), (
                name, i, "stats", ve, vc
            )
        assert_same_grads(grads_of(eager), grads_of(compiled), (name, i))
        clip_grad_norm(eager.parameters(), 5.0)
        clip_grad_norm(compiled.parameters(), 5.0)
        opt_e.step()
        opt_c.step()
        yield i, tape_delta, cache


class TestTrainingStepParity:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_bitwise_parity_float64(self, name):
        replayed = 0
        for i, tape_delta, cache in run_twin_steps(name):
            if cache.hits > replayed:
                # Replays build no autograd tape at all.
                assert tape_delta == 0, (name, i, tape_delta)
                replayed = cache.hits
        assert replayed >= 3, (name, "expected steady-state replays")
        assert not any(
            cache._programs[k] is DYNAMIC for k in cache.keys()
        ), (name, "unexpected dynamic bail")

    @pytest.mark.parametrize("name", ["vsan", "sasrec"])
    def test_bitwise_parity_float32(self, name):
        with default_dtype(np.float32):
            replayed = 0
            for i, tape_delta, cache in run_twin_steps(name):
                if cache.hits > replayed:
                    assert tape_delta == 0, (name, i, tape_delta)
                    replayed = cache.hits
            assert replayed >= 3

    def test_beta_zero_crossing_splits_cache_key(self):
        for _i, _delta, cache in run_twin_steps("vsan", steps=5):
            pass
        # warmup (beta == 0) and annealed (beta > 0) programs live under
        # distinct keys — replaying the beta=0 program with beta>0 would
        # silently skip the KL term's backward contribution.
        assert len(cache.keys()) == 2, cache.keys()

    def test_retained_arena_is_stable_across_replays(self):
        model = MODEL_FACTORIES["sasrec"]()
        model.train()
        rows = make_batches(NUM_ITEMS, WIDTH + 1, 8, 1)[0]
        training_step_values(model, rows)  # trace
        cache = programs_for(model)
        program, _terms = cache.get(_training_key(model, rows))
        arena_ids = [id(node.data) for node in program.order]
        result_buf = program.result.data
        for _ in range(4):
            for p in model.parameters():
                p.grad = None
            training_step_values(model, rows)
        assert program.replays == 4
        # Replay refreshes the same retained buffers in place; it never
        # swaps in fresh arrays (no per-step buffers, zero per-step graphs).
        assert program.result.data is result_buf
        assert [id(node.data) for node in program.order] == arena_ids


class TestCaserFallback:
    def test_caser_stays_eager_and_matches(self):
        """Caser gathers a data-dependent number of supervised windows,
        so its first compiled step marks the trace dynamic: the key is
        pinned ``DYNAMIC`` after one miss and every step runs eagerly,
        bitwise equal to the eager twin."""
        eager = Caser(NUM_ITEMS, WIDTH, dim=16, seed=3)
        compiled = Caser(NUM_ITEMS, WIDTH, dim=16, seed=3)
        opt_e = Adam(eager.parameters(), lr=1e-3)
        opt_c = Adam(compiled.parameters(), lr=1e-3)
        steps = 4
        for i, rows in enumerate(
            make_batches(NUM_ITEMS, WIDTH + 1, 8, steps)
        ):
            for model in (eager, compiled):
                model.train()
            opt_e.zero_grad()
            opt_c.zero_grad()
            ve = eager_step_values(eager, rows)
            vc = training_step_values(compiled, rows)
            assert ve == vc, (i, ve, vc)
            assert_same_grads(grads_of(eager), grads_of(compiled), i)
            for opt, model in ((opt_e, eager), (opt_c, compiled)):
                clip_grad_norm(model.parameters(), 5.0)
                opt.step()
        assert_same_weights(eager, compiled)
        cache = programs_for(compiled)
        # One trace that bailed, then a DYNAMIC hit per later step.
        assert (cache.misses, cache.hits) == (1, steps - 1), (
            cache.misses, cache.hits
        )
        train_keys = [k for k in cache.keys() if k[0] == "train"]
        assert len(train_keys) == 1, train_keys
        assert cache.get(train_keys[0]) is DYNAMIC

    def test_dynamic_steps_replace_stale_gradients(self):
        """The trace that bails and every later step of a key pinned
        ``DYNAMIC`` replace the parameters' gradients, as compiled keys
        do: two steps without ``zero_grad()`` leave bitwise the
        gradients of the second step taken from zero."""
        stale, zeroed = (Caser(NUM_ITEMS, WIDTH, dim=16, seed=3)
                         for _ in range(2))
        rows = make_batches(NUM_ITEMS, WIDTH + 1, 8, 1)[0]
        for model in (stale, zeroed):
            model.train()
            model.zero_grad()
        for p in stale.parameters():
            p.grad = np.ones_like(p.data)  # left by some earlier step
        training_step_values(stale, rows)  # the trace, which bails
        training_step_values(stale, rows)  # a DYNAMIC hit
        training_step_values(zeroed, rows)
        zeroed.zero_grad()
        training_step_values(zeroed, rows)
        assert programs_for(stale).get(_training_key(stale, rows)) is DYNAMIC
        for got, want in zip(grads_of(stale), grads_of(zeroed)):
            assert got.tobytes() == want.tobytes()


def eager_scoring(monkeypatch, model):
    """Route ``model``'s scoring forwards through the eager twin."""
    monkeypatch.setattr(
        model, "hidden_last", lambda histories: eager_hidden_last(
            model, histories
        )
    )


class TestProfile:
    def test_profile_covers_every_step_and_replays_exactly(self):
        """``Program.profile`` counts every forward step and backward
        closure once under its op kind, lists the output head, and
        leaves the gradients a plain replay leaves (on a twin model)."""
        profiled, replayed = (
            VSAN(NUM_ITEMS, WIDTH, dim=16, seed=3, dropout_rate=0.2,
                 annealing=ConstantBeta(0.2))
            for _ in range(2)
        )
        rows = make_batches(NUM_ITEMS, WIDTH + 1, 8, 1)[0]
        for model in (profiled, replayed):
            model.train()
            training_step_values(model, rows)  # the trace
        program, _terms = programs_for(profiled).get(
            _training_key(profiled, rows)
        )
        table = program.profile(replays=2, feed_values={"rows": rows})
        for _ in range(2):
            training_step_values(replayed, rows)
        assert program.replays == 2
        assert_same_grads(grads_of(replayed), grads_of(profiled), "grads")
        head = table["linear_cross_entropy"]
        assert (head["forward_steps"], head["backward_steps"]) == (1, 1)
        assert head["forward_ms"] > 0 and head["backward_ms"] > 0
        assert sum(
            entry["forward_steps"] for entry in table.values()
        ) == len(program.steps)
        assert sum(
            entry["backward_steps"] for entry in table.values()
        ) == sum(node._backward is not None for node in program.order)


class TestEvalCompiled:
    HISTORIES = [np.arange(1, 6), np.arange(3, 12), np.arange(2, 4)]

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_score_batch_parity(self, name, monkeypatch):
        model = MODEL_FACTORIES[name]()
        model.eval()
        compiled_scores = [model.score_batch(self.HISTORIES)
                           for _ in range(3)]
        eager_scoring(monkeypatch, model)
        eager_scores = model.score_batch(self.HISTORIES)
        for got in compiled_scores:
            np.testing.assert_array_equal(got, eager_scores)

    def test_replays_build_zero_tape_nodes(self):
        model = MODEL_FACTORIES["vsan"]()
        model.eval()
        model.score_batch(self.HISTORIES)  # trace
        before = tape_node_count()
        model.score_batch(self.HISTORIES)
        assert tape_node_count() == before
        assert programs_for(model).hits >= 1

    def test_steady_state_memory_is_flat(self):
        """After the trace, repeated forwards allocate only the returned
        score matrix — the slab is reused, nothing accumulates."""
        model = MODEL_FACTORIES["sasrec"]()
        model.eval()
        for _ in range(3):  # warm: trace + settle allocator pools
            model.score_batch(self.HISTORIES)
        scores = model.score_batch(self.HISTORIES)
        per_call_floor = scores.nbytes
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        for _ in range(20):
            model.score_batch(self.HISTORIES)
        now, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        growth = now - base
        # Generous ceiling: a couple of per-call result copies of slack,
        # but nowhere near 20 fresh activations' worth.
        assert growth < 4 * per_call_floor + (1 << 16), (
            growth, per_call_floor
        )

    def test_cache_is_lru_bounded(self):
        model = MODEL_FACTORIES["gru4rec"]()
        model.eval()
        capacity = ProgramCache().capacity
        # More distinct shape buckets than the cache holds.
        for batch in range(1, capacity + 5):
            model.score_batch([np.arange(1, 4)] * batch)
        cache = programs_for(model)
        assert len(cache.keys()) == capacity
        # The oldest buckets went first.
        assert ("hidden", (1, WIDTH), np.dtype(np.float64)) not in cache.keys()
        assert cache.keys()[-1][1][0] == capacity + 4


def make_corpus():
    rng = np.random.default_rng(1)
    sequences = []
    for _ in range(40):
        start = int(rng.integers(1, 11))
        sequences.append(
            np.array([(start + o - 1) % 10 + 1 for o in range(6)])
        )
    return SequenceCorpus(sequences=sequences, num_items=10)


def make_fit_vsan(seed=0):
    return VSAN(
        10, 6, dim=12, h1=1, h2=1, seed=seed,
        annealing=KLAnnealing(target=0.5, warmup_steps=4, anneal_steps=10),
    )


def assert_same_weights(a, b):
    for (name, pa), (_, pb) in zip(
        a.named_parameters(), b.named_parameters()
    ):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)


class TestFullFitParity:
    """Whole training runs — optimizer, clipping, beta schedule, RNG
    streams — must be bitwise identical with and without compilation."""

    def fit(self, model, corpus, eager=False, **kwargs):
        """``Trainer.fit``; ``eager=True`` patches the eager twin in for
        the trainer's compiled step."""
        trainer = Trainer(TrainerConfig(batch_size=8, seed=9, **kwargs))
        with pytest.MonkeyPatch.context() as monkeypatch:
            if eager:
                monkeypatch.setattr(
                    trainer_module, "training_step_values",
                    eager_step_values,
                )
            return trainer.fit(model, corpus)

    def test_fit_matches_eager_bitwise(self):
        corpus = make_corpus()
        eager = make_fit_vsan()
        base = self.fit(eager, corpus, epochs=4, eager=True)
        compiled = make_fit_vsan()
        got = self.fit(compiled, corpus, epochs=4)
        assert got.losses == base.losses
        assert got.reconstruction_losses == base.reconstruction_losses
        assert got.kl_values == base.kl_values
        assert got.betas == base.betas
        assert got.grad_norms == base.grad_norms
        assert_same_weights(eager, compiled)

    def test_fit_float32_matches_eager_bitwise(self):
        corpus = make_corpus()
        kwargs = dict(epochs=3, compute_dtype="float32")
        eager = make_fit_vsan()
        base = self.fit(eager, corpus, eager=True, **kwargs)
        compiled = make_fit_vsan()
        got = self.fit(compiled, corpus, **kwargs)
        assert got.losses == base.losses
        assert got.grad_norms == base.grad_norms
        assert_same_weights(eager, compiled)

    def test_resume_mid_beta_schedule_matches_straight_run(self, tmp_path):
        corpus = make_corpus()
        straight = make_fit_vsan()
        full = self.fit(straight, corpus, epochs=6)

        half = make_fit_vsan()
        Trainer(
            TrainerConfig(
                epochs=3, batch_size=8, seed=9,
                checkpoint_dir=str(tmp_path),
            )
        ).fit(half, corpus)
        resumed_model = make_fit_vsan()
        resumed = Trainer(
            TrainerConfig(epochs=6, batch_size=8, seed=9)
        ).fit(resumed_model, corpus, resume_from=tmp_path)

        # The resumed run re-traces from the checkpointed weights and
        # RNG streams; beta-schedule state must carry across the trace.
        assert resumed.losses == full.losses
        assert resumed.betas == full.betas
        assert resumed.grad_norms == full.grad_norms
        assert_same_weights(straight, resumed_model)

    def test_uniform_shuffle_matches_eager(self):
        """Uniformly shuffled batches of ragged rows trim to many
        distinct widths, so the compiled fit retraces across shapes."""
        rng = np.random.default_rng(4)
        # Long tail: four in five rows hold two items, the rest 3-6.
        lengths = np.where(
            rng.random(80) < 0.8, 2, rng.integers(3, 7, size=80)
        )
        corpus = SequenceCorpus(
            sequences=[rng.integers(1, 11, size=n) for n in lengths],
            num_items=10,
        )
        kwargs = dict(epochs=4, bucket_by_length=False)
        eager = make_fit_vsan()
        base = self.fit(eager, corpus, eager=True, **kwargs)
        compiled = make_fit_vsan()
        got = self.fit(compiled, corpus, **kwargs)
        assert got.losses == base.losses
        assert got.grad_norms == base.grad_norms
        assert_same_weights(eager, compiled)
        widths = {
            key[1][1] for key in programs_for(compiled).keys()
            if key[0] == "train"
        }
        assert len(widths) > 2, widths


# ----------------------------------------------------------------------
# The shared scratch slab
# ----------------------------------------------------------------------

def _annealed_vsan(**kwargs):
    return VSAN(
        NUM_ITEMS, WIDTH, dim=16, seed=3,
        annealing=KLAnnealing(target=0.2, warmup_steps=2, anneal_steps=4),
        **kwargs,
    )


SLAB_FACTORIES = dict(
    MODEL_FACTORIES,
    vsan_k2=lambda: _annealed_vsan(k=2),
    vsan_tied=lambda: _annealed_vsan(tie_weights=True),
    svae_k1=lambda: SVAE(
        NUM_ITEMS, WIDTH, dim=16, k=1, seed=3,
        annealing=KLAnnealing(target=0.2, warmup_steps=2, anneal_steps=4),
    ),
)

# (batch, width) of the alternating training batches: three cache keys
# per beta phase, all drawing from the one slab.
SLAB_SHAPES = [(8, WIDTH + 1), (5, 9), (7, 11)]
HISTORY_SETS = [
    [np.arange(1, 6), np.arange(3, 12), np.arange(2, 4)],
    [np.arange(4, 9), np.arange(1, 3)],
]


def poison(model):
    """Fill every slab chunk with 0xFF bytes (NaN in either float dtype):
    any replay that reads a slab byte before writing it shows up."""
    for chunk in programs_for(model).slab.chunks:
        chunk.fill(0xFF)


def poison_spans(views):
    for view in views:
        view.fill(0xFF)


def poison_at_death(monkeypatch):
    """Make every replayed backward fill each forward span with 0xFF the
    moment its program's plan (``Program.frees``) says it is dead: a
    backward closure that reads a span after its death, or a caller
    that reads a forward result after the backward, sees NaN."""
    original = Program.replay_backward
    installed = {}

    def install(program):
        cursor = [0]

        def poison_through(bucket):
            while cursor[0] <= bucket:
                poison_spans(program.frees[cursor[0]])
                cursor[0] += 1

        for step, node in enumerate(reversed(program.order)):
            if node._backward is None:
                continue

            def wrapped(grad, run=node._backward, step=step):
                poison_through(step)
                run(grad)
                poison_through(step + 1)

            node._backward = wrapped
        return cursor

    def replay_backward(program):
        cursor = installed.get(id(program))
        if cursor is None:
            cursor = installed[id(program)] = install(program)
        poison_spans(program.frees[0])
        cursor[0] = 1
        original(program)

    monkeypatch.setattr(Program, "replay_backward", replay_backward)


class TestPoisonedSlabParity:
    @pytest.mark.parametrize("name", sorted(SLAB_FACTORIES))
    def test_bitwise_parity_with_poisoned_slab(self, name, monkeypatch):
        self.check_parity(name, monkeypatch)

    @pytest.mark.parametrize("name", sorted(SLAB_FACTORIES))
    def test_bitwise_parity_with_spans_poisoned_at_death(
        self, name, monkeypatch
    ):
        """The backward's placement plan, checked byte by byte: each
        forward span is poisoned right after the last backward step
        that may read it, so reusing it early, or reading the loss or
        ELBO terms after the backward, breaks parity."""
        poison_at_death(monkeypatch)
        self.check_parity(name, monkeypatch)

    @staticmethod
    def check_parity(name, monkeypatch):
        eager = SLAB_FACTORIES[name]()
        compiled = SLAB_FACTORIES[name]()
        eager_scoring(monkeypatch, eager)
        opt_e = Adam(eager.parameters(), lr=1e-3)
        opt_c = Adam(compiled.parameters(), lr=1e-3)
        shapes = itertools.islice(itertools.cycle(SLAB_SHAPES), 9)
        for i, (batch, width) in enumerate(shapes):
            rows = make_batches(NUM_ITEMS, width, batch, 1, seed=i)[0]
            for model in (eager, compiled):
                model.train()
            opt_e.zero_grad()
            opt_c.zero_grad()
            ve = eager_step_values(eager, rows)
            poison(compiled)
            vc = training_step_values(compiled, rows)
            assert ve == vc, (name, i, ve, vc)
            assert_same_grads(grads_of(eager), grads_of(compiled), (name, i))
            for opt, model in ((opt_e, eager), (opt_c, compiled)):
                clip_grad_norm(model.parameters(), 5.0)
                opt.step()
            assert_same_weights(eager, compiled)

            # Scoring programs share the slab with the training programs.
            histories = HISTORY_SETS[i % 2]
            poison(compiled)
            hidden = compiled.hidden_last(histories)
            assert hidden.tobytes() == eager.hidden_last(histories).tobytes()
            poison(compiled)
            scores = compiled.score_batch(histories)
            assert scores.tobytes() == eager.score_batch(histories).tobytes()

        cache = programs_for(compiled)
        train_keys = [k for k in cache.keys() if k[0] == "train"]
        # Three shapes before and after the beta=0 crossing (where the
        # model has one).
        beta_phases = 2 if hasattr(compiled, "compile_beta_zero") else 1
        assert len(train_keys) == 3 * beta_phases, cache.keys()
        assert not any(cache._programs[k] is DYNAMIC for k in cache.keys())
        assert cache.hits >= 9, cache.hits
        # The plan fails closed, so this checks that the closure walk
        # sees into everything today's kernels capture.
        for key in train_keys:
            assert any(cache._programs[key][0].frees), (name, key)


def make_slab_vsan():
    # A constant beta: every key is one program shape, whatever the order.
    return VSAN(300, 16, dim=32, seed=3, annealing=ConstantBeta(0.2))


# Largest first; every batch is one cache key.
MEMORY_SHAPES = [(32, 17), (24, 15), (16, 13), (8, 11)]


def trace_shapes(model, shapes):
    model.train()
    for batch, width in shapes:
        rows = make_batches(300, width, batch, 1)[0]
        # As the trainer does: a stale ``.grad`` may alias the slab
        # (lifetime rule) and keeps every span of the trace live.
        model.zero_grad()
        training_step_values(model, rows)
    return programs_for(model)


def retained_bytes(shapes):
    """Bytes still allocated after tracing one program per shape."""
    model = make_slab_vsan()
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        cache = trace_shapes(model, shapes)
        gc.collect()
        now, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == len(shapes)
    return now - base


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks a fraction of one program, so the tests below measure the
    layout rather than the default chunk size's rounding."""
    monkeypatch.setattr(compile_module, "SLAB_CHUNK_BYTES", 1 << 20,
                        raising=False)


class TestSharedSlab:
    def test_retained_bytes_sized_to_largest_program(self, small_chunks):
        largest = retained_bytes(MEMORY_SHAPES[:1])
        every = retained_bytes(MEMORY_SHAPES)
        # Separate per-program buffers would retain about the sum.
        assert every <= 1.3 * largest, (every, largest)

    def test_programs_share_slab_memory(self):
        cache = trace_shapes(make_slab_vsan(), MEMORY_SHAPES[:2])
        (first, _), (second, _) = (cache._programs[k] for k in cache.keys())
        assert any(
            np.shares_memory(a.data, b.data)
            for a in first.order for b in second.order
        )

    def test_slab_size_independent_of_trace_order(self, small_chunks):
        ascending = trace_shapes(make_slab_vsan(), MEMORY_SHAPES[::-1])
        descending = trace_shapes(make_slab_vsan(), MEMORY_SHAPES)
        assert ascending.slab_bytes == descending.slab_bytes
        assert ascending.slab_bytes > compile_module.SLAB_CHUNK_BYTES

    def test_buffers_fill_tails_that_larger_ones_skipped(
        self, small_chunks
    ):
        """First fit: a buffer too large for the rest of a chunk opens
        the next one, and a later smaller buffer takes the tail it left
        instead of opening a third chunk."""
        chunk = compile_module.SLAB_CHUNK_BYTES
        slab = compile_module._Slab()
        sizes = (chunk // 2, 3 * chunk // 4, 2 * chunk // 5)
        views = [slab.take(np.ones(size, dtype=np.uint8)) for size in sizes]
        assert len(slab.chunks) == 2
        assert np.shares_memory(views[2], slab.chunks[0])
        assert not any(
            np.shares_memory(a, b)
            for a, b in itertools.combinations(views, 2)
        )
        slab.rewind()
        again = slab.take(np.ones(sizes[0], dtype=np.uint8))
        assert again.ctypes.data == views[0].ctypes.data

    def test_backward_buffers_take_the_lowest_hole(self, small_chunks):
        """After ``begin_backward`` a buffer takes the lowest first-fit
        hole: released neighbours merge, and a buffer too large for any
        hole goes to a chunk tail."""
        chunk = compile_module.SLAB_CHUNK_BYTES
        slab = compile_module._Slab()
        sizes = (chunk // 4, chunk // 4, chunk // 4)
        forward = [slab.take(np.ones(n, dtype=np.uint8)) for n in sizes]
        spans = slab.begin_backward()
        assert len(spans) == 3
        slab.release(spans[1])
        slab.release(spans[0])
        # The two released quarters merged into one half-chunk hole.
        merged = slab.take(np.ones(chunk // 2, dtype=np.uint8))
        assert merged.ctypes.data == forward[0].ctypes.data
        # No hole left below the tail quarter: the next one takes it.
        tail = slab.take(np.ones(chunk // 8, dtype=np.uint8))
        assert tail.ctypes.data == forward[2].ctypes.data + chunk // 4
        assert len(slab.chunks) == 1
        assert slab.trace_placed == 3 * chunk // 4 + chunk // 8
        assert slab.resident == 3 * chunk // 4 + chunk // 2 + chunk // 8

    def test_invalidate_drops_the_slab(self):
        from repro.tensor.compile import invalidate

        model = make_slab_vsan()
        assert trace_shapes(model, MEMORY_SHAPES[-1:]).slab_bytes > 0
        invalidate(model)
        assert programs_for(model).slab_bytes == 0


# ----------------------------------------------------------------------
# The fused output head + loss over supervised rows
# ----------------------------------------------------------------------

def rows_with_lengths(lengths, width, seed):
    """One left-padded batch; row ``r`` holds ``lengths[r]`` real items."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((len(lengths), width), dtype=np.int64)
    for r, length in enumerate(lengths):
        rows[r, width - length:] = rng.integers(
            1, NUM_ITEMS + 1, size=length
        )
    return rows


class TestLinearCrossEntropyReplay:
    """The supervised row count P changes from batch to batch under one
    program key: buffers are sized for every row and each replay uses
    their leading P rows."""

    def test_kernel_replays_more_and_fewer_supervised_rows(self):
        rng = np.random.default_rng(0)
        batch, length, dim, classes = 4, 6, 5, 9
        hidden = rng.normal(size=(batch, length, dim))
        weight = rng.normal(size=(dim, classes))
        bias = rng.normal(size=classes)
        targets = rng.integers(0, classes, size=(batch, length))
        weights = np.zeros((batch, length))
        weights[:, 3:] = 1.0  # traced with 12 of 24 rows supervised
        leaves = [
            Tensor(a, requires_grad=True) for a in (hidden, weight, bias)
        ]
        cache = ProgramCache()
        with trace(cache) as tracer:
            loss = linear_cross_entropy(*leaves, targets, weights)
            loss.backward()
        program = build_program(tracer, loss, require_backward=True)
        assert program is not None
        for supervised in (20, 5, 24, 1):
            hidden[...] = rng.normal(size=hidden.shape)
            targets[...] = rng.integers(0, classes, size=targets.shape)
            weights[...] = 0.0
            weights.reshape(-1)[
                rng.choice(weights.size, supervised, replace=False)
            ] = rng.uniform(0.5, 2.0, size=supervised)
            for chunk in cache.slab.chunks:
                chunk.fill(0xFF)
            program.replay()
            # Read before the backward, which may reuse the loss's bytes.
            got_loss = loss.data.tobytes()
            program.replay_backward()
            twins = [
                Tensor(a.copy(), requires_grad=True)
                for a in (hidden, weight, bias)
            ]
            want = linear_cross_entropy(
                *twins, targets.copy(), weights.copy()
            )
            want.backward()
            assert got_loss == want.data.tobytes(), supervised
            for got, ref in zip(leaves, twins):
                assert got.grad.tobytes() == ref.grad.tobytes(), supervised

    def test_training_replays_across_supervised_counts(self):
        def make():
            return VSAN(NUM_ITEMS, WIDTH, dim=16, seed=3,
                        annealing=ConstantBeta(0.2))

        eager, compiled = make(), make()
        opt_e = Adam(eager.parameters(), lr=1e-3)
        opt_c = Adam(compiled.parameters(), lr=1e-3)
        width = WIDTH + 1
        batches = [
            [6] * 8,                          # traced: half the rows
            [width] * 8,                      # no padding at all
            [2] * 8,                          # one supervised row each
            [3, width, 2, 9, 4, width, 2, 7],
        ]
        for i, lengths in enumerate(batches):
            rows = rows_with_lengths(lengths, width, seed=i)
            for model in (eager, compiled):
                model.train()
            opt_e.zero_grad()
            opt_c.zero_grad()
            ve = eager_step_values(eager, rows)
            poison(compiled)
            vc = training_step_values(compiled, rows)
            assert ve == vc, (i, ve, vc)
            assert_same_grads(grads_of(eager), grads_of(compiled), i)
            for opt, model in ((opt_e, eager), (opt_c, compiled)):
                clip_grad_norm(model.parameters(), 5.0)
                opt.step()
        cache = programs_for(compiled)
        assert len(cache.keys()) == 1, cache.keys()
        assert cache.hits == len(batches) - 1

    def test_vsan_program_retains_no_logit_matrix(self, monkeypatch):
        """At the ``perfbench train`` shape the head walks its supervised
        rows in tiles held in step-local scratch: no buffer the program
        keeps in the slab is as large as one tile of logits plus a row,
        let alone the ``(P, |I|+1)`` logit matrix, and its layout
        places at most 35 MB (43 MB with the whole logit matrix)."""
        taken = []
        take = compile_module._Slab.take

        def spy(slab, array):
            taken.append(array.shape)
            return take(slab, array)

        monkeypatch.setattr(compile_module._Slab, "take", spy)
        program, _cache = perfbench_program()
        classes = 1111
        tile = fused_module._tile_rows(classes, np.float32)
        assert 200 <= tile <= 250, tile
        wide = [
            shape for shape in taken
            if int(np.prod(shape)) >= (tile + 1) * classes
        ]
        assert wide == [], wide
        assert program.placed_bytes <= 35 << 20, program.placed_bytes


def perfbench_program():
    """The largest ``perfbench train`` program, traced on a synthetic
    batch: VSAN with d = 48 and ~1.1k items in float32, batch key
    ``(123, 27)``.  Returns it and its model's program cache."""
    rng = np.random.default_rng(0)
    rows = np.zeros((123, 27), dtype=np.int64)
    for r in range(len(rows)):
        length = rng.integers(2, 28)
        rows[r, 27 - length:] = rng.integers(1, 1111, size=length)
    with default_dtype(np.float32):
        model = VSAN(1110, 30, dim=48, h1=1, h2=1, dropout_rate=0.2,
                     seed=1, annealing=ConstantBeta(0.01))
        model.train()
        training_step_values(model, rows)
        key = _training_key(model, rows)
    cache = programs_for(model)
    program, _terms = cache.get(key)
    return program, cache


# ----------------------------------------------------------------------
# Backward placement over dead forward buffers
# ----------------------------------------------------------------------

def hand_over(x: Tensor) -> Tensor:
    """``2 x`` whose backward hands ``x`` a gradient held in a buffer
    the *forward* placed in the slab."""
    out = retain(x.data * 2.0)
    handed = retain(np.empty_like(x.data))

    def forward():
        np.multiply(x.data, 2.0, out=out)

    def backward(grad):
        np.multiply(grad, 2.0, out=handed)
        x._accumulate_owned(handed)

    return Tensor._make(out, (x,), backward, forward)


def opaque_scale(x: Tensor) -> Tensor:
    """``2 x`` whose backward reads a forward buffer only through a
    ``functools.partial``, which the closure walk cannot see into."""
    out = retain(x.data * 2.0)
    saved = retain(np.full_like(x.data, 2.0))
    scale = functools.partial(np.multiply, saved)

    def forward():
        np.multiply(x.data, 2.0, out=out)
        saved.fill(2.0)

    def backward(grad):
        x._accumulate(scale(grad))

    return Tensor._make(out, (x,), backward, forward)


def check_replays(program, loss, leaves, rng):
    """Replay ``program`` against fresh leaf values; its gradients
    must equal eager ones bitwise."""
    for step in range(3):
        leaves[0].data[...] = rng.normal(size=leaves[0].shape)
        for leaf in leaves:
            leaf.grad = None
        program.replay()
        program.replay_backward()
        got = [leaf.grad.copy() for leaf in leaves]
        for leaf in leaves:
            leaf.grad = None
        loss().backward()
        for mine, leaf in zip(got, leaves):
            assert mine.tobytes() == leaf.grad.tobytes(), step


class TestBackwardPlacement:
    def test_forward_buffer_handed_on_as_a_gradient_stays_live(
        self, monkeypatch
    ):
        """``handed`` is reached by its own closure only, but becomes
        the gradient of ``x``, whose closure runs later: it must stay
        live until then, while the steps in between place buffers."""
        poison_at_death(monkeypatch)
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(8, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        c = Tensor(rng.normal(size=(8, 6)), requires_grad=True)

        def loss():
            x = (a @ w).tanh()
            y = hand_over(x)
            return ((y * c).exp() * y).sum()

        cache = ProgramCache()
        with trace(cache) as tracer:
            loss().backward()
        program = build_program(tracer, None, require_backward=True)
        check_replays(program, loss, (a, w, c), rng)

    def test_opaque_capture_keeps_every_span(self, monkeypatch):
        """A closure that holds a forward buffer behind an object the
        walk cannot see into pins every span: nothing is reused."""
        poison_at_death(monkeypatch)
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(8, 6)), requires_grad=True)
        c = Tensor(rng.normal(size=(8, 6)), requires_grad=True)

        def loss():
            return (opaque_scale(a.tanh()) * c).exp().sum()

        with trace(ProgramCache()) as tracer:
            loss().backward()
        program = build_program(tracer, None, require_backward=True)
        assert not any(program.frees)
        check_replays(program, loss, (a, c), rng)

    def test_traced_backward_clears_stale_gradients(self, monkeypatch):
        """A training step called while the parameters hold stale
        ``.grad``s returns the gradients of a zero-started eager step,
        on the traced call and on every replay alike, and its plan still
        reuses forward bytes: the traced backward clears every ``.grad``
        first, as a replay does."""
        poison_at_death(monkeypatch)
        compiled, eager = (
            VSAN(NUM_ITEMS, WIDTH, dim=16, seed=3, dropout_rate=0.2,
                 annealing=ConstantBeta(0.2))
            for _ in range(2)
        )
        rows = make_batches(NUM_ITEMS, WIDTH + 1, 8, 1)[0]
        for call in range(3):  # the trace, then two replays
            for model in (compiled, eager):
                model.train()
            for param in compiled.parameters():
                param.grad = np.ones_like(param.data)
            got = training_step_values(compiled, rows)
            eager.zero_grad()
            want = eager_step_values(eager, rows)
            assert got == want, (call, got, want)
            assert_same_grads(grads_of(eager), grads_of(compiled), call)
        program, _terms = programs_for(compiled).get(
            _training_key(compiled, rows)
        )
        assert program.replays == 2
        assert any(program.frees)

    def test_step_scratch_inside_a_backward_raises(self):
        """The backward's buffers reuse the step-local span, so a
        backward may not ask for it, traced or replayed."""
        x = Tensor(np.arange(6.0), requires_grad=True)
        asks = [False]

        def scaled():
            get = step_scratch(x.shape, np.float64)
            out = retain(x.data * 2.0)

            def forward():
                np.multiply(x.data, 2.0, out=get())
                np.copyto(out, get())

            def backward(grad):
                if asks[0]:
                    get()
                x._accumulate(grad * 2.0)

            return Tensor._make(out, (x,), backward, forward)

        with trace(ProgramCache()) as tracer:
            scaled().sum().backward()
        program = build_program(tracer, None, require_backward=True)
        asks[0] = True
        program.replay()
        with pytest.raises(RuntimeError, match="step-local scratch"):
            program.replay_backward()
        program.replay()  # the forward may use it again

        with trace(ProgramCache()):
            root = scaled().sum()
            with pytest.raises(RuntimeError, match="step-local scratch"):
                root.backward()

    def test_training_layout_reuses_forward_bytes(self):
        """At the ``perfbench train`` shape (d = 48, batch key
        ``(123, 27)``, ~1.1k items, float32) a VSAN training program's
        layout spans at most 0.75x the bytes it keeps in the slab."""
        program, cache = perfbench_program()
        assert program.placed_bytes <= 0.75 * program.resident_bytes, (
            program.placed_bytes, program.resident_bytes
        )
        assert cache.slab_placed_bytes == program.placed_bytes
        assert program.placed_bytes <= cache.slab_bytes

    def test_draw_buffers_share_one_step_local_span(self):
        """The reparameterization noise's float32 Box–Muller scratch,
        the KL's term buffer and the output head's tile scratch of a
        float32 program live in one span, sized to the largest of them;
        dropout masks draw straight into the mask and request none."""
        rows = make_batches(NUM_ITEMS, WIDTH + 1, 8, 1)[0]
        with default_dtype(np.float32):
            model = VSAN(NUM_ITEMS, WIDTH, dim=16, seed=3,
                         dropout_rate=0.2, annealing=ConstantBeta(0.2))
            model.train()
            requests, getters = [], []
            request = compile_module._StepScratch.request

            def spy(scratch, shape, dtype):
                requests.append((shape, np.dtype(dtype)))
                getters.append(request(scratch, shape, dtype))
                return getters[-1]

            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(
                    compile_module._StepScratch, "request", spy
                )
                training_step_values(model, rows)
            training_step_values(model, rows)  # a replay
            key = _training_key(model, rows)
        assert all(dtype == np.float32 for _shape, dtype in requests)
        positions = 8 * WIDTH
        # One request per reparameterized sample, none per dropout mask.
        noise = noise_scratch_size(positions * 16)
        assert [shape for shape, _ in requests].count((noise,)) == 1, requests
        largest = max(
            int(np.prod(shape)) * dtype.itemsize for shape, dtype in requests
        )
        # Every getter hands out the same bytes: one span in the slab.
        program, _terms = programs_for(model).get(key)
        span = program.scratch.buffer
        assert span.nbytes == largest
        assert any(np.shares_memory(span, chunk)
                   for chunk in programs_for(model).slab.chunks)
        for getter in getters:
            got = getter()
            assert got.ctypes.data == span.ctypes.data
            assert np.shares_memory(got, span)
