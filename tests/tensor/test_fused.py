"""Fused kernels vs the composed references of ``tests/reference.py``:
forward parity to 1e-10 in float64, gradient parity via finite
differences, dtype-policy behaviour, and a hypothesis property test for
attention under random padding masks."""

from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import CausalSelfAttention, LayerNorm
from repro.tensor import (
    Tensor,
    default_dtype,
    dropout_mask,
    feedforward,
    fused_attention,
    fused_layer_norm,
    gaussian_kl_standard_normal,
    get_default_dtype,
    gradcheck,
    linear_cross_entropy,
    masked_fill_value,
    no_grad,
    reparameterize,
    residual_dropout_norm,
    set_default_dtype,
    tape_node_count,
)
from repro.tensor import fused as fused_module
from repro.tensor.compile import ProgramCache, build_program, trace
from repro.tensor.random import normal_noise
from tests.reference import (
    composed_attention,
    composed_feedforward,
    composed_gaussian_kl,
    composed_linear_cross_entropy,
    composed_reparameterize,
    composed_residual_dropout_norm,
    composed_substrate,
    cross_entropy_reference,
    multi_hot_cross_entropy_reference,
    slot_multi_hot,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def composed(fn, *args, **kwargs):
    """Call ``fn`` on the composed substrate (the patch is undone on
    return; a backward run later still uses the composed closures)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        composed_substrate(monkeypatch)
        return fn(*args, **kwargs)


def make_attention_pair(dim, rng_seed=5, num_heads=1):
    """Two attention modules with identical weights: the first for the
    fused kernel, the second to call through :func:`composed`."""
    fused = CausalSelfAttention(
        dim, np.random.default_rng(rng_seed), num_heads=num_heads
    )
    reference = CausalSelfAttention(
        dim, np.random.default_rng(rng_seed), num_heads=num_heads
    )
    reference.load_state_dict(fused.state_dict())
    return fused, reference


class TestFusedAttentionParity:
    def test_forward_matches_reference_float64(self, rng):
        fused, reference = make_attention_pair(8)
        x = rng.normal(size=(3, 7, 8))
        np.testing.assert_allclose(
            fused(Tensor(x)).numpy(),
            composed(reference, Tensor(x)).numpy(),
            atol=1e-10,
        )

    def test_forward_matches_with_padding_mask(self, rng):
        fused, reference = make_attention_pair(8)
        x = rng.normal(size=(4, 6, 8))
        pad = rng.random((4, 6)) < 0.4
        np.testing.assert_allclose(
            fused(Tensor(x), key_padding_mask=pad).numpy(),
            composed(reference, Tensor(x), key_padding_mask=pad).numpy(),
            atol=1e-10,
        )

    def test_weights_match_reference(self, rng):
        fused, reference = make_attention_pair(8, num_heads=2)
        x = rng.normal(size=(2, 5, 8))
        _, w_fused = fused(Tensor(x), return_weights=True)
        _, w_reference = composed(reference, Tensor(x),
                                  return_weights=True)
        np.testing.assert_allclose(
            w_fused.numpy(), w_reference.numpy(), atol=1e-10
        )

    def test_gradients_match_reference(self, rng):
        """Input and projection grads agree between the two paths."""
        fused, reference = make_attention_pair(6)
        x = rng.normal(size=(2, 4, 6))
        pad = np.array([[True, False, False, False]] * 2)
        grads = {}
        for name, module in (("fused", fused), ("reference", reference)):
            module.zero_grad()
            x_in = Tensor(x, requires_grad=True)
            call = module if name == "fused" else partial(composed, module)
            out = call(x_in, key_padding_mask=pad)
            (out * out).sum().backward()
            grads[name] = (x_in.grad, module.w_query.grad,
                           module.w_value.grad)
        for got, want in zip(grads["fused"], grads["reference"]):
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_gradcheck_fused_op(self, rng):
        length = 4
        mask = np.triu(np.ones((length, length), dtype=bool), k=1)
        mask = mask[None, None]
        q, k, v = (
            Tensor(rng.normal(size=(2, 1, length, 3)), requires_grad=True)
            for _ in range(3)
        )
        gradcheck(
            lambda q, k, v: (fused_attention(q, k, v, mask, 0.5) ** 2).sum(),
            [q, k, v],
        )
        np.testing.assert_allclose(
            fused_attention(q, k, v, mask, 0.5).numpy(),
            composed_attention(q, k, v, mask, 0.5).numpy(),
            atol=1e-10,
        )


class TestFusedCrossEntropyParity:
    def test_forward_parity_and_gradcheck(self, rng):
        logits = Tensor(rng.normal(size=(3, 5, 9)) * 2, requires_grad=True)
        targets = rng.integers(0, 9, size=(3, 5))
        weights = (rng.random((3, 5)) > 0.3).astype(float)
        for w in (None, weights):
            reference = cross_entropy_reference(logits, targets, weights=w)
            gradcheck(
                lambda x: cross_entropy_reference(x, targets, weights=w),
                [logits],
            )
            hidden = Tensor(logits.data)
            identity = Tensor(np.eye(logits.shape[-1]))
            fused = linear_cross_entropy(hidden, identity, None, targets, w)
            assert abs(fused.item() - reference.item()) < 1e-10

    def test_multi_hot_parity_and_gradcheck(self, rng):
        """Id slots against the dense multi-hot loss of their count
        vectors, on identity-head logits."""
        logits = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        slots = rng.integers(0, 8, size=(2, 4, 3))
        weights = (rng.random((2, 4)) > 0.2).astype(float)
        identity = Tensor(np.eye(8))
        for w in (None, weights):
            fused = linear_cross_entropy(logits, identity, None, slots, w)
            reference = multi_hot_cross_entropy_reference(
                logits, slot_multi_hot(slots, 8), weights=w
            )
            assert abs(fused.item() - reference.item()) < 1e-10
            gradcheck(
                lambda x: linear_cross_entropy(x, identity, None, slots, w),
                [logits],
            )

    def test_zero_weights_raise(self, rng):
        logits = Tensor(rng.normal(size=(2, 3)))
        for targets in (np.zeros(2, dtype=int), np.ones((2, 2), dtype=int)):
            with pytest.raises(ValueError):
                linear_cross_entropy(logits, Tensor(np.eye(3)), None,
                                     targets, weights=np.zeros(2))


def linear_ce_grads(fn, hidden, weight, bias, targets, weights):
    """Loss and the hidden / weight / bias gradients of ``fn``, each
    with fresh leaves."""
    leaves = [Tensor(a, requires_grad=True) for a in (hidden, weight)]
    if bias is not None:
        leaves.append(Tensor(bias, requires_grad=True))
    loss = fn(leaves[0], leaves[1], leaves[2] if bias is not None else None,
              targets, weights)
    loss.backward()
    return loss.item(), [leaf.grad for leaf in leaves]


@pytest.fixture
def five_row_tiles(monkeypatch):
    """Tiles of five rows for any catalogue, so small cases span
    several tiles and end on a ragged one."""
    monkeypatch.setattr(fused_module, "_TILE_BYTES", 1)
    monkeypatch.setattr(fused_module, "_MIN_TILE_ROWS", 5)


class TestLinearCrossEntropy:
    """The fused head + loss against composed ``hidden @ W + b`` logits
    and the reference loss, over the supervised rows only."""

    @staticmethod
    def case(rng, batch=3, length=5, dim=4, classes=7):
        hidden = rng.normal(size=(batch, length, dim))
        weight = rng.normal(size=(dim, classes))
        bias = rng.normal(size=classes)
        targets = rng.integers(0, classes, size=(batch, length))
        weights = (rng.random((batch, length)) > 0.3).astype(float)
        weights[0] = 0.0  # one fully padded row
        return hidden, weight, bias, targets, weights

    def assert_parity(self, hidden, weight, bias, targets, weights):
        got_loss, got = linear_ce_grads(
            linear_cross_entropy, hidden, weight, bias, targets, weights
        )
        want_loss, want = linear_ce_grads(
            composed_linear_cross_entropy, hidden, weight, bias, targets,
            weights,
        )
        assert abs(got_loss - want_loss) < 1e-10
        for name, g, w in zip(("hidden", "weight", "bias"), got, want):
            np.testing.assert_allclose(g, w, atol=1e-10, err_msg=name)

    VARIANTS = pytest.mark.parametrize("variant", [
        "weighted", "no_bias", "no_weights", "fractional", "slots",
        "slots_no_weights",
    ])

    # Row tiles: parity, gradients and replays must not depend on where
    # the tile boundaries fall.  TILED is 28 rows, of which more than ten
    # are supervised, in counts that five-row tiles leave ragged.
    TILED = dict(batch=4, length=7)

    def variant_case(self, rng, variant, **shape):
        hidden, weight, bias, targets, weights = self.case(rng, **shape)
        if variant == "no_bias":
            bias = None
        elif variant == "no_weights":
            weights = None
        elif variant == "fractional":
            weights = weights * rng.uniform(0.1, 2.0, size=weights.shape)
        elif variant.startswith("slots"):
            targets = self.slots(rng, targets.shape, weight.shape[-1])
            weights[1, 0] = 1.0  # the repeated id is supervised
            if variant == "slots_no_weights":
                weights = None
        return hidden, weight, bias, targets, weights

    @staticmethod
    def slots(rng, shape, classes, k=3):
        """``k`` id slots per row, some empty, one row holding a
        repeated id, and one (weight-0, in :meth:`case`) holding none."""
        slots = rng.integers(1, classes, size=shape + (k,))
        slots[rng.random(slots.shape) < 0.3] = 0
        slots[1, 0] = [2, 2, 5]
        slots[0, 0] = 0
        return slots

    def check_parity_and_gradcheck(self, hidden, weight, bias, targets,
                                   weights):
        self.assert_parity(hidden, weight, bias, targets, weights)
        leaves = [Tensor(a, requires_grad=True) for a in (hidden, weight)]
        if bias is not None:
            leaves.append(Tensor(bias, requires_grad=True))
        gradcheck(
            lambda h, w, *b: linear_cross_entropy(
                h, w, b[0] if b else None, targets, weights
            ),
            leaves,
        )

    @VARIANTS
    def test_parity_and_gradcheck(self, rng, variant):
        self.check_parity_and_gradcheck(*self.variant_case(rng, variant))

    @pytest.mark.parametrize("weighted", [True, False])
    def test_one_slot_is_bitwise_the_plain_targets(
        self, rng, five_row_tiles, weighted
    ):
        hidden, weight, bias, _, weights = self.case(rng, **self.TILED)
        targets = rng.integers(1, weight.shape[-1], size=hidden.shape[:-1])
        weights = weights if weighted else None
        plain_loss, plain = linear_ce_grads(
            linear_cross_entropy, hidden, weight, bias, targets, weights
        )
        slot_loss, slotted = linear_ce_grads(
            linear_cross_entropy, hidden, weight, bias, targets[..., None],
            weights,
        )
        assert slot_loss == plain_loss
        for got, want in zip(slotted, plain):
            assert got.tobytes() == want.tobytes()

    def test_tied_head_parity_and_gradcheck(self, rng):
        """A tied head passes ``item_embedding.weight.T``: a non-leaf
        view whose gradient flows back to the embedding table."""
        hidden, weight, _, targets, weights = self.case(rng)
        table = weight.T.copy()
        grads, losses = [], []
        for fn in (linear_cross_entropy, composed_linear_cross_entropy):
            h = Tensor(hidden, requires_grad=True)
            emb = Tensor(table, requires_grad=True)
            loss = fn(h, emb.T, None, targets, weights)
            loss.backward()
            losses.append(loss.item())
            grads.append((h.grad, emb.grad))
        assert abs(losses[0] - losses[1]) < 1e-10
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, atol=1e-10)
        gradcheck(
            lambda h, e: linear_cross_entropy(h, e.T, None, targets, weights),
            [Tensor(hidden, requires_grad=True),
             Tensor(table, requires_grad=True)],
        )

    def test_padded_rows_get_exact_zero_gradient(self, rng):
        hidden, weight, bias, targets, weights = self.case(rng)
        _, (d_hidden, _, _) = linear_ce_grads(
            linear_cross_entropy, hidden, weight, bias, targets, weights
        )
        assert (d_hidden[weights == 0] == 0.0).all()
        assert (d_hidden[weights != 0] != 0.0).any(axis=-1).all()

    def test_non_finite_only_at_padding_is_ignored(self, rng):
        """Padded positions never reach the head, so a NaN there no
        longer poisons the loss; one at a supervised position still
        does."""
        hidden, weight, bias, targets, weights = self.case(rng)
        padded_nan = hidden.copy()
        padded_nan[weights == 0] = np.nan
        loss, grads = linear_ce_grads(
            linear_cross_entropy, padded_nan, weight, bias, targets, weights
        )
        clean_loss, _ = linear_ce_grads(
            linear_cross_entropy, hidden, weight, bias, targets, weights
        )
        assert loss == clean_loss
        assert all(np.isfinite(g).all() for g in grads)
        supervised_nan = hidden.copy()
        supervised_nan[1, -1] = np.nan
        weights[1, -1] = 1.0
        loss, _ = linear_ce_grads(
            linear_cross_entropy, supervised_nan, weight, bias, targets,
            weights,
        )
        assert np.isnan(loss)

    def test_zero_weights_raise(self, rng, five_row_tiles):
        """At the call, and on a replay whose weights empty out."""
        hidden, weight, bias, targets, weights = self.case(rng, **self.TILED)
        leaves = [
            Tensor(a, requires_grad=True) for a in (hidden, weight, bias)
        ]
        with pytest.raises(ValueError, match="weights sum to zero"):
            linear_cross_entropy(*leaves, targets, np.zeros(targets.shape))
        with trace(ProgramCache()) as tracer:
            loss = linear_cross_entropy(*leaves, targets, weights)
            loss.backward()
        program = build_program(tracer, loss, require_backward=True)
        weights[...] = 0.0
        with pytest.raises(ValueError, match="weights sum to zero"):
            program.replay()

    def test_float32_matches_reference(self, rng):
        hidden, weight, bias, targets, weights = self.case(rng)
        with default_dtype(np.float32):
            got, _ = linear_ce_grads(
                linear_cross_entropy, hidden, weight, bias, targets, weights
            )
            want, _ = linear_ce_grads(
                composed_linear_cross_entropy, hidden, weight, bias,
                targets, weights,
            )
        assert abs(got - want) < 1e-5

    @VARIANTS
    def test_parity_and_gradcheck_across_tiles(self, rng, five_row_tiles,
                                               variant):
        case = self.variant_case(rng, variant, **self.TILED)
        targets, weights = case[3:]
        supervised = targets.size if weights is None else \
            np.count_nonzero(weights)
        assert supervised > 10 and supervised % 5, supervised
        self.check_parity_and_gradcheck(*case)

    def test_parity_at_the_tile_row_floor(self, rng):
        """A catalogue too wide for 64 rows of logits in one tile still
        walks 64-row tiles: 150 rows take three, the last of 22."""
        classes = 2100
        assert fused_module._tile_rows(classes, np.float64) == 64
        hidden, weight, bias, targets, _ = self.case(
            rng, batch=3, length=50, dim=8, classes=classes
        )
        self.assert_parity(hidden, weight, bias, targets, None)

    def test_upstream_gradient_scales_the_gradients_exactly(
        self, rng, five_row_tiles
    ):
        hidden, weight, bias, targets, weights = self.case(rng, **self.TILED)
        _, plain = linear_ce_grads(
            linear_cross_entropy, hidden, weight, bias, targets, weights
        )
        _, tripled = linear_ce_grads(
            lambda *args: linear_cross_entropy(*args) * 3.0,
            hidden, weight, bias, targets, weights,
        )
        for name, got, want in zip(("hidden", "weight", "bias"), tripled,
                                   plain):
            assert got.tobytes() == (want * 3.0).tobytes(), name

    def test_replays_cross_tile_boundaries_both_ways(
        self, rng, five_row_tiles
    ):
        """Traced with two tiles, replayed with one, three, an exact
        multiple of the tile and every row: each replay matches an
        eager call bitwise, with the slab poisoned before it."""
        hidden, weight, bias, targets, _ = self.case(rng, **self.TILED)
        weights = np.zeros(targets.shape)
        weights.reshape(-1)[:8] = 1.0
        leaves = [
            Tensor(a, requires_grad=True) for a in (hidden, weight, bias)
        ]
        cache = ProgramCache()
        with trace(cache) as tracer:
            loss = linear_cross_entropy(*leaves, targets, weights)
            loss.backward()
        program = build_program(tracer, loss, require_backward=True)
        assert program is not None, tracer.reason
        for supervised in (3, 14, 5, targets.size, 9):
            hidden[...] = rng.normal(size=hidden.shape)
            targets[...] = rng.integers(0, 7, size=targets.shape)
            weights[...] = 0.0
            weights.reshape(-1)[
                rng.choice(weights.size, supervised, replace=False)
            ] = rng.uniform(0.5, 2.0, size=supervised)
            for chunk in cache.slab.chunks:
                chunk.fill(0xFF)
            program.replay()
            got_loss = loss.data.tobytes()
            program.replay_backward()
            want_loss, want = linear_ce_grads(
                linear_cross_entropy, hidden, weight, bias, targets, weights
            )
            assert got_loss == np.asarray(want_loss).tobytes(), supervised
            for leaf, ref in zip(leaves, want):
                assert leaf.grad.tobytes() == ref.tobytes(), supervised

    def test_loss_without_gradients_keeps_no_gradient_buffer(self, rng):
        """Without a parent that requires grad (or under ``no_grad``)
        the kernel computes the loss only: the one buffer it keeps is
        the loss itself."""
        hidden, weight, bias, targets, weights = self.case(rng, **self.TILED)
        want = linear_cross_entropy(
            Tensor(hidden, requires_grad=True), Tensor(weight), Tensor(bias),
            targets, weights,
        ).item()
        for grad_parents in (False, True):
            leaves = [
                Tensor(a, requires_grad=grad_parents)
                for a in (hidden, weight, bias)
            ]
            with trace(ProgramCache()) as tracer, \
                    no_grad() if grad_parents else nullcontext():
                loss = linear_cross_entropy(*leaves, targets, weights)
            assert loss.item() == want
            assert not loss.requires_grad
            assert tracer.slab.resident == loss.data.nbytes, grad_parents


class TestFusedLayerNormParity:
    def test_forward_matches_reference(self, rng):
        fused = LayerNorm(10)
        reference = LayerNorm(10)
        state = fused.state_dict()
        state["gamma"] = rng.normal(size=10) + 1.0
        state["beta"] = rng.normal(size=10)
        fused.load_state_dict(state)
        reference.load_state_dict(state)
        x = rng.normal(size=(4, 6, 10)) * 3
        np.testing.assert_allclose(
            fused(Tensor(x)).numpy(),
            composed(reference, Tensor(x)).numpy(),
            atol=1e-10,
        )

    def test_gradcheck_fused_op(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
        gamma = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=6), requires_grad=True)
        gradcheck(
            lambda x, g, b: (fused_layer_norm(x, g, b, 1e-8) ** 2).sum(),
            [x, gamma, beta],
        )


def leaves(rng, *shapes, scale=1.0):
    return [
        Tensor(rng.normal(size=shape) * scale, requires_grad=True)
        for shape in shapes
    ]


def weighted_sum(out: Tensor, seed: int = 9) -> Tensor:
    """A scalar whose gradient is a generic (not all-ones) cotangent."""
    weights = np.random.default_rng(seed).normal(size=out.shape)
    return (out * Tensor(weights)).sum()


def assert_same_gradients(run_fused, run_composed, inputs, atol=1e-9):
    """Gradients of every input agree between the two paths."""
    grads = []
    for run in (run_fused, run_composed):
        for leaf in inputs:
            leaf.zero_grad()
        weighted_sum(run(*inputs)).backward()
        grads.append([leaf.grad.copy() for leaf in inputs])
    for index, (got, want) in enumerate(zip(*grads)):
        np.testing.assert_allclose(got, want, atol=atol,
                                   err_msg=f"input {index}")


SHAPE = (3, 4, 6)
MASK_CASES = pytest.mark.parametrize(
    "with_mask", [False, True], ids=["no-mask", "mask"]
)
TIMELINE_CASES = pytest.mark.parametrize(
    "with_timeline", [False, True], ids=["no-timeline", "timeline"]
)


def scale_mask(shape, seed=1):
    return dropout_mask(shape, np.float64, 0.3, np.random.default_rng(seed))


class TestResidualDropoutNorm:
    @staticmethod
    def case(rng, with_mask, with_timeline):
        x, sub = leaves(rng, SHAPE, SHAPE, scale=2.0)
        gamma, beta = leaves(rng, SHAPE[-1:], SHAPE[-1:])
        gamma.data += 1.0
        mask = scale_mask(SHAPE) if with_mask else None
        timeline = None
        if with_timeline:
            timeline = np.ones(SHAPE[:-1])
            timeline[:, :2] = 0.0  # left padding

        def fused(x, sub, gamma, beta):
            return residual_dropout_norm(x, sub, mask, gamma, beta, 1e-8,
                                         timeline=timeline)

        def reference(x, sub, gamma, beta):
            return composed_residual_dropout_norm(
                x, sub, mask, gamma, beta, 1e-8, timeline=timeline
            )

        return [x, sub, gamma, beta], fused, reference

    @MASK_CASES
    @TIMELINE_CASES
    def test_forward_matches_reference(self, rng, with_mask,
                                       with_timeline):
        inputs, fused, reference = self.case(rng, with_mask, with_timeline)
        np.testing.assert_allclose(
            fused(*inputs).numpy(), reference(*inputs).numpy(), atol=1e-10
        )

    @MASK_CASES
    @TIMELINE_CASES
    def test_gradients_match_reference_and_gradcheck(
        self, rng, with_mask, with_timeline
    ):
        inputs, fused, reference = self.case(rng, with_mask, with_timeline)
        assert_same_gradients(fused, reference, inputs)
        gradcheck(lambda *args: weighted_sum(fused(*args)), inputs)


class TestFeedForward:
    @staticmethod
    def case(rng, with_mask, hidden=10):
        x, w1, b1, w2, b2 = leaves(
            rng, SHAPE, (SHAPE[-1], hidden), (hidden,), (hidden, SHAPE[-1]),
            SHAPE[-1:],
        )
        # Finite differences need every pre-activation off the ReLU kink.
        pre = x.data @ w1.data + b1.data
        assert np.abs(pre).min() > 1e-3
        mask = scale_mask(SHAPE[:-1] + (hidden,)) if with_mask else None
        return ([x, w1, b1, w2, b2], partial(feedforward, mask=mask),
                partial(composed_feedforward, mask=mask))

    @MASK_CASES
    def test_forward_matches_reference(self, rng, with_mask):
        inputs, fused, reference = self.case(rng, with_mask)
        np.testing.assert_allclose(
            fused(*inputs).numpy(), reference(*inputs).numpy(), atol=1e-10
        )

    @MASK_CASES
    def test_gradients_match_reference_and_gradcheck(self, rng, with_mask):
        inputs, fused, reference = self.case(rng, with_mask)
        assert_same_gradients(fused, reference, inputs)
        gradcheck(lambda *args: weighted_sum(fused(*args)), inputs)


class TestReparameterize:
    @staticmethod
    def case(rng):
        mu, sigma = leaves(rng, SHAPE, SHAPE)
        sigma.data[...] = np.abs(sigma.data) + 0.1

        def with_seed(fn):
            # A fresh generator per call: every call draws the same eps.
            return lambda mu, sigma: fn(mu, sigma, np.random.default_rng(4))

        return ([mu, sigma], with_seed(reparameterize),
                with_seed(composed_reparameterize))

    def test_forward_matches_reference_bitwise(self, rng):
        inputs, fused, reference = self.case(rng)
        assert fused(*inputs).numpy().tobytes() == (
            reference(*inputs).numpy().tobytes()
        )

    def test_gradients_match_reference_and_gradcheck(self, rng):
        inputs, fused, reference = self.case(rng)
        assert_same_gradients(fused, reference, inputs)
        gradcheck(lambda *args: weighted_sum(fused(*args)), inputs)

    def test_noise_does_not_depend_on_the_compute_dtype(self):
        """Float32 and float64 runs draw the same float32 noise values:
        ``normal_noise``'s, cast once."""
        samples = {}
        for dtype in (np.float32, np.float64):
            with default_dtype(dtype):
                mu = Tensor(np.zeros(SHAPE))
                sigma = Tensor(np.ones(SHAPE))
                z = reparameterize(mu, sigma, np.random.default_rng(4))
            assert z.dtype == dtype
            samples[dtype] = z.numpy()
        expected = normal_noise(np.random.default_rng(4),
                                np.empty(SHAPE, dtype=np.float32))
        assert samples[np.float32].tobytes() == expected.tobytes()
        assert samples[np.float64].tobytes() == (
            expected.astype(np.float64).tobytes()
        )


class TestGaussianKL:
    WEIGHT_CASES = pytest.mark.parametrize(
        "weighted", [False, True], ids=["mean", "weighted"]
    )

    @staticmethod
    def case(rng, weighted):
        mu, sigma = leaves(rng, SHAPE, SHAPE)
        sigma.data[...] = np.abs(sigma.data) + 0.1
        weights = None
        if weighted:
            weights = rng.uniform(0.5, 2.0, size=SHAPE[:-1])
            weights[0, :2] = 0.0  # padded positions
        return [mu, sigma], weights

    @WEIGHT_CASES
    def test_forward_matches_reference(self, rng, weighted):
        (mu, sigma), weights = self.case(rng, weighted)
        got = gaussian_kl_standard_normal(mu, sigma, weights).item()
        want = composed_gaussian_kl(mu, sigma, weights).item()
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @WEIGHT_CASES
    def test_gradients_match_reference_and_gradcheck(self, rng, weighted):
        inputs, weights = self.case(rng, weighted)

        def kl(fn):
            return lambda mu, sigma: fn(mu, sigma, weights) * 1.7

        assert_same_gradients(
            kl(gaussian_kl_standard_normal), kl(composed_gaussian_kl),
            inputs, atol=1e-10,
        )
        gradcheck(kl(gaussian_kl_standard_normal), inputs)

    def test_is_one_tape_node(self, rng):
        (mu, sigma), weights = self.case(rng, True)
        before = tape_node_count()
        gaussian_kl_standard_normal(mu, sigma, weights)
        assert tape_node_count() - before == 1

    def test_zero_weight_sum_raises(self, rng):
        (mu, sigma), _ = self.case(rng, False)
        with pytest.raises(ValueError, match="gaussian_kl weights sum"):
            gaussian_kl_standard_normal(mu, sigma, np.zeros(SHAPE[:-1]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_replay_refreshes_weights_and_inputs(self, rng, dtype):
        """Under a trace the coefficients follow the (host-refreshed)
        weights and the terms go through step-local scratch; a replay
        after the weights empty out raises like the eager call."""
        weights = rng.uniform(0.5, 2.0, size=SHAPE[:-1])
        with default_dtype(dtype):
            mu, sigma = (
                Tensor(a, requires_grad=True)
                for a in (rng.normal(size=SHAPE),
                          np.abs(rng.normal(size=SHAPE)) + 0.1)
            )
            with trace(ProgramCache()) as tracer:
                loss = gaussian_kl_standard_normal(mu, sigma, weights)
                loss.backward()
            program = build_program(tracer, loss, require_backward=True)
            assert program is not None, tracer.reason
            for step in range(3):
                mu.data[...] = rng.normal(size=SHAPE)
                sigma.data[...] = np.abs(rng.normal(size=SHAPE)) + 0.1
                weights[...] = rng.uniform(0.5, 2.0, size=SHAPE[:-1])
                weights[step, :step] = 0.0
                program.replay()
                got_loss = loss.data.tobytes()
                program.replay_backward()
                got = [mu.grad.copy(), sigma.grad.copy()]
                mu.grad = sigma.grad = None
                want = gaussian_kl_standard_normal(mu, sigma, weights)
                want.backward()
                assert got_loss == want.data.tobytes(), step
                assert got[0].tobytes() == mu.grad.tobytes(), step
                assert got[1].tobytes() == sigma.grad.tobytes(), step
            weights[...] = 0.0
            with pytest.raises(ValueError, match="gaussian_kl weights sum"):
                program.replay()


class TestKernelReplayRefreshesCopies:
    """A kernel input that needs a cast or a contiguous copy must be
    re-copied on every replay, never replayed stale."""

    @staticmethod
    def replay_matches_eager(build, mutate):
        with trace() as tracer:
            out = build()
        program = build_program(tracer, out)
        assert program is not None, tracer.reason
        mutate()
        program.replay()
        assert out.numpy().tobytes() == build().numpy().tobytes()

    def test_cast_timeline_and_mask(self, rng):
        timeline = np.ones(SHAPE[:-1])  # float64 under a float32 model
        mask = scale_mask(SHAPE)
        with default_dtype(np.float32):
            x, sub, gamma, beta = (
                Tensor(a) for a in (rng.normal(size=SHAPE),
                                    rng.normal(size=SHAPE),
                                    np.ones(6), np.zeros(6))
            )

            def mutate():
                timeline[0, :2] = 0.0
                mask[...] = scale_mask(SHAPE, seed=2)

            self.replay_matches_eager(
                lambda: residual_dropout_norm(
                    x, sub, mask, gamma, beta, 1e-8, timeline=timeline
                ),
                mutate,
            )

    def test_non_contiguous_input(self, rng):
        source = np.asfortranarray(rng.normal(size=SHAPE))
        x = Tensor(source)
        assert not x.data.flags.c_contiguous
        gamma, beta = Tensor(np.ones(6)), Tensor(np.zeros(6))
        w1, b1, w2, b2 = (Tensor(rng.normal(size=s))
                          for s in ((6, 8), (8,), (8, 6), (6,)))

        def mutate():
            source[...] = rng.normal(size=SHAPE)

        self.replay_matches_eager(
            lambda: fused_layer_norm(x, gamma, beta, 1e-8), mutate
        )
        self.replay_matches_eager(
            lambda: feedforward(x, w1, b1, w2, b2), mutate
        )


class TestDtypePolicy:
    def test_set_default_dtype_round_trip(self):
        assert get_default_dtype() == np.float64
        previous = set_default_dtype(np.float32)
        try:
            assert previous == np.float64
            assert Tensor(np.zeros(3)).dtype == np.float32
        finally:
            set_default_dtype(previous)
        assert Tensor(np.zeros(3)).dtype == np.float64

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    def test_masked_fill_value_is_finite_and_underflows(self):
        for dtype in (np.float32, np.float64):
            fill = masked_fill_value(dtype)
            assert np.isfinite(fill)
            # After the softmax max-shift, a filled logit must carry
            # exactly zero probability.
            assert np.exp(np.asarray(fill, dtype=dtype)) == 0.0

    def test_float32_attention_with_padding_stays_finite(self):
        """The old hard-coded -1e30 fill overflowed float32 to -inf and
        could NaN the softmax backward; the dtype-aware fill must not."""
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            for fused in (True, False):
                attn = CausalSelfAttention(8, np.random.default_rng(1))
                call = attn if fused else partial(composed, attn)
                x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
                pad = np.array([[True, True, True, False, False]] * 2)
                out = call(x, key_padding_mask=pad)
                assert out.dtype == np.float32
                assert np.isfinite(out.numpy()).all()
                out.sum().backward()
                assert np.isfinite(x.grad).all()

    def test_fused_matches_reference_in_float32(self):
        rng = np.random.default_rng(2)
        with default_dtype(np.float32):
            fused, reference = make_attention_pair(8)
            x = rng.normal(size=(2, 6, 8))
            pad = rng.random((2, 6)) < 0.3
            np.testing.assert_allclose(
                fused(Tensor(x), key_padding_mask=pad).numpy(),
                composed(reference, Tensor(x), key_padding_mask=pad).numpy(),
                atol=1e-5,
            )


class TestMaskMemo:
    def test_causal_mask_is_cached_and_readonly(self):
        from repro.nn import causal_mask

        first = causal_mask(9)
        assert causal_mask(9) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = True

    def test_padding_mask_buffer_is_reused(self, rng):
        attn = CausalSelfAttention(8, rng)
        x = rng.normal(size=(2, 5, 8))
        pad = rng.random((2, 5)) < 0.5
        attn(Tensor(x), key_padding_mask=pad)
        buffer = attn._mask_scratch
        assert buffer is not None
        attn(Tensor(x), key_padding_mask=~pad)
        assert attn._mask_scratch is buffer
        # Different shape allocates a fresh buffer.
        attn(Tensor(rng.normal(size=(3, 5, 8))),
             key_padding_mask=np.zeros((3, 5), dtype=bool))
        assert attn._mask_scratch is not buffer

    def test_reference_path_backward_survives_buffer_reuse(
        self, rng, monkeypatch
    ):
        """The composed oracle keeps its mask for the backward, so it must
        take a private copy of the reusable scratch buffer: a second
        forward between forward and backward must not corrupt the first
        call's gradient."""
        composed_substrate(monkeypatch)
        attn = CausalSelfAttention(8, rng)
        x = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        pad = np.array([[True, False, False, False]] * 2)
        out = attn(x, key_padding_mask=pad)
        buffer = attn._mask_scratch
        attn(Tensor(rng.normal(size=(2, 4, 8))),
             key_padding_mask=~pad)  # clobbers the shared buffer
        assert attn._mask_scratch is buffer
        out.sum().backward()
        assert np.isfinite(x.grad).all()
        twin = Tensor(x.data, requires_grad=True)
        attn(twin, key_padding_mask=pad).sum().backward()
        np.testing.assert_array_equal(x.grad, twin.grad)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=3),
    length=st.integers(min_value=1, max_value=7),
    num_heads=st.sampled_from([1, 2]),
    pad_seed=st.integers(min_value=0, max_value=2**16),
)
def test_fused_attention_matches_reference_under_random_padding(
    batch, length, num_heads, pad_seed
):
    """Property: for any padding pattern, fused == composed reference."""
    dim = 8
    data_rng = np.random.default_rng(pad_seed + 1)
    fused, reference = make_attention_pair(
        dim, rng_seed=7, num_heads=num_heads
    )
    x = data_rng.normal(size=(batch, length, dim))
    pad = np.random.default_rng(pad_seed).random((batch, length)) < 0.5
    out_fused = fused(Tensor(x), key_padding_mask=pad).numpy()
    out_reference = composed(
        reference, Tensor(x), key_padding_mask=pad
    ).numpy()
    np.testing.assert_allclose(out_fused, out_reference, atol=1e-9)
    assert np.isfinite(out_fused).all()
