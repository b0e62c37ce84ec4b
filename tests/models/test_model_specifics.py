"""Model-specific behaviours not covered by the shared contract tests."""

import numpy as np
import pytest

from repro.core import VSAN
from repro.models import SASRec, SVAE, Caser, GRU4Rec
from repro.tensor import tape_node_count
from tests.reference import composed_substrate

NUM_ITEMS = 10


class TestCaserWindow:
    def test_scores_depend_only_on_window(self):
        """Caser is a Markov-order-``window`` model: items older than the
        window must not affect predictions."""
        model = Caser(NUM_ITEMS, 8, dim=16, window=3, seed=0)
        base = model.score(np.array([9, 9, 1, 2, 3]))
        changed = model.score(np.array([4, 5, 1, 2, 3]))
        np.testing.assert_allclose(base, changed)

    def test_scores_change_within_window(self):
        model = Caser(NUM_ITEMS, 8, dim=16, window=3, seed=0)
        base = model.score(np.array([1, 2, 3]))
        changed = model.score(np.array([1, 2, 4]))
        assert not np.allclose(base[1:], changed[1:])

    def test_short_history_left_padded_inside_window(self):
        model = Caser(NUM_ITEMS, 8, dim=16, window=4, seed=0)
        scores = model.score(np.array([5]))
        assert np.isfinite(scores[1:]).all()

    def test_training_rejects_all_padding(self):
        model = Caser(NUM_ITEMS, 8, dim=16, window=3, seed=0)
        with pytest.raises(ValueError, match="supervised"):
            model.training_loss(np.zeros((2, 9), dtype=np.int64))


class TestGRU4RecRecurrence:
    def test_order_sensitivity(self):
        """Unlike BPR, the GRU must distinguish permuted histories."""
        model = GRU4Rec(NUM_ITEMS, 8, dim=16, seed=0)
        a = model.score(np.array([1, 2, 3]))
        b = model.score(np.array([3, 2, 1]))
        assert not np.allclose(a[1:], b[1:])

    def test_multi_layer_constructor(self):
        model = GRU4Rec(NUM_ITEMS, 8, dim=16, num_layers=2, seed=0)
        assert model.gru.num_layers == 2
        assert model.score(np.array([1, 2])).shape == (NUM_ITEMS + 1,)


class TestSVAE:
    def test_posterior_shapes(self):
        model = SVAE(NUM_ITEMS, 8, dim=16, latent_dim=12, seed=0)
        mu, sigma = model.posterior(np.zeros((2, 8), dtype=np.int64))
        assert mu.shape == (2, 8, 12)
        assert (sigma.numpy() > 0).all()

    def test_eval_is_deterministic_training_stochastic(self):
        model = SVAE(NUM_ITEMS, 8, dim=16, seed=0)
        history = [np.array([1, 2, 3])]
        np.testing.assert_allclose(
            model.score_batch(history), model.score_batch(history)
        )
        model.train()
        padded = np.array([[0, 0, 0, 0, 0, 1, 2, 3]])
        a = model.forward_scores(padded).numpy()
        b = model.forward_scores(padded).numpy()
        assert not np.allclose(a, b)

    def test_sigma_starts_small(self):
        model = SVAE(NUM_ITEMS, 8, dim=16, seed=0)
        _, sigma = model.posterior(np.ones((1, 8), dtype=np.int64))
        assert sigma.numpy().mean() < 0.2


class TestSASRecOptions:
    def test_untied_output_layer(self):
        tied = SASRec(NUM_ITEMS, 8, dim=16, num_blocks=1, seed=0)
        untied = SASRec(NUM_ITEMS, 8, dim=16, num_blocks=1,
                        tie_weights=False, seed=0)
        assert untied.num_parameters() > tied.num_parameters()
        assert untied.score(np.array([1, 2])).shape == (NUM_ITEMS + 1,)

    def test_multi_head_variant(self):
        model = SASRec(NUM_ITEMS, 8, dim=16, num_blocks=1, num_heads=2,
                       seed=0)
        assert model.score(np.array([1, 2])).shape == (NUM_ITEMS + 1,)


class TestVSANHeads:
    def test_multi_head_vsan(self):
        model = VSAN(NUM_ITEMS, 8, dim=16, h1=1, h2=1, num_heads=4, seed=0)
        scores = model.score_batch([np.array([1, 2, 3])])
        assert np.isfinite(scores[:, 1:]).all()

    def test_identity_mu_initialization(self):
        model = VSAN(NUM_ITEMS, 8, dim=16, h1=1, h2=1, seed=0)
        np.testing.assert_allclose(
            model.mu_head.weight.numpy(), np.eye(16)
        )
        np.testing.assert_allclose(model.mu_head.bias.numpy(), 0.0)


class TestVSANFusedParity:
    """The fused substrate must be a pure optimization: same seed, same
    batch, same numbers as the composed references of
    ``tests/reference.py``."""

    @staticmethod
    def _batch():
        rng = np.random.default_rng(3)
        padded = np.zeros((8, 9), dtype=np.int64)
        padded[:, -5:] = rng.integers(1, NUM_ITEMS + 1, size=(8, 5))
        return padded

    @staticmethod
    def _both(run):
        """``run()`` on the fused substrate, then on the composed one."""
        fused = run()
        with pytest.MonkeyPatch.context() as monkeypatch:
            composed_substrate(monkeypatch)
            return fused, run()

    def test_training_loss_matches_reference(self):
        padded = self._batch()

        def loss():
            model = VSAN(NUM_ITEMS, 8, dim=12, h1=1, h2=1, seed=0,
                         dropout_rate=0.0)
            model.train()
            before = tape_node_count()
            value = model.training_loss(padded).item()
            return value, tape_node_count() - before

        (fused, fused_nodes), (reference, reference_nodes) = self._both(loss)
        assert abs(fused - reference) < 1e-10
        # The composed substrate really ran: it builds many more nodes.
        assert reference_nodes > fused_nodes + 40, (fused_nodes,
                                                    reference_nodes)

    def test_composed_substrate_runs_no_fused_kernel(self):
        """Every kernel of ``repro.tensor.fused`` that a VSAN training
        step calls has its oracle swapped in: the composed graph holds
        no fused node, while the production graph holds all of them."""

        def kernel_nodes():
            model = VSAN(NUM_ITEMS, 8, dim=12, h1=1, h2=1, seed=0,
                         dropout_rate=0.2)
            model.train()
            loss = model.training_loss(self._batch())
            names, stack, seen = set(), [loss], set()
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                backward = node._backward
                if backward is not None and (
                    backward.__module__ == "repro.tensor.fused"
                ):
                    names.add(backward.__qualname__.split(".")[0])
                stack.extend(node._parents)
            return names

        fused, composed = self._both(kernel_nodes)
        assert fused == {
            "fused_attention", "_layer_norm", "feedforward",
            "reparameterize", "linear_cross_entropy",
        }, fused
        assert composed == set(), composed

    def test_scores_match_reference(self):
        rng = np.random.default_rng(4)
        history = rng.integers(1, NUM_ITEMS + 1, size=6)
        scores = self._both(
            lambda: VSAN(NUM_ITEMS, 8, dim=12, h1=1, h2=1, seed=0)
            .score(history)
        )
        np.testing.assert_allclose(scores[0][1:], scores[1][1:], atol=1e-10)

    def test_gradients_match_reference(self):
        padded = self._batch()

        def gradients():
            model = VSAN(NUM_ITEMS, 8, dim=12, h1=1, h2=1, seed=0,
                         dropout_rate=0.0)
            model.train()
            model.zero_grad()
            model.training_loss(padded).backward()
            return {name: p.grad for name, p in model.named_parameters()}

        grads = self._both(gradients)
        assert grads[0].keys() == grads[1].keys()
        for name in grads[0]:
            if grads[0][name] is None:
                assert grads[1][name] is None
                continue
            np.testing.assert_allclose(
                grads[0][name], grads[1][name], atol=1e-9,
                err_msg=f"gradient mismatch for {name}",
            )
