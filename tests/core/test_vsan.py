"""VSAN-specific behaviour: pipeline wiring, the latent variable layer,
ablation switches, ELBO composition, and next-k mode."""

import numpy as np
import pytest

from repro.core import VSAN
from repro.tensor import Tensor, tape_node_count
from repro.train import ConstantBeta, KLAnnealing

NUM_ITEMS = 12
MAX_LENGTH = 8


def make(seed=0, **kwargs):
    defaults = dict(dim=16, h1=1, h2=1)
    defaults.update(kwargs)
    return VSAN(NUM_ITEMS, MAX_LENGTH, seed=seed, **defaults)


def batch(rows=3):
    rng = np.random.default_rng(0)
    padded = np.zeros((rows, MAX_LENGTH + 1), dtype=np.int64)
    for row in range(rows):
        length = 4 + row
        padded[row, -length:] = rng.integers(1, NUM_ITEMS + 1, size=length)
    return padded


class TestPosterior:
    def test_sigma_is_positive(self):
        model = make()
        encoded, _, _ = model.inference_layer(batch()[:, :-1])
        _, sigma = model.posterior(encoded)
        assert (sigma.numpy() > 0).all()

    def test_sigma_starts_small(self):
        """The documented softplus(bias=-3) init keeps early noise tiny."""
        model = make()
        encoded, _, _ = model.inference_layer(batch()[:, :-1])
        _, sigma = model.posterior(encoded)
        assert sigma.numpy().mean() < 0.2

    def test_posterior_undefined_without_latent(self):
        model = make(use_latent=False)
        with pytest.raises(RuntimeError):
            model.posterior(Tensor(np.zeros((1, MAX_LENGTH, 16))))

    def test_latent_layer_mean_vs_sample(self):
        model = make()
        mu = Tensor(np.ones((2, 3, 16)))
        sigma = Tensor(np.full((2, 3, 16), 0.5))
        assert model.latent_layer(mu, sigma, sample=False) is mu
        sampled = model.latent_layer(mu, sigma, sample=True)
        assert not np.allclose(sampled.numpy(), mu.numpy())

    def test_eval_scoring_uses_mean_hence_deterministic(self):
        model = make()
        history = [np.array([1, 2, 3])]
        np.testing.assert_allclose(
            model.score_batch(history), model.score_batch(history)
        )

    def test_sample_at_eval_is_stochastic(self):
        model = make(sample_at_eval=True)
        history = [np.array([1, 2, 3])]
        a = model.score_batch(history)
        b = model.score_batch(history)
        assert not np.allclose(a, b)

    def test_training_forward_is_stochastic(self):
        model = make()
        model.train()
        padded = batch()[:, :-1]
        a = model.forward_scores(padded).numpy()
        b = model.forward_scores(padded).numpy()
        assert not np.allclose(a, b)


class TestAblationFlags:
    def test_vsan_z_has_no_posterior_heads(self):
        model = make(use_latent=False)
        names = {name for name, _ in model.named_parameters()}
        assert not any("mu_head" in n or "sigma_head" in n for n in names)

    def test_vsan_z_loss_has_no_kl(self):
        model = make(use_latent=False, annealing=ConstantBeta(10.0))
        model.train()
        loss = model.training_loss(batch())
        assert np.isfinite(loss.item())

    def test_feedforward_flags_remove_parameters(self):
        full = make()
        no_infer = make(inference_feedforward=False)
        no_gene = make(generative_feedforward=False)
        def ffn_count(model, stack):
            return sum(
                1
                for name, _ in model.named_parameters()
                if name.startswith(stack) and "feedforward" in name
            )
        assert ffn_count(full, "inference_stack") > 0
        assert ffn_count(no_infer, "inference_stack") == 0
        assert ffn_count(no_infer, "generative_stack") > 0
        assert ffn_count(no_gene, "generative_stack") == 0

    def test_h_zero_stacks(self):
        model = make(h1=0, h2=0)
        assert len(model.inference_stack) == 0
        assert len(model.generative_stack) == 0
        scores = model.score_batch([np.array([1, 2])])
        assert np.isfinite(scores[:, 1:]).all()

    def test_tied_weights_share_embedding(self):
        model = make(tie_weights=True)
        names = {name for name, _ in model.named_parameters()}
        assert not any(name.startswith("output") for name in names)


class TestELBO:
    def test_beta_zero_equals_pure_reconstruction(self):
        a = make(annealing=ConstantBeta(0.0))
        b = make(annealing=ConstantBeta(5.0))
        b.load_state_dict(a.state_dict())
        a.eval()  # eval => z = mu, no dropout: losses comparable
        b.eval()
        padded = batch()
        loss_a = a.training_loss(padded).item()
        loss_b = b.training_loss(padded).item()
        assert loss_b > loss_a  # the KL term is strictly positive here

    def test_kl_annealing_advances_only_in_training(self):
        model = make(annealing=KLAnnealing(target=1.0, warmup_steps=0,
                                           anneal_steps=10))
        padded = batch()
        model.eval()
        model.training_loss(padded)
        assert model._step == 0
        model.train()
        model.training_loss(padded)
        model.training_loss(padded)
        assert model._step == 2

    def test_next_k_multi_hot_loss(self):
        model = make(k=3)
        model.train()
        loss = model.training_loss(batch())
        assert np.isfinite(loss.item())

    def test_gradients_reach_all_parameters(self):
        model = make()
        model.train()
        loss = model.training_loss(batch())
        loss.backward()
        missing = [
            name
            for name, param in model.named_parameters()
            if param.grad is None or not np.any(param.grad)
        ]
        # Positional rows for always-padded prefixes may stay zero, as may
        # the padding embedding row; everything else must receive signal.
        assert all(
            "position_embedding" in name or "item_embedding" in name
            for name in missing
        ), missing


class TestTapeSize:
    def test_training_step_tape_nodes(self):
        """One eager β > 0 training step builds at most 47 tape nodes:
        each SAN block is attention plus its fused residual norms and
        feed-forward, z = mu + sigma * eps and the Gaussian KL are one
        node each, and σ's floor rides in its softplus node.  (The
        composed block, FFN and sample built 80, the composed KL chain
        another 11.)"""
        model = VSAN(200, 20, dim=48, h1=1, h2=1, dropout_rate=0.2,
                     annealing=ConstantBeta(0.2), seed=0)
        model.train()
        rng = np.random.default_rng(0)
        padded = np.zeros((16, 21), dtype=np.int64)
        padded[:, -12:] = rng.integers(1, 201, size=(16, 12))
        before = tape_node_count()
        terms = model.training_elbo(padded)
        loss = terms.loss
        nodes = tape_node_count() - before
        loss.backward()
        assert terms.beta > 0
        assert nodes <= 47, nodes


class TestCausality:
    def test_scores_causal_in_inputs(self):
        """Changing the items at later positions must not change earlier
        positions' logits (generative + inference stacks both causal)."""
        model = make()
        model.eval()
        padded = batch()[:1, :-1]
        base = model.forward_scores(padded).numpy()
        changed = padded.copy()
        changed[0, -1] = changed[0, -1] % NUM_ITEMS + 1
        out = model.forward_scores(changed).numpy()
        np.testing.assert_allclose(out[0, :-1], base[0, :-1], atol=1e-8)

    def test_padding_has_no_effect_on_scores(self):
        """The same history padded into different-width windows gives the
        same last-position ranking."""
        short = VSAN(NUM_ITEMS, 6, dim=16, h1=1, h2=1, seed=0)
        history = np.array([3, 1, 4])
        a = short.score_batch([history])
        b = short.score_batch([np.array([3, 1, 4])])
        np.testing.assert_allclose(a, b)


class TestComplexityReporting:
    def test_parameter_count_grows_with_blocks(self):
        small = make(h1=1, h2=1)
        large = make(h1=3, h2=1)
        assert large.num_parameters() > small.num_parameters()


class TestMultiSampleELBO:
    def test_validation(self):
        with pytest.raises(ValueError):
            make(num_samples=0)

    def test_multi_sample_loss_is_finite_and_trains(self):
        model = make(num_samples=3)
        model.train()
        loss = model.training_loss(batch())
        assert np.isfinite(loss.item())
        loss.backward()
        assert model.mu_head.weight.grad is not None

    def test_kl_term_identical_across_sample_counts(self):
        from repro.train import ConstantBeta

        one = make(seed=4, num_samples=1, annealing=ConstantBeta(0.5))
        many = make(seed=4, num_samples=4, annealing=ConstantBeta(0.5))
        many.load_state_dict(one.state_dict())
        one.eval()
        many.eval()
        padded = batch()
        terms_one = one.training_elbo(padded)
        terms_many = many.training_elbo(padded)
        np.testing.assert_allclose(
            terms_one.kl_value, terms_many.kl_value, rtol=1e-10
        )

    def test_multi_sample_reduces_reconstruction_variance(self):
        from repro.train import ConstantBeta

        def spread(num_samples, repeats=6):
            model = make(seed=7, num_samples=num_samples,
                         annealing=ConstantBeta(0.0))
            # widen the posterior so sampling noise is visible
            model.sigma_head.bias.data[...] = 0.5
            model.train()
            padded = batch()
            values = [
                model.training_elbo(padded).reconstruction_value
                for _ in range(repeats)
            ]
            return np.std(values)

        assert spread(8) < spread(1)
