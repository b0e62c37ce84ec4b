"""The factored ELBO of Eq. 20: term assembly, target derivation, and
consistency with the models that consume it."""

import numpy as np
import pytest

from repro.core import VSAN, ELBOTerms, elbo_terms, reconstruction_targets
from repro.tensor import Tensor
from repro.train import ConstantBeta
from tests.reference import cross_entropy_reference, slot_multi_hot


@pytest.fixture
def rng():
    return np.random.default_rng(8)


def padded_batch():
    return np.array([[0, 1, 2, 3], [0, 0, 4, 1]])


class TestReconstructionTargets:
    def test_k1_is_one_hot_mode(self):
        padded = padded_batch()
        inputs, targets, weights = reconstruction_targets(padded, k=1)
        assert inputs.shape == (2, 3)
        assert targets.shape == (2, 3)
        assert targets.base is padded  # views of the batch
        assert weights[1, 0] == 0.0  # padded target

    def test_k2_is_multi_hot_mode(self):
        """Two id slots per position, whose count vectors are the
        multi-hot target of Eq. 18."""
        inputs, targets, weights = reconstruction_targets(
            padded_batch(), k=2
        )
        assert targets.shape == (2, 3, 2)
        hot = slot_multi_hot(targets, 6)
        assert hot.max() == 1.0
        np.testing.assert_array_equal(hot.sum(axis=-1), [[2, 2, 1],
                                                          [1, 2, 1]])
        np.testing.assert_array_equal(weights, [[1, 1, 1], [1, 1, 1]])


class TestELBOTerms:
    def test_loss_combines_beta(self, rng):
        reconstruction = Tensor(np.array(2.0))
        kl = Tensor(np.array(0.5))
        terms = ELBOTerms(reconstruction=reconstruction, kl=kl, beta=0.4)
        np.testing.assert_allclose(terms.loss.item(), 2.0 + 0.4 * 0.5)
        np.testing.assert_allclose(terms.reconstruction_value, 2.0)
        np.testing.assert_allclose(terms.kl_value, 0.5)

    def test_no_kl_means_pure_reconstruction(self):
        reconstruction = Tensor(np.array(2.0))
        terms = ELBOTerms(reconstruction=reconstruction, kl=None, beta=0.4)
        assert terms.loss is reconstruction
        assert terms.kl_value == 0.0

    def test_beta_zero_short_circuits(self):
        reconstruction = Tensor(np.array(2.0))
        terms = ELBOTerms(
            reconstruction=reconstruction, kl=Tensor(np.array(9.0)),
            beta=0.0,
        )
        assert terms.loss is reconstruction

    def test_assembly_matches_manual(self, rng):
        hidden = Tensor(rng.normal(size=(2, 3, 4)))
        head = (Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=6)))
        _, targets, weights = reconstruction_targets(padded_batch(), 1)
        mu = Tensor(rng.normal(size=(2, 3, 4)))
        sigma = Tensor(np.abs(rng.normal(size=(2, 3, 4))) + 0.3)
        terms = elbo_terms(
            hidden, head, targets, weights, mu, sigma, beta=0.7
        )
        manual_reconstruction = cross_entropy_reference(
            hidden @ head[0] + head[1], targets, weights=weights
        ).item()
        np.testing.assert_allclose(
            terms.reconstruction_value, manual_reconstruction
        )
        np.testing.assert_allclose(
            terms.loss.item(),
            manual_reconstruction + 0.7 * terms.kl_value,
        )

    def test_inconsistent_mu_sigma_raises(self, rng):
        hidden = Tensor(rng.normal(size=(2, 3, 4)))
        head = (Tensor(rng.normal(size=(4, 6))), None)
        _, targets, weights = reconstruction_targets(padded_batch(), 1)
        with pytest.raises(ValueError, match="mu and sigma"):
            elbo_terms(
                hidden, head, targets, weights,
                Tensor(np.zeros((2, 3, 4))), None, 0.5,
            )


class TestModelIntegration:
    def test_vsan_training_elbo_terms_are_consistent(self):
        model = VSAN(6, 5, dim=12, h1=1, h2=1, seed=0,
                     annealing=ConstantBeta(0.3))
        model.eval()  # deterministic z and dropout for the comparison
        padded = np.array([[0, 1, 2, 3, 4, 5]])
        terms = model.training_elbo(padded)
        np.testing.assert_allclose(
            terms.loss.item(),
            terms.reconstruction_value + 0.3 * terms.kl_value,
            rtol=1e-10,
        )
        assert terms.kl_value > 0


class TestNextKMemory:
    def test_step_holds_no_catalogue_wide_array(self):
        """A next-k step scores id slots in row tiles: an eager k = 3
        VSAN loss and backward peaks below one float64
        ``(B·(L−1), |I|+1)`` array, the size of a dense multi-hot
        target or of the full logits."""
        import tracemalloc

        num_items, batch, length = 2000, 32, 20
        model = VSAN(num_items, length, dim=16, h1=1, h2=1, k=3, seed=0)
        model.train()
        rng = np.random.default_rng(0)
        padded = rng.integers(1, num_items + 1, size=(batch, length + 1))
        dense_bytes = batch * length * (num_items + 1) * 8

        def step():
            model.zero_grad()
            model.training_loss(padded).backward()

        step()  # parameter gradients and cached masks exist from here on
        tracemalloc.start()
        try:
            step()
            _, high = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert high < dense_bytes, (high, dense_bytes)
