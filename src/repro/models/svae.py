"""SVAE (Sachdeva et al., WSDM 2019): sequential variational autoencoder.

The recurrent counterpart of VSAN: a GRU encodes the sequence, each
hidden state parameterizes a Gaussian posterior over a per-position
latent ``z_t``, and an MLP decoder maps ``z_t`` to a softmax over items.
The target at position ``t`` is the set of the *next k* items, trained
with the annealed ELBO — exactly the setup the paper compares VSAN's
next-``k`` flexibility against in Figure 3.

Evaluation uses the posterior mean, as in the original and in VSAN.
"""

from __future__ import annotations

import numpy as np

from ..core.elbo import elbo_terms, reconstruction_targets
from ..data.interactions import PAD_ID
from ..nn import GRU, Dropout, Embedding, Linear
from ..tensor import Tensor, reparameterize
from ..tensor.random import spawn_rngs
from ..train.annealing import BetaSchedule, KLAnnealing
from .base import NeuralSequentialRecommender

__all__ = ["SVAE"]


class SVAE(NeuralSequentialRecommender):
    """Recurrent VAE for sequential recommendation.

    Args:
        num_items: vocabulary size N.
        max_length: sequence window.
        dim: item embedding width.
        hidden_dim: GRU width (defaults to ``dim``).
        latent_dim: width of ``z`` (defaults to ``dim``).
        k: how many future items each position predicts (Eq. 18 analogue).
        dropout_rate: embedding/decoder dropout.
        annealing: β schedule for the KL term (default: linear annealing).
        seed: controls init / dropout / reparameterization streams.
    """

    name = "SVAE"

    def __init__(
        self,
        num_items: int,
        max_length: int,
        dim: int = 48,
        hidden_dim: int | None = None,
        latent_dim: int | None = None,
        k: int = 1,
        dropout_rate: float = 0.2,
        annealing: BetaSchedule | None = None,
        sigma_bias_init: float = -3.0,
        seed: int = 0,
    ):
        super().__init__(num_items, max_length)
        if k < 1:
            raise ValueError("k must be >= 1")
        init_rng, dropout_rng, self._noise_rng = spawn_rngs(seed, 3)
        hidden_dim = hidden_dim or dim
        latent_dim = latent_dim or dim
        self.dim = dim
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.k = k
        self.target_window = k
        self.annealing = annealing or KLAnnealing()
        self._step = 0

        self.item_embedding = Embedding(
            num_items + 1, dim, init_rng, padding_idx=PAD_ID
        )
        self.dropout = Dropout(dropout_rate, dropout_rng)
        self.encoder = GRU(dim, hidden_dim, init_rng)
        self.mu_head = Linear(hidden_dim, latent_dim, init_rng)
        self.sigma_head = Linear(hidden_dim, latent_dim, init_rng)
        # Small initial posterior scale; see the matching note in
        # repro.core.vsan (the ELBO grows sigma only where it helps).
        self.sigma_head.bias.data[...] = sigma_bias_init
        self.decoder_hidden = Linear(latent_dim, hidden_dim, init_rng)
        self.decoder_out = Linear(hidden_dim, num_items + 1, init_rng)

    # ------------------------------------------------------------------
    # Training state beyond parameters (checkpoint/resume)
    # ------------------------------------------------------------------
    def extra_state(self) -> dict:
        """The β-schedule position (see the matching note on VSAN)."""
        return {"step": self._step}

    def load_extra_state(self, state: dict) -> None:
        self._step = int(state["step"])

    # ------------------------------------------------------------------
    # Model pieces
    # ------------------------------------------------------------------
    def posterior(self, padded: np.ndarray) -> tuple[Tensor, Tensor]:
        """Per-position posterior parameters ``(mu, sigma)``."""
        embedded = self.dropout(self.item_embedding(padded))
        hidden, _ = self.encoder(embedded)
        mu = self.mu_head(hidden)
        sigma = self.sigma_head(hidden).softplus(floor=1e-4)
        return mu, sigma

    def decode_hidden(self, z: Tensor) -> Tensor:
        """The decoder MLP up to (not including) the output layer."""
        return self.dropout(self.decoder_hidden(z).tanh())

    def _sample(self, mu: Tensor, sigma: Tensor) -> Tensor:
        return reparameterize(mu, sigma, self._noise_rng)

    # ------------------------------------------------------------------
    # Model contract
    # ------------------------------------------------------------------
    def encode(self, padded: np.ndarray) -> Tensor:
        """Decoder hidden states; sampled ``z`` in training, the
        posterior mean at evaluation."""
        mu, sigma = self.posterior(padded)
        z = self._sample(mu, sigma) if self.training else mu
        return self.decode_hidden(z)

    def encode_last(self, padded: np.ndarray) -> Tensor:
        """At evaluation only the final GRU state pays the ``mu``-head
        and decoder GEMMs, and the σ-head is skipped (no sampling)."""
        if self.training:
            # Sampling draws per-position noise: keep the full pass so
            # the RNG stream matches encode().
            return super().encode_last(padded)
        embedded = self.dropout(self.item_embedding(padded))
        hidden, _ = self.encoder(embedded)
        return self.decode_hidden(self.mu_head(hidden[:, -1, :]))

    def output_head(self) -> tuple[Tensor, Tensor | None]:
        return self.decoder_out.weight, self.decoder_out.bias

    def training_loss(self, padded: np.ndarray) -> Tensor:
        inputs, targets, weights = reconstruction_targets(padded, self.k)
        mu, sigma = self.posterior(inputs)
        z = self._sample(mu, sigma)
        hidden = self.decode_hidden(z)
        beta = self.annealing.beta(self._step)
        if self.training:
            self._step += 1
        return elbo_terms(
            hidden, self.output_head(), targets, weights, mu, sigma, beta
        ).loss

    # ------------------------------------------------------------------
    # Compiled-execution hooks (repro.tensor.compile)
    # ------------------------------------------------------------------
    def compile_beta_zero(self) -> bool:
        """Whether the next step's β is exactly zero (pure peek) — see
        the matching note on :meth:`repro.core.vsan.VSAN.compile_beta_zero`."""
        return self.annealing.beta(self._step) == 0.0

    def compile_step_feeds(self) -> dict[str, float]:
        """β feed + step bump for a replayed training program."""
        beta = self.annealing.beta(self._step)
        if self.training:
            self._step += 1
        return {"beta": beta}
