"""VSAN — the Variational Self-Attention Network (Section IV of the paper).

Pipeline (Figure 2):

1. **Embedding Layer** (IV-A): item + learnable position embeddings of
   the last ``n`` interactions, left-padded (Eq. 4).
2. **Inference Self-attention Layer** (IV-B): ``h1`` causal
   self-attention blocks (Eq. 5–11) produce ``G_i``; two linear heads
   give the variational posterior parameters ``mu`` and ``sigma``
   (Eq. 12).  The paper writes ``sigma = l2(G)`` with a bare linear map;
   a bare linear can emit negative scale, so we parameterize
   ``sigma = softplus(l2(G)) + eps`` — a strictly-positive smooth
   reparameterization of the same head (documented substitution, see
   DESIGN.md §5).
3. **Latent Variable Layer** (IV-C): reparameterization trick
   ``z = mu + sigma * eps`` with ``eps ~ N(0, I)`` (Eq. 13).
4. **Generative Self-attention Layer** (IV-D): ``h2`` blocks over ``z``
   (Eq. 15–17) produce ``G_g``.
5. **Prediction Layer** (IV-E): a dense softmax over all items (Eq. 19);
   evaluation uses ``z = mu`` (posterior mean), as in the paper.

Training minimizes the β-ELBO of Eq. 20 — reconstruction cross-entropy
(next item, or the set of the next ``k`` per Eq. 18) plus
``beta * KL(q(z|S) || N(0, I))`` with the annealed β schedule.

Ablation switches reproduce the paper's component studies:

- ``h1=0`` / ``h2=0``: drop the inference / generative stacks (Table IV);
- ``use_latent=False``: bypass the latent variable layer entirely —
  ``G_i`` feeds the generative stack directly (**VSAN-z**, Table V);
- ``inference_feedforward`` / ``generative_feedforward``: remove the
  point-wise FFN from either stack (**VSAN-*-feed**, Table VI);
- ``sample_at_eval``: score from a sampled ``z`` instead of the mean
  (extra ablation, DESIGN.md §5);
- ``tie_weights``: score against the item embedding table instead of the
  separate ``W_g`` of Eq. 19 (extra ablation, DESIGN.md §5).
"""

from __future__ import annotations

import numpy as np

from ..models.base import NeuralSequentialRecommender
from ..models.common import SequenceEmbedding
from ..nn import LayerNorm, Linear, SelfAttentionStack
from ..tensor import Tensor, reparameterize
from ..tensor.random import spawn_rngs
from ..train.annealing import BetaSchedule, KLAnnealing
from .elbo import ELBOTerms, elbo_terms, reconstruction_targets

__all__ = ["VSAN"]


class VSAN(NeuralSequentialRecommender):
    """Variational self-attention network for sequential recommendation.

    Args:
        num_items: vocabulary size N.
        max_length: attention window ``n`` (paper: 50 on Beauty, 200 on
            ML-1M; scale to your data).
        dim: embedding width ``d`` (paper: 200).
        h1: inference self-attention blocks (paper: 1 on Beauty, 3 on
            ML-1M).
        h2: generative self-attention blocks (paper: 1 on both).
        k: predict the next ``k`` items per position (paper: 2).
        num_heads: attention heads (1 = the paper's single-head setting).
        dropout_rate: dropout applied to embeddings and block sub-layers
            (paper: 0.5 on Beauty, 0.2 on ML-1M).
        annealing: β schedule for the KL term; default linear annealing.
        use_latent: set False for the VSAN-z ablation.
        inference_feedforward / generative_feedforward: set False for the
            Table VI feed-forward ablations.
        sample_at_eval: score from sampled ``z`` instead of the mean.
        tie_weights: replace the separate output projection with the item
            embedding table.
        sigma_bias_init: initial bias of the σ-head (σ ≈ softplus(bias);
            the −3 default keeps early noise small — see the module note).
        positions: ``"learnable"`` (paper, Eq. 4) or ``"sinusoidal"``.
        num_samples: Monte-Carlo samples per training step for the
            reconstruction expectation (1 = the paper; >1 is our
            lower-variance extension).
        seed: controls init / dropout / reparameterization streams.
    """

    name = "VSAN"
    # Position embeddings are right-aligned and padded keys are masked
    # out of attention exactly, so column-trimmed batches are loss- and
    # gradient-identical (see NeuralSequentialRecommender).
    supports_trimming = True

    def __init__(
        self,
        num_items: int,
        max_length: int,
        dim: int = 48,
        h1: int = 1,
        h2: int = 1,
        k: int = 1,
        num_heads: int = 1,
        dropout_rate: float = 0.2,
        annealing: BetaSchedule | None = None,
        use_latent: bool = True,
        inference_feedforward: bool = True,
        generative_feedforward: bool = True,
        sample_at_eval: bool = False,
        tie_weights: bool = False,
        sigma_bias_init: float = -3.0,
        positions: str = "learnable",
        num_samples: int = 1,
        seed: int = 0,
    ):
        super().__init__(num_items, max_length)
        if h1 < 0 or h2 < 0:
            raise ValueError("h1 and h2 must be >= 0")
        if k < 1:
            raise ValueError("k must be >= 1")
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        init_rng, dropout_rng, self._noise_rng = spawn_rngs(seed, 3)
        self.dim = dim
        self.h1 = h1
        self.h2 = h2
        self.k = k
        # Next-k supervision reaches k-1 positions into the leading pad;
        # batch trimming must keep that many extra columns to stay exact.
        self.target_window = k
        self.num_samples = num_samples
        self.use_latent = use_latent
        self.sample_at_eval = sample_at_eval
        self.tie_weights = tie_weights
        self.annealing = annealing or KLAnnealing()
        self._step = 0

        self.embedding = SequenceEmbedding(
            num_items,
            max_length,
            dim,
            init_rng,
            dropout_rate=dropout_rate,
            dropout_rng=dropout_rng,
            positions=positions,
        )
        self.inference_stack = SelfAttentionStack(
            dim,
            h1,
            init_rng,
            num_heads=num_heads,
            dropout_rate=dropout_rate,
            use_feedforward=inference_feedforward,
            dropout_rng=dropout_rng,
        )
        if use_latent:
            self.mu_head = Linear(dim, dim, init_rng)
            self.sigma_head = Linear(dim, dim, init_rng)
            # Identity-initialize the mean head: at step 0 the latent
            # layer then passes G_i through unchanged (plus small noise),
            # so introducing the latent variable never *starts* the model
            # behind its deterministic ablation — the ELBO bends the map
            # away from identity only where that pays.
            self.mu_head.weight.data[...] = np.eye(dim)
            # Start with a small posterior scale (sigma ~= softplus(bias))
            # so early training is signal-dominated; variance then grows
            # only where the ELBO prefers it.  Without this the injected
            # noise initially drowns the self-attention signal.
            self.sigma_head.bias.data[...] = sigma_bias_init
        self.generative_stack = SelfAttentionStack(
            dim,
            h2,
            init_rng,
            num_heads=num_heads,
            dropout_rate=dropout_rate,
            use_feedforward=generative_feedforward,
            dropout_rng=dropout_rng,
        )
        self.final_norm = LayerNorm(dim)
        if not tie_weights:
            self.output = Linear(dim, num_items + 1, init_rng)

    # ------------------------------------------------------------------
    # Training state beyond parameters (checkpoint/resume)
    # ------------------------------------------------------------------
    def extra_state(self) -> dict:
        """The β-schedule position: restoring it keeps the annealed KL
        weight of Eq. 20 continuous across a checkpoint resume."""
        return {"step": self._step}

    def load_extra_state(self, state: dict) -> None:
        self._step = int(state["step"])

    # ------------------------------------------------------------------
    # Pieces of the pipeline (named after the paper's layers)
    # ------------------------------------------------------------------
    def inference_layer(
        self, padded: np.ndarray
    ) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """Embedding Layer + Inference Self-attention Layer -> ``G_i``."""
        embedded, timeline_mask, key_padding_mask = self.embedding(padded)
        encoded = self.inference_stack(
            embedded,
            key_padding_mask=key_padding_mask,
            timeline_mask=timeline_mask,
        )
        return encoded, timeline_mask, key_padding_mask

    def posterior(self, encoded: Tensor) -> tuple[Tensor, Tensor]:
        """Variational parameters of Eq. 12 (softplus-positive sigma)."""
        if not self.use_latent:
            raise RuntimeError("posterior is undefined when use_latent=False")
        mu = self.mu_head(encoded)
        sigma = self.sigma_head(encoded).softplus(floor=1e-4)
        return mu, sigma

    def latent_layer(self, mu: Tensor, sigma: Tensor,
                     sample: bool) -> Tensor:
        """Latent Variable Layer (Eq. 13): reparameterized sample or mean."""
        if not sample:
            return mu
        return reparameterize(mu, sigma, self._noise_rng)

    def generative_layer(
        self,
        z: Tensor,
        timeline_mask: np.ndarray,
        key_padding_mask: np.ndarray,
    ) -> Tensor:
        """Generative Self-attention Layer (Eq. 15–17) -> ``G_g``."""
        decoded = self.generative_stack(
            z,
            key_padding_mask=key_padding_mask,
            timeline_mask=timeline_mask,
        )
        return self.final_norm(decoded)

    # ------------------------------------------------------------------
    # Model contract
    # ------------------------------------------------------------------
    def encode(self, padded: np.ndarray) -> Tensor:
        """``G_g`` for every position: sampled ``z`` in training (and
        with ``sample_at_eval``), else the posterior mean — the σ-head
        is then skipped entirely."""
        encoded, timeline_mask, key_padding_mask = self.inference_layer(
            padded
        )
        if not self.use_latent:
            z = encoded
        elif self.training or self.sample_at_eval:
            z = self.latent_layer(*self.posterior(encoded), sample=True)
        else:
            z = self.mu_head(encoded)
        return self.generative_layer(z, timeline_mask, key_padding_mask)

    def output_head(self) -> tuple[Tensor, Tensor | None]:
        """Prediction Layer (Eq. 19): ``W_g`` (or the tied item table)."""
        if self.tie_weights:
            return self.embedding.item_embedding.weight.T, None
        return self.output.weight, self.output.bias

    @property
    def supports_retrieval(self) -> bool:
        # Sampling at eval draws fresh reparameterization noise per call:
        # there is no deterministic query vector to index against.
        return not self.sample_at_eval

    def training_elbo(self, padded: np.ndarray) -> ELBOTerms:
        """β-ELBO of Eq. 20 over a padded batch, terms kept separate.

        With ``num_samples > 1`` the reconstruction expectation
        ``E_q[log p(S|z)]`` is Monte-Carlo averaged over that many
        reparameterized samples per step (a lower-variance gradient
        estimate — our extension; the paper uses a single sample); the
        inference stack runs once and only the decoder repeats.
        """
        inputs, targets, weights = reconstruction_targets(padded, self.k)
        beta = self.annealing.beta(self._step)
        if self.training:
            self._step += 1

        encoded, timeline_mask, key_padding_mask = self.inference_layer(
            inputs
        )
        mu = sigma = None
        if self.use_latent:
            mu, sigma = self.posterior(encoded)

        def sample_terms() -> ELBOTerms:
            z = (
                self.latent_layer(mu, sigma, sample=True)
                if self.use_latent else encoded
            )
            hidden = self.generative_layer(
                z, timeline_mask, key_padding_mask
            )
            return elbo_terms(
                hidden, self.output_head(), targets, weights, mu, sigma,
                beta,
            )

        terms = sample_terms()
        if not self.use_latent or self.num_samples == 1:
            return terms
        for _ in range(self.num_samples - 1):
            terms = ELBOTerms(
                reconstruction=(
                    terms.reconstruction + sample_terms().reconstruction
                ),
                kl=terms.kl,
                beta=beta,
            )
        return ELBOTerms(
            reconstruction=terms.reconstruction * (1.0 / self.num_samples),
            kl=terms.kl,
            beta=beta,
        )

    def training_loss(self, padded: np.ndarray) -> Tensor:
        return self.training_elbo(padded).loss

    # ------------------------------------------------------------------
    # Compiled-execution hooks (repro.tensor.compile)
    # ------------------------------------------------------------------
    def compile_beta_zero(self) -> bool:
        """Whether the *next* step's β is exactly zero (pure peek).

        ``ELBOTerms.loss`` drops the KL term structurally at β == 0, so
        compiled training programs are keyed on this flag and retraced
        when an annealing schedule crosses zero.
        """
        return self.annealing.beta(self._step) == 0.0

    def compile_step_feeds(self) -> dict[str, float]:
        """Per-step feed values for a replayed training program.

        Performs the out-of-graph bookkeeping a traced ``training_elbo``
        did internally: computes this step's β and advances ``_step``.
        """
        beta = self.annealing.beta(self._step)
        if self.training:
            self._step += 1
        return {"beta": beta}
