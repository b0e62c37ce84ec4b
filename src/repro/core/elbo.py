"""The β-ELBO of Eq. 20, factored out of the models.

Both VAEs in this repository (VSAN and the SVAE baseline) minimize

    L_β = β · KL(q_λ(z|S) || N(0, I)) − E_q[log p_θ(S|z)]

where the reconstruction term is a softmax cross-entropy against the
next item (one-hot) or the next ``k`` items (multi-hot, Eq. 18), averaged
over the non-padded sequence positions; the KL term is the closed-form
Gaussian divergence summed over latent dimensions and averaged over the
same positions.  The one-hot form fuses the output-head GEMM into the
loss (:func:`repro.tensor.linear_cross_entropy`), so a padded position
is never scored.

:func:`elbo_terms` returns the pieces separately so callers can log the
reconstruction/KL trade-off (and so tests can check each in isolation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.batching import next_k_multi_hot, shift_targets
from ..tensor import (
    Tensor,
    gaussian_kl_standard_normal,
    get_default_dtype,
    linear_cross_entropy,
    multi_hot_cross_entropy,
)
from ..tensor.compile import record_feed, tracing

__all__ = ["ELBOTerms", "elbo_terms", "reconstruction_targets"]


@dataclass
class ELBOTerms:
    """The two terms of Eq. 20 plus the β in force at this step."""

    reconstruction: Tensor
    kl: Tensor | None
    beta: float

    @property
    def loss(self) -> Tensor:
        """``reconstruction + beta * kl`` (just reconstruction when the
        model has no latent variable)."""
        if self.kl is None or self.beta == 0.0:
            return self.reconstruction
        if tracing():
            # β changes every step under annealing, so a compiled program
            # takes it as a named feed instead of freezing it into the
            # graph.  (The β == 0 branch above is structural: the trainer
            # keys programs on it and retraces when a schedule crosses
            # zero.)
            beta_arr = np.asarray(self.beta, dtype=get_default_dtype())
            record_feed("beta", beta_arr)
            return self.reconstruction + Tensor(beta_arr) * self.kl
        return self.reconstruction + self.beta * self.kl

    @property
    def reconstruction_value(self) -> float:
        return self.reconstruction.item()

    @property
    def kl_value(self) -> float:
        return 0.0 if self.kl is None else self.kl.item()


def reconstruction_targets(
    padded: np.ndarray,
    k: int,
    num_items: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Derive training targets from a padded batch.

    Returns ``(inputs, targets, weights, multi_hot)``: one-hot integer
    targets for ``k == 1`` (the paper's Eq. 14 mode) or a {0,1} multi-hot
    tensor over the catalogue for ``k > 1`` (Eq. 18).  ``out`` recycles a
    caller-owned dense buffer for the ``k > 1`` target (see
    :func:`repro.data.batching.next_k_multi_hot`); ``k == 1`` ignores it.
    """
    if k == 1:
        inputs, targets, weights = shift_targets(padded)
        return inputs, targets, weights, False
    inputs, targets, weights = next_k_multi_hot(
        padded, k, num_items, out=out
    )
    return inputs, targets, weights, True


def elbo_terms(
    hidden: Tensor,
    head: tuple[Tensor, Tensor | None],
    targets: np.ndarray,
    weights: np.ndarray,
    mu: Tensor | None,
    sigma: Tensor | None,
    beta: float,
    multi_hot: bool,
) -> ELBOTerms:
    """Assemble Eq. 20 from model outputs.

    Args:
        hidden: ``(batch, length, dim)`` hidden states feeding the head.
        head: the output head's ``(weight, bias)`` (see
            ``NeuralSequentialRecommender.output_head``).
        targets: integer next-item ids, or a multi-hot array when
            ``multi_hot`` is True.
        weights: per-position supervision weights (0 at padding).
        mu, sigma: posterior parameters (both None for latent-free
            ablations such as VSAN-z — the KL term is then omitted).
        beta: the KL weight in force (from a
            :class:`repro.train.annealing.BetaSchedule`).
        multi_hot: selects the reconstruction form: one-hot targets go
            through :func:`linear_cross_entropy`, multi-hot ones through
            composed logits and :func:`multi_hot_cross_entropy`.
    """
    weight, bias = head
    if multi_hot:
        logits = hidden @ weight
        if bias is not None:
            logits = logits + bias
        reconstruction = multi_hot_cross_entropy(
            logits, targets, weights=weights
        )
    else:
        reconstruction = linear_cross_entropy(
            hidden, weight, bias, targets, weights=weights
        )
    if (mu is None) != (sigma is None):
        raise ValueError("mu and sigma must both be given or both None")
    kl = (
        gaussian_kl_standard_normal(mu, sigma, weights=weights)
        if mu is not None
        else None
    )
    return ELBOTerms(reconstruction=reconstruction, kl=kl, beta=beta)
