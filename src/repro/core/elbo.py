"""The β-ELBO of Eq. 20, factored out of the models.

Both VAEs in this repository (VSAN and the SVAE baseline) minimize

    L_β = β · KL(q_λ(z|S) || N(0, I)) − E_q[log p_θ(S|z)]

where the reconstruction term is a softmax cross-entropy against the
next item or the set of the next ``k`` items (Eq. 18), averaged over the
non-padded sequence positions; the KL term is the closed-form Gaussian
divergence summed over latent dimensions and averaged over the same
positions.  Both forms go through one kernel that fuses the output-head
GEMM into the loss (:func:`repro.tensor.linear_cross_entropy`), so a
padded position is never scored and no catalogue-wide target is built.

:func:`elbo_terms` returns the pieces separately so callers can log the
reconstruction/KL trade-off (and so tests can check each in isolation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.batching import next_k_targets, shift_targets
from ..tensor import (
    Tensor,
    gaussian_kl_standard_normal,
    get_default_dtype,
    linear_cross_entropy,
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
    padded: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Derive ``(inputs, targets, weights)`` from a padded batch: the
    next item's id per position for ``k == 1`` (the paper's Eq. 14 mode,
    views of ``padded``), else ``k`` id slots per position holding the
    set of the next ``k`` items (Eq. 18, see
    :func:`repro.data.batching.next_k_targets`).
    """
    if k == 1:
        return shift_targets(padded)
    return next_k_targets(padded, k)


def elbo_terms(
    hidden: Tensor,
    head: tuple[Tensor, Tensor | None],
    targets: np.ndarray,
    weights: np.ndarray,
    mu: Tensor | None,
    sigma: Tensor | None,
    beta: float,
) -> ELBOTerms:
    """Assemble Eq. 20 from model outputs.

    Args:
        hidden: ``(batch, length, dim)`` hidden states feeding the head.
        head: the output head's ``(weight, bias)`` (see
            ``NeuralSequentialRecommender.output_head``).
        targets: next-item ids, shaped like ``weights``, or ``k`` id
            slots per position (see :func:`reconstruction_targets`).
        weights: per-position supervision weights (0 at padding).
        mu, sigma: posterior parameters (both None for latent-free
            ablations such as VSAN-z — the KL term is then omitted).
        beta: the KL weight in force (from a
            :class:`repro.train.annealing.BetaSchedule`).
    """
    weight, bias = head
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
