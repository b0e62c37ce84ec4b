"""Importance-weighted log-likelihood estimation for VSAN.

The ELBO of Eq. 20 lower-bounds the sequence log-likelihood
``log p(S)``; the importance-weighted bound of Burda et al. (IWAE)
tightens it by averaging ``L`` posterior samples inside the log:

    log p(S) >= E[ log (1/L) sum_l  p(S|z_l) p(z_l) / q(z_l|S) ]

and becomes exact as L -> inf.  This is the standard way to *compare
VAE models by likelihood* rather than by ranking metrics — an evaluation
the paper does not run but that a VAE repository should support.

Everything here is evaluation-only (no gradients), computed in plain
numpy under ``no_grad`` for clarity and speed.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import shift_targets
from ..tensor import no_grad

__all__ = ["importance_weighted_log_likelihood"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _gaussian_log_pdf(x, mean, scale) -> np.ndarray:
    """Elementwise log N(x; mean, scale^2), summed over the last axis."""
    z = (x - mean) / scale
    return (-0.5 * (z**2 + _LOG_2PI) - np.log(scale)).sum(axis=-1)


def importance_weighted_log_likelihood(
    model,
    padded: np.ndarray,
    num_samples: int = 16,
    rng: np.random.Generator | None = None,
) -> float:
    """IWAE estimate of the mean per-position next-item log-likelihood.

    Args:
        model: a trained :class:`repro.core.VSAN` with ``use_latent``.
        padded: ``(batch, max_length + 1)`` padded sequences (as produced
            by ``model.padded_training_rows``).
        num_samples: importance samples ``L`` (1 recovers a single-sample
            ELBO estimate; larger is tighter).
        rng: sampling generator (defaults to a fresh seeded one).

    Returns:
        Mean log-likelihood per supervised position (nats; higher is
        better).  Suitable for comparing VSAN variants on equal data.
    """
    if not getattr(model, "use_latent", False):
        raise ValueError("IWAE bound needs a latent-variable model")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    model.eval()
    inputs, targets, weights = shift_targets(
        np.asarray(padded, dtype=np.int64)
    )
    batch, length = inputs.shape

    with no_grad():
        encoded, timeline_mask, key_padding_mask = model.inference_layer(
            inputs
        )
        mu_t, sigma_t = model.posterior(encoded)
        mu = mu_t.numpy()
        sigma = sigma_t.numpy()

        log_weights = np.empty((num_samples, batch))
        for sample_index in range(num_samples):
            noise = rng.standard_normal(mu.shape)
            z = mu + sigma * noise
            from ..tensor import Tensor

            hidden = model.generative_layer(
                Tensor(z), timeline_mask, key_padding_mask
            )
            logits = model.logits(hidden).numpy()
            log_probs = _log_softmax(logits)
            rows = np.arange(batch)[:, None]
            cols = np.arange(length)[None, :]
            reconstruction = (
                log_probs[rows, cols, targets] * weights
            ).sum(axis=1)
            # Only supervised positions contribute latent terms, matching
            # the weighting of the training ELBO.
            prior = _gaussian_log_pdf(z, 0.0, np.ones_like(sigma))
            posterior = _gaussian_log_pdf(z, mu, sigma)
            latent_term = ((prior - posterior) * weights).sum(axis=1)
            log_weights[sample_index] = reconstruction + latent_term

        # logsumexp over samples, stable.
        peak = log_weights.max(axis=0)
        bound = peak + np.log(
            np.exp(log_weights - peak).mean(axis=0)
        )
    total_positions = weights.sum()
    if total_positions == 0:
        raise ValueError("batch has no supervised positions")
    return float(bound.sum() / total_positions)
