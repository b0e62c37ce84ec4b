"""Seeded random-number utilities shared across the repository.

All stochastic components (parameter init, dropout masks, the VAE's
reparameterization noise, synthetic data generation, batch shuffling)
draw from explicit ``numpy.random.Generator`` objects created here, so
every experiment is reproducible from a single integer seed.

The two per-step training draws read raw 64-bit PCG64 words
(``rng.bit_generator.random_raw``) instead of going through float64
``Generator.random`` / ``standard_normal``:

- :func:`keep_mask` (dropout, Eq. 7–9) views ``⌈n/4⌉`` words as ``n``
  uint16 lanes.  A unit is kept iff ``lane < T`` with
  ``T = round(keep · 2¹⁶)``, and a kept unit carries the scale
  ``2¹⁶ / T``, so the mask's expectation is exactly 1.
- :func:`normal_noise` (the reparameterized sample, Eq. 13) views
  ``⌈n/2⌉`` words as ``2⌈n/2⌉`` uint32 lanes and keeps the top 24 bits
  ``k`` of each.  With ``h = ⌈n/2⌉``, the first ``h`` lanes give
  ``u₁ = 1 − k·2⁻²⁴ ∈ (0, 1]`` and the last ``h`` give ``u₂ = k·2⁻²⁴``;
  Box–Muller in float32, ``r = √(−2 ln u₁)`` and ``θ = 2πu₂``, yields
  ``r cos θ`` for the first ``h`` outputs and ``r sin θ`` for the rest.
  The smallest ``u₁`` is ``2⁻²⁴``, so ``|ε| ≤ √(48 ln 2) ≈ 5.77``: the
  normal tail beyond that (mass about 8·10⁻⁹) is never drawn.

Both draws depend on the output dtype only through a final cast, so a
float64 and a float32 run see the same keep decisions and noise values.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "keep_mask",
    "make_rng",
    "noise_scratch_size",
    "normal_noise",
    "spawn_rngs",
]

_LANES = 1 << 16                          # values of one uint16 lane
_UNIT_24 = np.float32(2.0 ** -24)         # one step of a 24-bit uniform
_ANGLE_24 = np.float32(2.0 * np.pi * 2.0 ** -24)


def make_rng(seed: int | None) -> np.random.Generator:
    """Create a PCG64 generator from an integer seed (or entropy if None)."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed.

    Uses ``SeedSequence.spawn`` so that e.g. data generation, model init,
    and dropout never share a stream even though the experiment exposes a
    single seed.
    """
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def keep_mask(rng: np.random.Generator, keep: float,
              out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with an inverted-dropout scale mask that keeps each
    unit with probability ``T / 2¹⁶``, ``T = round(keep · 2¹⁶)`` (at
    least 1): ``2¹⁶ / T`` where kept, 0 where dropped.

    Consumes exactly ``⌈out.size / 4⌉`` raw words of ``rng``.  ``out``
    must be C-contiguous; it is returned.
    """
    threshold = max(1, round(keep * _LANES))
    n = out.size
    lanes = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)
    # ``lane <= T − 1`` rather than ``lane < T``: T may be 2¹⁶ (keep
    # everything), which no uint16 holds.
    np.less_equal(lanes[:n].reshape(out.shape), threshold - 1, out=out)
    np.multiply(out, out.dtype.type(_LANES / threshold), out=out)
    return out


def noise_scratch_size(size: int) -> int:
    """float32 elements of the scratch :func:`normal_noise` needs to
    draw ``size`` values."""
    return 3 * -(-size // 2)


def normal_noise(rng: np.random.Generator, out: np.ndarray,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Fill ``out`` with standard-normal noise by float32 Box–Muller
    over 24-bit uniforms (see the module docstring), cast once into
    ``out``'s dtype.

    Consumes exactly ``⌈out.size / 2⌉`` raw words of ``rng``.
    ``scratch`` is a float32 buffer of at least
    :func:`noise_scratch_size` elements for the intermediates (a fresh
    one when None); ``out`` must be C-contiguous and is returned.
    """
    n = out.size
    half = -(-n // 2)
    if scratch is None:
        scratch = np.empty(noise_scratch_size(n), dtype=np.float32)
    lanes = rng.bit_generator.random_raw(half).view(np.uint32)
    np.right_shift(lanes, 8, out=lanes)
    # scratch = [r cos θ | r sin θ | r], each ``half`` long.
    pair = scratch[:2 * half].reshape(2, half)
    theta, radius = pair[1], scratch[2 * half:3 * half]
    np.copyto(theta, lanes[half:])
    np.multiply(theta, _ANGLE_24, out=theta)
    np.copyto(radius, lanes[:half])
    # u₁ = 1 − k·2⁻²⁴ is exact in float32 and never 0.
    np.multiply(radius, -_UNIT_24, out=radius)
    np.add(radius, np.float32(1.0), out=radius)
    np.log(radius, out=radius)
    np.multiply(radius, np.float32(-2.0), out=radius)
    np.sqrt(radius, out=radius)
    np.cos(theta, out=pair[0])
    np.sin(theta, out=theta)
    np.multiply(pair, radius, out=pair)
    np.copyto(out.reshape(-1), scratch[:n])
    return out
