"""Seeded RNG helpers: determinism, stream independence, and the
raw-word training draws (dropout keep masks, Box–Muller noise)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.tensor.random import (
    keep_mask,
    make_rng,
    noise_scratch_size,
    normal_noise,
    spawn_rngs,
)


def test_make_rng_is_deterministic():
    a = make_rng(99).normal(size=10)
    b = make_rng(99).normal(size=10)
    np.testing.assert_array_equal(a, b)


def test_make_rng_different_seeds_differ():
    a = make_rng(1).normal(size=10)
    b = make_rng(2).normal(size=10)
    assert not np.allclose(a, b)


def test_spawn_rngs_count_and_determinism():
    first = [g.normal(size=5) for g in spawn_rngs(7, 3)]
    second = [g.normal(size=5) for g in spawn_rngs(7, 3)]
    assert len(first) == 3
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_spawn_rngs_streams_are_distinct():
    streams = [g.normal(size=20) for g in spawn_rngs(7, 4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.allclose(streams[i], streams[j])


def words_consumed(draw, size, seed=5):
    """Raw words ``draw(rng, size)`` takes, found by advancing a twin
    generator word by word until the states agree."""
    rng, twin = make_rng(seed), make_rng(seed)
    draw(rng, size)
    for words in range(size + 1):
        if twin.bit_generator.state == rng.bit_generator.state:
            return words
        twin.bit_generator.random_raw()
    raise AssertionError("the draw took more words than values")


class TestKeepMask:
    def test_keep_fraction_lies_in_a_five_sigma_binomial_band(self):
        n, keep = 1_000_000, 0.8
        mask = keep_mask(make_rng(11), keep, np.empty(n))
        p = round(keep * 2**16) / 2**16
        kept = np.count_nonzero(mask)
        assert abs(kept - n * p) < 5 * math.sqrt(n * p * (1 - p)), kept

    @pytest.mark.parametrize("keep", [0.9, 0.8, 0.7, 0.6, 0.5, 0.3, 0.1])
    def test_scale_times_keep_probability_is_exactly_one(self, keep):
        threshold = round(keep * 2**16)
        mask = keep_mask(make_rng(2), keep, np.empty(4096))
        scale = mask.max()
        assert scale == 2**16 / threshold
        assert scale * threshold / 2**16 == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rate_zero_keeps_every_unit(self, dtype):
        mask = keep_mask(make_rng(3), 1.0, np.empty((7, 9), dtype=dtype))
        assert (mask == 1.0).all()

    @pytest.mark.parametrize("size", [1, 5, 7, 101])
    def test_an_odd_mask_consumes_a_word_per_four_lanes(self, size):
        def draw(rng, n):
            keep_mask(rng, 0.7, np.empty(n))

        assert words_consumed(draw, size) == -(-size // 4)

    def test_float32_and_float64_keep_the_same_units(self):
        shape = (13, 5, 3)
        single = keep_mask(make_rng(4), 0.7, np.empty(shape, np.float32))
        double = keep_mask(make_rng(4), 0.7, np.empty(shape, np.float64))
        assert single.tobytes() == double.astype(np.float32).tobytes()


class TestNormalNoise:
    @pytest.fixture(scope="class")
    def draws(self):
        return normal_noise(make_rng(2024), np.empty(1_000_000))

    def test_moments(self, draws):
        n = draws.size
        # Standard errors of the mean, variance and kurtosis of N(0, 1).
        assert abs(draws.mean()) < 5 / math.sqrt(n)
        assert abs(draws.var() - 1.0) < 5 * math.sqrt(2 / n)
        assert abs(stats.kurtosis(draws)) < 5 * math.sqrt(24 / n)

    def test_kolmogorov_smirnov_against_the_standard_normal(self, draws):
        assert stats.kstest(draws, "norm").pvalue > 1e-3

    def test_magnitude_is_truncated_at_the_24_bit_radius(self, draws):
        assert np.abs(draws).max() <= math.sqrt(48 * math.log(2)) + 1e-6

    @pytest.mark.parametrize("size", [1, 5, 7, 101])
    def test_an_odd_draw_consumes_a_word_per_two_values(self, size):
        def draw(rng, n):
            normal_noise(rng, np.empty(n))

        assert words_consumed(draw, size) == -(-size // 2)

    def test_float32_and_float64_see_the_same_values(self):
        shape = (9, 7, 3)
        single = normal_noise(make_rng(6), np.empty(shape, np.float32))
        double = normal_noise(make_rng(6), np.empty(shape, np.float64))
        assert double.astype(np.float32).tobytes() == single.tobytes()
        assert double.tobytes() == single.astype(np.float64).tobytes()

    def test_given_scratch_gives_the_same_values(self):
        size = 33
        scratch = np.full(noise_scratch_size(size), np.nan, np.float32)
        given = normal_noise(make_rng(8), np.empty(size), scratch)
        fresh = normal_noise(make_rng(8), np.empty(size))
        assert given.tobytes() == fresh.tobytes()
