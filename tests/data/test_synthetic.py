"""Synthetic generators: determinism, config validation, and the
statistical structure the experiments rely on."""

import hashlib

import numpy as np
import pytest

from repro.data import BEAUTY_LIKE, ML1M_LIKE, generate, tiny_config
from repro.data.synthetic import SyntheticConfig


class TestConfigValidation:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            SyntheticConfig(
                name="bad", num_users=10, num_items=10, num_categories=2,
                min_length=5, mean_length=4.0, max_length=10,
            )

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            SyntheticConfig(
                name="bad", num_users=10, num_items=10, num_categories=2,
                min_length=2, mean_length=4.0, max_length=10,
                drift_prob=1.5,
            )

    def test_rejects_fewer_items_than_categories(self):
        with pytest.raises(ValueError):
            SyntheticConfig(
                name="bad", num_users=10, num_items=3, num_categories=5,
                min_length=2, mean_length=4.0, max_length=10,
            )

    def test_scaled(self):
        small = BEAUTY_LIKE.scaled(0.1)
        assert small.num_users == int(BEAUTY_LIKE.num_users * 0.1)
        assert small.num_categories == BEAUTY_LIKE.num_categories


class TestGeneration:
    def test_deterministic_per_seed(self):
        config = tiny_config()
        a = generate(config, seed=9)
        b = generate(config, seed=9)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_array_equal(a.ratings, b.ratings)

    def test_beauty_stream_is_pinned(self):
        # The 3x Beauty-like corpus that ``perfbench train`` fits on:
        # any change to the draws or to the order they are taken in
        # changes this digest, and with it every benchmarked number.
        from repro.data import prepare_corpus
        from repro.experiments.datasets import BEAUTY

        corpus = prepare_corpus(
            generate(BEAUTY_LIKE.scaled(3.0), seed=BEAUTY.generation_seed)
        )
        digest = hashlib.sha256()
        for sequence in corpus.sequences:
            digest.update(np.asarray(sequence, dtype=np.int64).tobytes())
            digest.update(b"|")
        assert digest.hexdigest() == (
            "fc3d80e2abe5708335f90b80a1d6b008"
            "1c3336fb9f454be8d81b0dfa63069523"
        )

    def test_different_seeds_differ(self):
        config = tiny_config()
        a = generate(config, seed=1)
        b = generate(config, seed=2)
        assert (len(a) != len(b)) or not np.array_equal(a.items, b.items)

    def test_every_user_within_length_bounds(self):
        config = tiny_config()
        log = generate(config, seed=4)
        _, counts = np.unique(log.users, return_counts=True)
        assert counts.min() >= config.min_length
        assert counts.max() <= config.max_length

    def test_item_ids_in_range(self):
        config = tiny_config()
        log = generate(config, seed=4)
        assert log.items.min() >= 0
        assert log.items.max() < config.num_items

    def test_ratings_in_explicit_scale(self):
        log = generate(tiny_config(), seed=4)
        assert log.ratings.min() >= 1.0
        assert log.ratings.max() <= 5.0
        # Binarization must have something to drop and something to keep.
        assert (log.ratings < 4).any()
        assert (log.ratings >= 4).mean() > 0.5

    def test_timestamps_increase_per_user(self):
        log = generate(tiny_config(), seed=4)
        for user in np.unique(log.users):
            stamps = log.timestamps[log.users == user]
            assert (np.diff(stamps) > 0).all()

    def test_popularity_is_long_tailed(self):
        """Zipf-ish: the top decile of items gets a large share."""
        log = generate(BEAUTY_LIKE, seed=0)
        _, counts = np.unique(log.items, return_counts=True)
        counts = np.sort(counts)[::-1]
        top_decile = counts[: max(1, len(counts) // 10)].sum()
        assert top_decile / counts.sum() > 0.2

    def test_sparsity_contrast_between_datasets(self):
        beauty = generate(BEAUTY_LIKE, seed=0).statistics()
        ml1m = generate(ML1M_LIKE, seed=0).statistics()
        assert beauty.sparsity > ml1m.sparsity

    def test_sequences_are_sequentially_predictable(self):
        """A bigram model must beat the popularity baseline at next-item
        prediction — otherwise the sequential signal the paper's models
        exploit is absent."""
        log = generate(tiny_config(num_users=200, num_items=40), seed=2)
        ordered = log.sorted_chronologically()
        transitions = {}
        popularity = np.zeros(40)
        pairs = []
        for user in np.unique(ordered.users):
            items = ordered.items[ordered.users == user]
            popularity[items] += 1
            for prev, nxt in zip(items[:-1], items[1:]):
                pairs.append((prev, nxt))
        split_point = int(len(pairs) * 0.7)
        for prev, nxt in pairs[:split_point]:
            transitions.setdefault(prev, []).append(nxt)
        bigram_hits = pop_hits = total = 0
        top_pop = int(np.argmax(popularity))
        for prev, nxt in pairs[split_point:]:
            total += 1
            if prev in transitions:
                values, counts = np.unique(
                    transitions[prev], return_counts=True
                )
                if values[np.argmax(counts)] == nxt:
                    bigram_hits += 1
            if top_pop == nxt:
                pop_hits += 1
        assert bigram_hits > pop_hits


class TestWorldInfo:
    def test_ground_truth_structure(self):
        from repro.data import generate_with_info

        config = tiny_config()
        log, info = generate_with_info(config, seed=6)
        assert info.category_of.shape == (config.num_items,)
        assert info.next_category.shape == (config.num_categories,)
        assert info.user_mixtures.shape == (
            config.num_users, config.num_categories
        )
        np.testing.assert_allclose(info.user_mixtures.sum(axis=1), 1.0)
        # The routine chain is a permutation (every category has exactly
        # one predecessor).
        assert sorted(info.next_category.tolist()) == list(
            range(config.num_categories)
        )

    def test_generate_matches_generate_with_info(self):
        from repro.data import generate_with_info

        config = tiny_config()
        log_only = generate(config, seed=6)
        log_pair, _ = generate_with_info(config, seed=6)
        np.testing.assert_array_equal(log_only.items, log_pair.items)

    def test_mixture_entropy(self):
        from repro.data import generate_with_info

        _, info = generate_with_info(tiny_config(), seed=6)
        entropies = [
            info.mixture_entropy(u) for u in range(len(info.user_mixtures))
        ]
        assert all(e >= 0 for e in entropies)
        assert max(entropies) > min(entropies)  # users genuinely differ


class TestZipfCatalog:
    """Catalogue-scale generator for the retrieval benchmarks."""

    def test_deterministic(self):
        from repro.data import ZipfCatalogConfig, generate_zipf_catalog

        config = ZipfCatalogConfig(num_users=50, num_items=5000)
        a = generate_zipf_catalog(config, seed=4)
        b = generate_zipf_catalog(config, seed=4)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_array_equal(a.users, b.users)
        c = generate_zipf_catalog(config, seed=5)
        assert not np.array_equal(a.items, c.items)

    def test_shapes_and_ranges(self):
        from repro.data import ZipfCatalogConfig, generate_zipf_catalog

        config = ZipfCatalogConfig(
            num_users=40, num_items=3000, min_length=3, mean_length=8.0,
            max_length=20,
        )
        log = generate_zipf_catalog(config, seed=0)
        assert set(np.unique(log.users).tolist()) == set(range(40))
        assert log.items.min() >= 0 and log.items.max() < 3000
        counts = np.bincount(log.users)
        assert counts.min() >= 3 and counts.max() <= 20
        # Timestamps restart at 0 per user and increase by 1.
        for user in (0, 17, 39):
            stamps = log.timestamps[log.users == user]
            np.testing.assert_array_equal(stamps, np.arange(len(stamps)))

    def test_head_heavy_popularity(self):
        from repro.data import ZipfCatalogConfig, generate_zipf_catalog

        config = ZipfCatalogConfig(
            num_users=400, num_items=10_000, mean_length=20.0,
            max_length=50, zipf_exponent=1.2,
        )
        log = generate_zipf_catalog(config, seed=1)
        counts = np.sort(np.bincount(log.items, minlength=10_000))[::-1]
        top_share = counts[:100].sum() / counts.sum()
        # Zipf(1.2): the top 1% of items dominates the traffic.
        assert top_share > 0.3
        # ...while the catalogue stays huge and mostly cold.
        assert (counts == 0).sum() > 5_000

    def test_histories_are_one_indexed_full_vocab(self):
        from repro.data import ZipfCatalogConfig, zipf_histories

        config = ZipfCatalogConfig(num_users=30, num_items=2000)
        histories = zipf_histories(config, seed=2)
        assert len(histories) == 30
        all_items = np.concatenate(histories)
        assert all_items.min() >= 1 and all_items.max() <= 2000
        assert all(h.dtype == np.int64 for h in histories)

    def test_no_dense_materialization_at_scale(self):
        """100k items x 64 users must run in well under a second."""
        import time

        from repro.data import ZipfCatalogConfig, zipf_histories

        config = ZipfCatalogConfig(num_users=64, num_items=100_000)
        start = time.perf_counter()
        histories = zipf_histories(config, seed=0)
        elapsed = time.perf_counter() - start
        assert len(histories) == 64
        assert elapsed < 5.0  # O(events), not O(users x items)

    def test_config_validation(self):
        from repro.data import ZipfCatalogConfig

        with pytest.raises(ValueError):
            ZipfCatalogConfig(num_users=0)
        with pytest.raises(ValueError):
            ZipfCatalogConfig(min_length=10, mean_length=5.0)
        with pytest.raises(ValueError):
            ZipfCatalogConfig(zipf_exponent=0.0)


class TestZipfTraffic:
    def test_deterministic_and_user_sticky_histories(self):
        from repro.data import ZipfTrafficConfig, zipf_traffic

        config = ZipfTrafficConfig(
            num_users=1_000_000, num_items=500, num_requests=300,
            rate=100.0,
        )
        first = list(zipf_traffic(config, seed=7))
        second = list(zipf_traffic(config, seed=7))
        assert len(first) == 300
        for (u1, h1, t1), (u2, h2, t2) in zip(first, second):
            assert u1 == u2 and t1 == t2
            np.testing.assert_array_equal(h1, h2)
        # A user's history is a function of the user id alone: every
        # repeat appearance replays the identical history.
        by_user = {}
        for user, history, _ in first:
            seen = by_user.setdefault(user, history)
            np.testing.assert_array_equal(seen, history)

    def test_histories_valid_and_arrivals_increase(self):
        from repro.data import ZipfTrafficConfig, zipf_traffic

        config = ZipfTrafficConfig(
            num_users=10_000, num_items=200, num_requests=500,
            rate=250.0, min_length=2, mean_length=6.0, max_length=12,
        )
        previous = 0.0
        for user, history, arrival in zipf_traffic(config, seed=3):
            assert 0 <= user < 10_000
            assert history.dtype == np.int64
            assert 2 <= len(history) <= 12
            assert history.min() >= 1 and history.max() <= 200
            assert arrival > previous
            previous = arrival
        # ~500 requests at 250 req/s land near 2 simulated seconds.
        assert 1.0 < previous < 4.0

    def test_head_users_dominate(self):
        from repro.data import ZipfTrafficConfig, zipf_traffic

        config = ZipfTrafficConfig(
            num_users=1_000_000, num_items=100, num_requests=2_000,
            rate=1000.0, user_zipf_exponent=1.1,
        )
        counts = {}
        for user, _, _ in zipf_traffic(config, seed=0):
            counts[user] = counts.get(user, 0) + 1
        top = sorted(counts.values(), reverse=True)
        # Zipf head: a handful of hot users account for a large share
        # of traffic while most of the million users never appear.
        assert sum(top[:20]) / 2_000 > 0.25
        assert len(counts) < 2_000

    def test_cost_is_per_request_not_per_user(self):
        """A 1M-user population must not cost O(num_users x items)."""
        import time

        from repro.data import ZipfTrafficConfig, zipf_traffic

        config = ZipfTrafficConfig(
            num_users=1_000_000, num_items=100_000, num_requests=200,
            rate=100.0,
        )
        start = time.perf_counter()
        traffic = list(zipf_traffic(config, seed=1))
        elapsed = time.perf_counter() - start
        assert len(traffic) == 200
        assert elapsed < 5.0

    def test_config_validation(self):
        from repro.data import ZipfTrafficConfig

        with pytest.raises(ValueError):
            ZipfTrafficConfig(num_users=0)
        with pytest.raises(ValueError):
            ZipfTrafficConfig(rate=0.0)
        with pytest.raises(ValueError):
            ZipfTrafficConfig(num_requests=0)
        with pytest.raises(ValueError):
            ZipfTrafficConfig(user_zipf_exponent=0.0)
        with pytest.raises(ValueError):
            ZipfTrafficConfig(min_length=10, mean_length=4.0)
