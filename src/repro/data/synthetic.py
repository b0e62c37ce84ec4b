"""Synthetic interaction-log generators standing in for the paper's datasets.

The paper evaluates on Amazon *Beauty* (5-core) and *MovieLens-1M*; both
require network downloads, so this module provides seeded generative
simulators that reproduce the *statistical structure* those experiments
depend on:

- **long-tail popularity** — item draws follow a Zipf law within category,
  so POP is a meaningful (but beatable) baseline;
- **sequential structure** — items belong to latent categories connected
  by a "routine chain" (the paper's shampoo → conditioner → hair-mask →
  oil example), plus item-level successor links, so transition-aware
  models (FPMC…SASRec) beat non-sequential ones (BPR, POP);
- **preference uncertainty** — each user holds a sparse Dirichlet mixture
  over categories and *stochastically drifts* between their modes; a
  point-estimate of the next item averages the modes (the paper's
  Figure 1 failure), which is exactly the structure VSAN's latent
  variable is claimed to capture;
- **sparsity contrast** — the Beauty-like config is very sparse with
  short sequences; the ML1M-like config is dense with long sequences,
  matching the two regimes of Table II;
- **explicit ratings** — ratings around 4±1 with preference-aligned items
  rated higher, so the paper's "discard ratings < 4" binarization path is
  exercised for real.

Everything is driven by one ``numpy.random.Generator``; identical seeds
give identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..tensor.random import make_rng
from .interactions import InteractionLog

__all__ = [
    "SyntheticConfig",
    "BEAUTY_LIKE",
    "ML1M_LIKE",
    "WorldInfo",
    "ZipfCatalogConfig",
    "ZipfTrafficConfig",
    "generate",
    "generate_with_info",
    "generate_zipf_catalog",
    "tiny_config",
    "zipf_histories",
    "zipf_traffic",
]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the generative process (see module docstring)."""

    name: str
    num_users: int
    num_items: int
    num_categories: int
    min_length: int
    mean_length: float
    max_length: int
    zipf_exponent: float = 1.2
    drift_prob: float = 0.25
    chain_prob: float = 0.55
    item_successor_prob: float = 0.5
    noise_prob: float = 0.05
    dirichlet_alpha: float = 0.25
    preferred_categories: int = 3
    low_rating_prob: float = 0.18

    def __post_init__(self):
        if self.num_items < self.num_categories:
            raise ValueError("need at least one item per category")
        if not 0 < self.min_length <= self.mean_length <= self.max_length:
            raise ValueError("lengths must satisfy min <= mean <= max")
        for prob_name in (
            "drift_prob",
            "chain_prob",
            "item_successor_prob",
            "noise_prob",
            "low_rating_prob",
        ):
            value = getattr(self, prob_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{prob_name} must be in [0, 1], got {value}")

    def scaled(self, factor: float) -> "SyntheticConfig":
        """A copy with user/item counts scaled (for quick test fixtures)."""
        return replace(
            self,
            num_users=max(4, int(self.num_users * factor)),
            num_items=max(
                self.num_categories, int(self.num_items * factor)
            ),
        )


# Scaled-down analogues of Table II: Beauty is ~40x sparser per user-item
# cell than ML-1M and has far shorter sequences; ML-1M has fewer items
# than users interact with repeatedly (dense).
BEAUTY_LIKE = SyntheticConfig(
    name="beauty-like",
    num_users=900,
    num_items=700,
    num_categories=24,
    min_length=6,
    mean_length=10.0,
    max_length=28,
    drift_prob=0.30,
    chain_prob=0.55,
    item_successor_prob=0.55,
    dirichlet_alpha=0.20,
    preferred_categories=3,
)

ML1M_LIKE = SyntheticConfig(
    name="ml1m-like",
    num_users=320,
    num_items=380,
    num_categories=16,
    min_length=24,
    mean_length=60.0,
    max_length=140,
    drift_prob=0.18,
    chain_prob=0.66,
    item_successor_prob=0.60,
    dirichlet_alpha=0.30,
    preferred_categories=3,
)


def tiny_config(
    num_users: int = 40, num_items: int = 30, seed_name: str = "tiny"
) -> SyntheticConfig:
    """A miniature config for unit tests (seconds, not minutes)."""
    return SyntheticConfig(
        name=seed_name,
        num_users=num_users,
        num_items=num_items,
        num_categories=5,
        min_length=5,
        mean_length=8.0,
        max_length=14,
    )


class _World:
    """Frozen random structure shared by all users of one dataset."""

    def __init__(self, config: SyntheticConfig, rng: np.random.Generator):
        self.config = config
        items = np.arange(config.num_items)
        rng.shuffle(items)
        # Partition items into categories as evenly as possible.
        self.category_of = np.empty(config.num_items, dtype=np.int64)
        self.items_in_category: list[np.ndarray] = []
        chunks = np.array_split(items, config.num_categories)
        for category, chunk in enumerate(chunks):
            self.category_of[chunk] = category
            self.items_in_category.append(np.sort(chunk))
        # Routine chain: a random ring over categories.
        ring = rng.permutation(config.num_categories)
        self.next_category = np.empty(config.num_categories, dtype=np.int64)
        for position, category in enumerate(ring):
            self.next_category[category] = ring[
                (position + 1) % config.num_categories
            ]
        # Zipf popularity within each category, kept as the CDF that
        # ``sample_item`` inverts.
        self.popularity_cdf: list[np.ndarray] = []
        for chunk in self.items_in_category:
            ranks = np.arange(1, len(chunk) + 1, dtype=np.float64)
            weights = ranks ** (-config.zipf_exponent)
            # Random order so the popular item isn't always the lowest id.
            rng.shuffle(weights)
            self.popularity_cdf.append(_cdf(weights / weights.sum()))
        # Item-level successor: each item points at one item in the ring-
        # next category, inducing sharp pairwise transitions.
        self.successor_of = np.empty(config.num_items, dtype=np.int64)
        for item in range(config.num_items):
            target_category = self.next_category[self.category_of[item]]
            candidates = self.items_in_category[target_category]
            self.successor_of[item] = rng.choice(candidates)

    def sample_item(self, category: int, rng: np.random.Generator) -> int:
        pool = self.items_in_category[category]
        return int(pool[_draw(self.popularity_cdf[category], rng)])


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``numpy.random.Generator.choice`` builds from ``p``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn from ``cdf``: the same draw, off the same stream,
    as ``rng.choice(len(cdf), p=p)``, without re-validating ``p``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sample_user_mixture(
    alpha: np.ndarray, base: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sparse category mixture: mass concentrated on a few modes.

    ``alpha`` is the Dirichlet concentration over the preferred
    categories and ``base`` the per-category floor; both depend only on
    the config, so :func:`generate_with_info` builds them once."""
    preferred = rng.choice(len(base), size=len(alpha), replace=False)
    mixture = base.copy()
    mixture[preferred] += rng.dirichlet(alpha)
    return mixture / mixture.sum()


_LENGTH_SIGMA = 0.45


def _length_mu(mean_length: float) -> float:
    """Log-normal location whose mean is ``mean_length``."""
    return np.log(mean_length) - 0.5 * _LENGTH_SIGMA**2


def _sample_length(
    config: SyntheticConfig, mu: float, rng: np.random.Generator
) -> int:
    """Log-normal-ish sequence length clipped to the configured range;
    ``mu`` is :func:`_length_mu` of ``config``."""
    length = round(rng.lognormal(mu, _LENGTH_SIGMA))
    return min(max(length, config.min_length), config.max_length)


@dataclass
class WorldInfo:
    """Ground truth of the generative process (for analysis only).

    Lets experiments validate model behaviour against the *true* latent
    structure — e.g. comparing VSAN's posterior scale with each user's
    actual preference entropy — something impossible with real logs.

    Attributes:
        category_of: item id -> category id.
        next_category: the routine-chain successor per category.
        user_mixtures: ``(num_users, num_categories)`` preference
            mixtures the sequences were sampled from.
    """

    category_of: np.ndarray
    next_category: np.ndarray
    user_mixtures: np.ndarray

    def mixture_entropy(self, user: int) -> float:
        """Shannon entropy (nats) of one user's category mixture — the
        ground-truth 'preference uncertainty' of the paper's Figure 1."""
        p = self.user_mixtures[user]
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())


def generate(config: SyntheticConfig, seed: int) -> InteractionLog:
    """Generate a full interaction log for ``config`` from one seed."""
    log, _ = generate_with_info(config, seed)
    return log


def generate_with_info(
    config: SyntheticConfig, seed: int
) -> tuple[InteractionLog, WorldInfo]:
    """Like :func:`generate`, but also return the generative ground
    truth (:class:`WorldInfo`)."""
    rng = make_rng(seed)
    world = _World(config, rng)

    users: list[int] = []
    items: list[int] = []
    ratings: list[float] = []
    timestamps: list[int] = []
    mixtures = np.zeros((config.num_users, config.num_categories))
    alpha = np.full(
        min(config.preferred_categories, config.num_categories),
        config.dirichlet_alpha,
    ) + 0.05
    base = np.full(config.num_categories, 1e-3)
    mu = _length_mu(config.mean_length)

    for user in range(config.num_users):
        mixture = _sample_user_mixture(alpha, base, rng)
        mixtures[user] = mixture
        top_categories = set(
            np.argsort(mixture)[-config.preferred_categories:]
        )
        length = _sample_length(config, mu, rng)
        mixture_cdf = _cdf(mixture)
        category = _draw(mixture_cdf, rng)
        item = world.sample_item(category, rng)
        previous_item = -1
        for step in range(length):
            if rng.random() < config.noise_prob:
                item = int(rng.integers(config.num_items))
                category = int(world.category_of[item])
            else:
                roll = rng.random()
                if roll < config.drift_prob:
                    # Preference-uncertainty jump to another mode.
                    category = _draw(mixture_cdf, rng)
                    item = world.sample_item(category, rng)
                elif roll < config.drift_prob + config.chain_prob:
                    # Follow the routine chain; often to the exact successor.
                    category = int(world.next_category[category])
                    if rng.random() < config.item_successor_prob:
                        item = int(world.successor_of[item])
                    else:
                        item = world.sample_item(category, rng)
                else:
                    item = world.sample_item(category, rng)
            if item == previous_item:
                item = world.sample_item(category, rng)
            aligned = world.category_of[item] in top_categories
            if rng.random() < config.low_rating_prob and not aligned:
                rating = float(rng.integers(1, 4))
            else:
                rating = float(min(5, max(4, round(rng.normal(4.4, 0.5)))))
            users.append(user)
            items.append(item)
            ratings.append(rating)
            timestamps.append(step)
            previous_item = item

    log = InteractionLog(
        users=np.array(users),
        items=np.array(items),
        ratings=np.array(ratings),
        timestamps=np.array(timestamps),
    )
    info = WorldInfo(
        category_of=world.category_of,
        next_category=world.next_category,
        user_mixtures=mixtures,
    )
    return log, info


# ----------------------------------------------------------------------
# Catalogue-scale Zipf generator (retrieval benchmarks)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ZipfCatalogConfig:
    """A cheap catalogue-scale interaction generator.

    :func:`generate` above simulates *behavioural* structure one event
    at a time — perfect for quality experiments, far too slow for the
    100k+-item catalogues the retrieval benchmarks need.  This config
    drops the latent structure and keeps only the property retrieval
    cares about: a Zipf-popular item marginal over a huge vocabulary.
    Everything is vectorized draws — O(total events), never
    O(users × items).

    Args:
        num_users: sequence count.
        num_items: catalogue size (items are ids ``1..num_items`` in
            :func:`zipf_histories`, ``0..num_items-1`` in the raw log).
        min_length / mean_length / max_length: clipped-lognormal
            sequence-length distribution (same shape as
            :func:`_sample_length`).
        zipf_exponent: popularity decay; ~1.0–1.3 matches real logs.
    """

    num_users: int = 256
    num_items: int = 100_000
    min_length: int = 4
    mean_length: float = 12.0
    max_length: int = 50
    zipf_exponent: float = 1.1

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if self.num_items < 1:
            raise ValueError("num_items must be >= 1")
        if not 0 < self.min_length <= self.mean_length <= self.max_length:
            raise ValueError("lengths must satisfy min <= mean <= max")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")


def _zipf_lengths(
    config: ZipfCatalogConfig, rng: np.random.Generator
) -> np.ndarray:
    lengths = np.round(rng.lognormal(
        _length_mu(config.mean_length), _LENGTH_SIGMA, size=config.num_users
    ))
    return np.clip(
        lengths, config.min_length, config.max_length
    ).astype(np.int64)


def generate_zipf_catalog(
    config: ZipfCatalogConfig, seed: int
) -> InteractionLog:
    """One vectorized pass: Zipf item draws over a huge catalogue.

    Popularity rank is shuffled over ids (the head is not the lowest
    ids), ratings are a constant 5.0 (nothing here exercises the rating
    filter), and timestamps count 0..length-1 per user.
    """
    rng = make_rng(seed)
    lengths = _zipf_lengths(config, rng)
    total = int(lengths.sum())
    ranks = np.arange(1, config.num_items + 1, dtype=np.float64)
    weights = ranks ** (-config.zipf_exponent)
    rng.shuffle(weights)
    weights /= weights.sum()
    items = rng.choice(config.num_items, size=total, p=weights)
    users = np.repeat(np.arange(config.num_users), lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    timestamps = np.arange(total) - starts
    return InteractionLog(
        users=users,
        items=items,
        ratings=np.full(total, 5.0),
        timestamps=timestamps,
    )


# ----------------------------------------------------------------------
# Serving-traffic generator (cluster load harness)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ZipfTrafficConfig:
    """Open-loop request traffic over a huge user population.

    Where :class:`ZipfCatalogConfig` scales the *catalogue*, this scales
    the *audience*: request arrivals are a Poisson process at ``rate``
    req/s, the requesting user is drawn from a Zipf popularity law over
    ``num_users`` (a head of hot users returns constantly, a huge cold
    tail appears once — the regime that makes per-user score caches and
    consistent-hash affinity measurable), and each user's history is
    derived *deterministically from the user id*, so user 123456 has the
    same history every time they appear, across requests and across
    runs.  Only the users who actually show up cost anything: memory and
    time are O(requests), never O(num_users), which is what makes a 1M-
    user population practical.

    Args:
        num_users: user-population size (ids ``0..num_users-1``).
        num_items: catalogue size; history item ids are ``1..num_items``.
        num_requests: arrivals to generate.
        rate: offered load in requests/second (Poisson arrivals).
        user_zipf_exponent: popularity decay over users (~1.0 gives the
            classic hot-head/cold-tail split).
        item_zipf_exponent: popularity decay over items within
            histories.
        min_length / mean_length / max_length: clipped-lognormal
            history-length distribution.
    """

    num_users: int = 1_000_000
    num_items: int = 1_000
    num_requests: int = 10_000
    rate: float = 1_000.0
    user_zipf_exponent: float = 1.0
    item_zipf_exponent: float = 1.1
    min_length: int = 1
    mean_length: float = 8.0
    max_length: int = 50

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if self.num_items < 1:
            raise ValueError("num_items must be >= 1")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.user_zipf_exponent <= 0 or self.item_zipf_exponent <= 0:
            raise ValueError("zipf exponents must be positive")
        if not 0 < self.min_length <= self.mean_length <= self.max_length:
            raise ValueError("lengths must satisfy min <= mean <= max")


def zipf_traffic(config: ZipfTrafficConfig, seed: int):
    """Yield ``(user_id, history, arrival_seconds)`` open-loop arrivals.

    Arrival times are exponential-gap (Poisson) at ``config.rate`` and
    strictly increasing from ~0; users follow the Zipf popularity law
    with popularity rank shuffled over ids; histories are cached per
    user within one generator and re-derived identically across
    generators from ``SeedSequence((seed, user))``.
    """
    rng = make_rng(seed)
    # Who is asking: inverse-CDF over Zipf user popularity, rank
    # shuffled over ids so hot users are spread across the id space
    # (and therefore across consistent-hash shards).
    user_ranks = np.arange(1, config.num_users + 1, dtype=np.float64)
    user_weights = user_ranks ** (-config.user_zipf_exponent)
    user_cum = np.cumsum(user_weights / user_weights.sum())
    user_of_rank = rng.permutation(config.num_users)
    rank_index = np.minimum(
        np.searchsorted(
            user_cum, rng.random(config.num_requests), side="right"
        ),
        config.num_users - 1,
    )
    # When: Poisson arrivals at the target rate.
    arrivals = np.cumsum(
        rng.exponential(1.0 / config.rate, size=config.num_requests)
    )
    # What they watched: per-user deterministic histories.
    item_ranks = np.arange(1, config.num_items + 1, dtype=np.float64)
    item_weights = item_ranks ** (-config.item_zipf_exponent)
    item_cum = np.cumsum(item_weights / item_weights.sum())
    mu = _length_mu(config.mean_length)
    histories: dict[int, np.ndarray] = {}
    for index in range(config.num_requests):
        user = int(user_of_rank[rank_index[index]])
        history = histories.get(user)
        if history is None:
            user_rng = np.random.default_rng(
                np.random.SeedSequence((seed, user))
            )
            length = int(np.clip(
                np.round(user_rng.lognormal(mu, _LENGTH_SIGMA)),
                config.min_length, config.max_length,
            ))
            history = (1 + np.minimum(
                np.searchsorted(
                    item_cum, user_rng.random(length), side="right"
                ),
                config.num_items - 1,
            )).astype(np.int64)
            histories[user] = history
        yield user, history, float(arrivals[index])


def zipf_histories(
    config: ZipfCatalogConfig, seed: int
) -> list[np.ndarray]:
    """Per-user history arrays with ids in ``1..num_items`` — directly
    scoreable against a model built with ``num_items`` items.

    Bypasses :func:`repro.data.prepare_corpus` on purpose: corpus
    preparation re-indexes the vocabulary to the items actually seen,
    which would shrink a 100k catalogue down to the few thousand items a
    few hundred test users touch — defeating the point of a
    catalogue-scale benchmark.
    """
    log = generate_zipf_catalog(config, seed)
    boundaries = np.flatnonzero(np.diff(log.users)) + 1
    return [
        np.asarray(chunk, dtype=np.int64) + 1
        for chunk in np.split(log.items, boundaries)
    ]

