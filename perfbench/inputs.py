"""Inputs of the three workloads.

Everything here is a pure function of the seed and the sizes: the same
seed gives the same request streams and window batches (and the
training corpus is one fixed dataset), so a workload's work and its
``quality`` repeat exactly across runs.
"""

from __future__ import annotations

import numpy as np

from repro.data import (
    BEAUTY_LIKE,
    ZipfTrafficConfig,
    generate,
    prepare_corpus,
    split_strong_generalization,
    zipf_traffic,
)
from repro.experiments.datasets import BEAUTY, DatasetSpec, LoadedDataset
from repro.tensor.random import make_rng

#: Users in the serving population; ~40% of requests in a stream come
#: from users seen earlier in the same stream.
POPULATION = 1_000_000
#: Longest history a generated request carries.
MAX_HISTORY = 50

# Sub-streams of one seed: each phase draws its own users and arrivals.
WARMUP, CAPACITY, LATENCY = 1, 2, 3


def substream_seed(seed: int, phase: int) -> int:
    """A stream seed for ``phase`` derived from the workload seed."""
    return int(np.random.SeedSequence([seed, phase]).generate_state(1)[0])


def beauty_dataset(scale: float) -> LoadedDataset:
    """The Beauty-like corpus at ``scale`` times the paper-analogue size,
    preprocessed and split into train / validation / test users.

    Like the paper's Beauty, corpus and split are one fixed dataset (the
    repository's standard generation and split seeds); the workload seed
    varies model initialization, dropout and batch order.  Held-out sets
    scale with the corpus (100 users each at scale 1).
    """
    spec = DatasetSpec(
        key=BEAUTY.key,
        config=BEAUTY_LIKE.scaled(scale),
        max_length=BEAUTY.max_length,
        num_heldout=max(12, int(round(BEAUTY.num_heldout * scale))),
        generation_seed=BEAUTY.generation_seed,
        split_seed=BEAUTY.split_seed,
    )
    corpus = prepare_corpus(generate(spec.config, seed=spec.generation_seed))
    split = split_strong_generalization(
        corpus, spec.num_heldout, rng=make_rng(spec.split_seed)
    )
    return LoadedDataset(spec=spec, corpus=corpus, split=split)


def request_stream(
    seed: int, phase: int, num_items: int, count: int, rate: float
) -> list[tuple[int, np.ndarray, float]]:
    """``count`` Zipf-traffic arrivals ``(user, history, arrival_s)`` at
    ``rate`` req/s over :data:`POPULATION` users."""
    config = ZipfTrafficConfig(
        num_users=POPULATION,
        num_items=num_items,
        num_requests=count,
        rate=rate,
        max_length=MAX_HISTORY,
    )
    return list(zipf_traffic(config, substream_seed(seed, phase)))


def schedule_windows(
    stream, width: float
) -> list[tuple[int, list[int]]]:
    """Group arrivals into fixed schedule windows of ``width`` seconds.

    Returns ``(window, request indices)`` for every non-empty window in
    order; window ``w`` closes at ``(w + 1) * width``.  Batch
    composition is therefore a function of the stream alone, never of
    how fast the program served earlier windows.
    """
    windows: list[tuple[int, list[int]]] = []
    for index, (_, _, arrival) in enumerate(stream):
        window = int(arrival // width)
        if windows and windows[-1][0] == window:
            windows[-1][1].append(index)
        else:
            windows.append((window, [index]))
    return windows


def split_windows(windows, count: int, parts: int):
    """Cut ``windows`` (over a stream of ``count`` requests) into
    ``parts`` contiguous groups of about ``count / parts`` requests."""
    groups = [[] for _ in range(parts)]
    for window in windows:
        groups[window[1][0] * parts // count].append(window)
    return groups
