"""Service observability: per-rung counters and latency summaries.

Everything here is plain bookkeeping — mutation happens in
:class:`repro.serve.RecommendService` — exposed as one JSON-friendly
``snapshot()`` so a smoke test (or a real metrics exporter) can assert
that every request is accounted for::

    requests == served + rejected + exhausted + deadline_exceeded
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

__all__ = ["LatencyTracker", "RungStats", "ServiceStats"]


class LatencyTracker:
    """Bounded reservoir of recent latencies with percentile summaries."""

    def __init__(self, capacity: int = 1024):
        self._samples: deque[float] = deque(maxlen=capacity)

    def add(self, seconds: float) -> None:
        self._samples.append(float(seconds))

    def __len__(self) -> int:
        return len(self._samples)

    def merge(self, other: "LatencyTracker") -> None:
        """Pool another tracker's reservoir into this one.

        The capacity grows to hold both windows, so merging N shard
        trackers keeps every shard's retained samples — percentiles over
        the merged reservoir weight each shard by how much traffic it
        actually kept, same as a single-process tracker would have.
        """
        combined = list(self._samples) + list(other._samples)
        capacity = max(
            self._samples.maxlen or 0, other._samples.maxlen or 0,
            len(combined),
        )
        self._samples = deque(combined, maxlen=capacity)

    def summary(self) -> dict:
        """count/mean/p50/p95/p99/max over the retained window, in ms."""
        if not self._samples:
            return {"count": 0}
        values = np.asarray(self._samples, dtype=np.float64) * 1e3
        return {
            "count": len(values),
            "mean_ms": round(float(values.mean()), 3),
            "p50_ms": round(float(np.percentile(values, 50)), 3),
            "p95_ms": round(float(np.percentile(values, 95)), 3),
            "p99_ms": round(float(np.percentile(values, 99)), 3),
            "max_ms": round(float(values.max()), 3),
        }


class RungStats:
    """Counters for one rung of the fallback chain.

    ``attempts`` counts every scoring call (including retries);
    ``failures`` is broken down by cause (``error`` / ``timeout`` /
    ``non_finite``); ``short_circuited`` counts requests the breaker
    refused without calling the model.
    """

    def __init__(self):
        self.attempts = 0
        self.successes = 0
        self.failures: Counter[str] = Counter()
        self.short_circuited = 0
        self.latency = LatencyTracker()

    def merge(self, other: "RungStats") -> None:
        """Fold another process's counters for the same rung into this
        one (sums counters, pools the latency reservoir)."""
        self.attempts += other.attempts
        self.successes += other.successes
        self.failures.update(other.failures)
        self.short_circuited += other.short_circuited
        self.latency.merge(other.latency)

    def snapshot(self) -> dict:
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "failures": dict(self.failures),
            "short_circuited": self.short_circuited,
            "latency": self.latency.summary(),
        }


class ServiceStats:
    """Request-level accounting across the whole service."""

    def __init__(self, rung_names: list[str]):
        self.requests = 0
        self.rejected = 0
        self.exhausted = 0
        self.deadline_exceeded = 0
        self.served: Counter[str] = Counter()
        self.fallbacks = 0
        # Candidate-native accounting: requests ranked straight from a
        # narrow candidate list, vs. requests whose exclusions exhausted
        # the candidates and forced one dense full-width forward.
        self.narrow_ranked = 0
        self.dense_fallbacks = 0
        self.rungs = {name: RungStats() for name in rung_names}

    @property
    def total_served(self) -> int:
        return sum(self.served.values())

    def accounted(self) -> bool:
        """True when every request ended in exactly one outcome bucket."""
        return self.requests == (
            self.total_served
            + self.rejected
            + self.exhausted
            + self.deadline_exceeded
        )

    def merge(self, other: "ServiceStats") -> None:
        """Aggregate another process's stats into this one.

        Counters sum, per-rung stats merge rung-by-rung (rungs the
        other side has and this side doesn't are merged into fresh
        ones, never shared), and latency reservoirs pool — so a
        cluster's merged snapshot satisfies the same :meth:`accounted`
        invariant as a single-process run.
        """
        self.requests += other.requests
        self.rejected += other.rejected
        self.exhausted += other.exhausted
        self.deadline_exceeded += other.deadline_exceeded
        self.served.update(other.served)
        self.fallbacks += other.fallbacks
        self.narrow_ranked += other.narrow_ranked
        self.dense_fallbacks += other.dense_fallbacks
        for name, rstats in other.rungs.items():
            self.rungs.setdefault(name, RungStats()).merge(rstats)

    def snapshot(
        self,
        breakers: dict[str, dict] | None = None,
        engines: dict[str, dict] | None = None,
    ) -> dict:
        """One JSON-friendly dict of everything (breaker states and
        engine cache/batcher stats merged in when the service passes
        them)."""
        rungs = {}
        for name, stats in self.rungs.items():
            entry = stats.snapshot()
            entry["served"] = self.served.get(name, 0)
            if breakers and name in breakers:
                entry["breaker"] = breakers[name]
            if engines and name in engines:
                entry["engine"] = engines[name]
            rungs[name] = entry
        return {
            "requests": self.requests,
            "served": self.total_served,
            "served_by_rung": dict(self.served),
            "rejected": self.rejected,
            "exhausted": self.exhausted,
            "deadline_exceeded": self.deadline_exceeded,
            "fallbacks": self.fallbacks,
            "narrow_ranked": self.narrow_ranked,
            "dense_fallbacks": self.dense_fallbacks,
            "accounted": self.accounted(),
            "rungs": rungs,
        }
