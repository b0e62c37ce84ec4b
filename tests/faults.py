"""Deterministic fault injection for exercising the serving layer.

A :class:`FaultInjector` wraps a seeded RNG and decides, per scoring
call, whether to inject a latency spike, raise an exception, or poison
the returned scores with NaN.  :class:`FaultyRecommender` plugs an
injector around any :class:`repro.models.base.Recommender`, so breaker
trips, fallback hops, retries, and the evaluator's non-finite guard can
all be driven on purpose — and reproducibly, because every decision
comes from the injector's seed.

File-level corruption helpers (:func:`truncate_file`, :func:`flip_byte`)
damage checkpoint archives the way real crashes and bit rot do, for
testing :class:`repro.nn.CheckpointError` paths.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.serve import TransientError

__all__ = [
    "FaultInjector",
    "FaultyRecommender",
    "InjectedFault",
    "flip_byte",
    "truncate_file",
]


class InjectedFault(TransientError):
    """An exception raised on purpose by a :class:`FaultInjector`.

    Subclasses :class:`repro.serve.errors.TransientError` so the
    service's retry path is exercised too.
    """


class FaultInjector:
    """Seeded, per-call fault decisions.

    Args:
        error_rate: probability a call raises :class:`InjectedFault`.
        nan_rate: probability the returned scores are NaN-poisoned.
        latency_rate: probability a latency spike is injected.
        latency: duration of an injected spike, seconds.
        seed: seeds the decision stream (same seed → same faults).
        sleep: how a latency spike is realized; tests inject a fake
            clock's ``advance`` so nothing actually sleeps.

    The injector can be toggled (``disable()`` / ``enable()``) to model
    a fault that clears — e.g. to verify a breaker re-closes.
    """

    def __init__(
        self,
        error_rate: float = 0.0,
        nan_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency: float = 0.05,
        seed: int = 0,
        sleep=time.sleep,
    ):
        for name, rate in (
            ("error_rate", error_rate),
            ("nan_rate", nan_rate),
            ("latency_rate", latency_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.error_rate = error_rate
        self.nan_rate = nan_rate
        self.latency_rate = latency_rate
        self.latency = latency
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep
        self.enabled = True
        self.injected: dict[str, int] = {
            "error": 0, "nan": 0, "latency": 0,
        }

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Clear all faults (the decision stream keeps advancing)."""
        self.enabled = False

    # ------------------------------------------------------------------
    def before_call(self) -> None:
        """Run pre-scoring faults: latency spike, then maybe raise.

        Draws are taken even while disabled so enabling/disabling does
        not shift the decision stream of later calls.
        """
        spike = self._rng.uniform() < self.latency_rate
        fail = self._rng.uniform() < self.error_rate
        if not self.enabled:
            return
        if spike:
            self.injected["latency"] += 1
            self._sleep(self.latency)
        if fail:
            self.injected["error"] += 1
            raise InjectedFault("injected model failure")

    def poison(self, scores: np.ndarray) -> np.ndarray:
        """Maybe replace a slice of ``scores`` with NaN (copy-on-write)."""
        poison = self._rng.uniform() < self.nan_rate
        if not (self.enabled and poison):
            return scores
        self.injected["nan"] += 1
        poisoned = np.array(scores, dtype=np.float64, copy=True)
        # Poison a deterministic-but-scattered subset: every third entry
        # of every row, so both full-row and partial-NaN handling paths
        # are covered.
        poisoned[..., 1::3] = np.nan
        return poisoned


class FaultyRecommender:
    """Wrap any recommender with a :class:`FaultInjector`.

    Implements the scoring half of the
    :class:`repro.models.base.Recommender` protocol; ``fit`` delegates.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector
        self.name = f"faulty({getattr(inner, 'name', type(inner).__name__)})"

    def fit(self, corpus):
        self.inner.fit(corpus)
        return self

    def score(self, history: np.ndarray) -> np.ndarray:
        return self.score_batch([history])[0]

    def score_batch(self, histories: list[np.ndarray]) -> np.ndarray:
        self.injector.before_call()
        scores = self.inner.score_batch(histories)
        return self.injector.poison(scores)

    # ------------------------------------------------------------------
    # Retrieval hooks: faults strike the model forward (hidden_last),
    # exactly where they strike dense scoring, so the two-stage path
    # degrades through the same breaker/retry/non-finite machinery.
    # ------------------------------------------------------------------
    @property
    def supports_retrieval(self) -> bool:
        return bool(getattr(self.inner, "supports_retrieval", False))

    def output_head(self):
        return self.inner.output_head()

    def hidden_last(self, histories) -> np.ndarray:
        self.injector.before_call()
        return self.injector.poison(self.inner.hidden_last(histories))


# ----------------------------------------------------------------------
# Checkpoint corruption helpers
# ----------------------------------------------------------------------

def truncate_file(path: str | Path, keep_fraction: float = 0.5) -> Path:
    """Truncate ``path`` to a fraction of its bytes (a half-written
    file, as left by a crash without atomic replace)."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep_fraction)])
    return path


def flip_byte(path: str | Path, offset: int | None = None,
              seed: int = 0) -> Path:
    """XOR one byte of ``path`` (bit rot / torn write).  With no
    ``offset`` a seeded RNG picks one in the second half of the file,
    where ``.npz`` member payloads live."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path} is empty")
    if offset is None:
        rng = np.random.default_rng(seed)
        offset = int(rng.integers(len(data) // 2, len(data)))
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return path
