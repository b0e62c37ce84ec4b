"""Fault-tolerant inference: the serving layer of the reproduction.

Training (``repro.train``) is crash-safe; this package makes *inference*
degrade gracefully instead of falling over.  The pieces:

- :class:`RecommendService` — request validation, per-request deadlines,
  a circuit-breaker-guarded fallback chain (e.g. ``VSAN → SASRec →
  POP``), retry-with-backoff for transient failures, and full request
  accounting via :meth:`RecommendService.stats`.
- :class:`InferenceEngine` — the high-throughput serving front-end:
  guaranteed no-tape forwards, request micro-batching
  (:class:`MicroBatcher`), and an LRU :class:`ScoreCache` keyed on
  (model version, history suffix) with invalidation on hot-swap.
- :class:`ServingCluster` — self-healing shard replica groups (full
  services forked via :class:`repro.pool.ForkedWorkerPool`) behind a
  :class:`ConsistentHashRing` user router, with admission control /
  load shedding, replica failover, supervised respawn with flap
  breaking, heartbeat/stall probing, canary rollout with automatic
  rollback, and merged cross-shard accounting.
- :class:`CircuitBreaker` — closed/open/half-open rung guard.
- :class:`RetryPolicy` — exponential backoff with seeded jitter.
- :func:`safe_load_model` — checkpoint loading that rejects corrupt,
  truncated, or NaN-weight files with
  :class:`repro.nn.CheckpointError`.

The fault harness that drives every failure path on purpose is test
code: ``tests/faults.py`` (seeded latency/exception/NaN injector, file
corruption helpers), ``tests/chaos.py`` (seeded kill/stall schedules
against the cluster) and the end-to-end drills in
``tests/integration/test_serve_drills.py``.

See ``docs/SERVING.md`` for the fault model and ladder semantics.
"""

from ..retrieval import IndexConfig, TopScores
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .cluster import (
    ClusterConfig,
    ConsistentHashRing,
    RolloutReport,
    ServingCluster,
)
from .engine import EngineConfig, InferenceEngine, MicroBatcher, ScoreCache
from .errors import (
    AllRungsFailed,
    CheckpointError,
    ClusterError,
    DeadlineExceeded,
    InvalidRequest,
    ServeError,
    TransientError,
)
from .loading import safe_load_model, validate_finite_state
from .retry import RetryPolicy
from .service import Recommendation, RecommendService, ServiceConfig
from .stats import LatencyTracker, RungStats, ServiceStats

__all__ = [
    "AllRungsFailed",
    "CLOSED",
    "CheckpointError",
    "CircuitBreaker",
    "ClusterConfig",
    "ClusterError",
    "ConsistentHashRing",
    "DeadlineExceeded",
    "EngineConfig",
    "HALF_OPEN",
    "IndexConfig",
    "InferenceEngine",
    "InvalidRequest",
    "LatencyTracker",
    "MicroBatcher",
    "OPEN",
    "Recommendation",
    "RecommendService",
    "RetryPolicy",
    "RolloutReport",
    "ScoreCache",
    "RungStats",
    "ServingCluster",
    "ServeError",
    "ServiceConfig",
    "ServiceStats",
    "TopScores",
    "TransientError",
    "safe_load_model",
    "validate_finite_state",
]
