"""Sharded multi-process serving: the self-healing million-user cluster.

:class:`ServingCluster` runs N shard key-ranges, each served by a
**replica group** of R forked worker processes — every worker a full
:class:`repro.serve.RecommendService` (fallback chain, breakers,
retries, cumulative deadlines, an
:class:`~repro.serve.engine.InferenceEngine` per rung) — behind a
consistent-hash user router in the parent:

- **Sharding** — :class:`ConsistentHashRing` maps each ``user_id`` to one
  shard via a seeded-stable blake2b ring with virtual nodes, so the
  same user always lands on the same shard (cache/affinity) and a dead
  shard's keyspace redistributes evenly over the survivors instead of
  rolling over onto one neighbour.
- **Replica groups** — ``ClusterConfig(replicas_per_shard=R)`` forks R
  workers per shard; batches round-robin across the group.  Serving is
  stateless, so when one replica dies its in-flight and queued work is
  **failed over** (replayed) to a surviving replica — a replicated
  shard loses zero requests to a single SIGKILL, including mid-rollout.
- **Supervised respawn** — worker death is detected by pipe EOF and by
  an active health probe (:meth:`ServingCluster.maintain`): a stalled
  batch or an unanswered heartbeat ping past ``stall_timeout`` gets the
  wedged-but-alive worker killed instead of hanging the router.  Dead
  workers are replaced via :meth:`repro.pool.ForkedWorkerPool.spawn`
  with capped exponential backoff.  The replacement warm-loads the
  committed rollout state (canary models included) and pre-traces the
  shard's hot batch sizes while the router keeps serving; it joins its
  group, and the shard rejoins the ring, once that warm-up answers.
  A crash-looping shard trips a **flap-breaker** after
  ``flap_threshold`` deaths inside ``FLAP_WINDOW`` seconds and degrades
  to shed-at-admission instead of fork-bombing the box.
- **Admission control** — the router tracks per-shard queue depth and
  an EWMA of service time; a request whose predicted wait exceeds the
  deadline budget (times ``SHED_MARGIN``), or that would overflow
  ``max_queue``, is **shed** at the door — a fast typed rejection
  instead of a doomed queue entry.
- **Total loss** — when a whole replica group is gone (and its
  flap-breaker has tripped), in-flight work is counted ``failed``,
  queued work reroutes through the shrunken ring, and an empty ring
  fails requests at admission.  The cluster never hangs:
  :meth:`ServingCluster.drain` guarantees every submitted request
  reaches a terminal state.
- **Canary rollout** — :meth:`ServingCluster.rollout` hot-swaps a new
  model one shard at a time (every replica in the group), probes each
  replica, and rolls every already-swapped shard back on any failure.
  A fully-successful rollout is **committed**: replicas drop their
  rollback stash and respawned workers warm-load the new model.
- **Accounting** — the parent keeps the cluster invariant
  ``submitted == completed + shed + failed (+ in-flight)`` while each
  shard keeps the single-process invariant; :meth:`ServingCluster.stats`
  merges the worker ``ServiceStats`` (:meth:`ServiceStats.merge`) so the
  fleet-wide snapshot satisfies ``accounted()`` exactly like one
  process would.  Deadline SLO attainment (fraction of submissions
  completing inside ``deadline``) is tracked alongside.

The cluster has no load driver and no fault hooks: the open-loop driver
and seeded chaos harness are test code (``tests/chaos.py``), which pace
traffic through :meth:`ServingCluster.submit` and kill or ``SIGSTOP``
workers through :attr:`ServingCluster.pool`.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mpc

from ..pool import ForkedWorkerPool, WorkerError
from .errors import ClusterError, ServeError
from .stats import LatencyTracker, ServiceStats

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ConsistentHashRing",
    "RolloutReport",
    "ServingCluster",
]


class ConsistentHashRing:
    """Stable consistent hashing with virtual nodes.

    Points come from blake2b (not Python's salted ``hash()``), so the
    user → shard mapping is identical across processes and runs.  Each
    node owns ``replicas`` points on the ring; removing a node hands
    its arcs to the *next* points clockwise, which — with enough
    virtual nodes — spreads the orphaned keyspace over all survivors
    roughly evenly.  Because points are a pure function of the node
    name, a removed node that is later re-added reclaims **exactly**
    the arcs it owned before — rejoin churn is bounded to the keys the
    node originally served.
    """

    def __init__(self, nodes=(), replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self.nodes: set = set()
        self._points: list[int] = []
        self._owners: list = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def add(self, node) -> None:
        if node in self.nodes:
            return
        self.nodes.add(node)
        for replica in range(self.replicas):
            point = self._hash(f"{node}#{replica}")
            index = bisect_right(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node) -> None:
        if node not in self.nodes:
            return
        self.nodes.discard(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def lookup(self, key):
        """The node owning ``key`` (``None`` on an empty ring)."""
        if not self._points:
            return None
        point = self._hash(str(key))
        index = bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def __len__(self) -> int:
        return len(self.nodes)


#: Shed when ``predicted_wait > SHED_MARGIN * deadline``.
SHED_MARGIN = 1.0
#: Smoothing of the per-shard service-time EWMA behind predicted-wait
#: shedding.
EWMA_ALPHA = 0.2
#: Cap, in seconds, on the exponential respawn backoff.
RESPAWN_BACKOFF_MAX = 2.0
#: Seconds over which worker deaths on one shard count against
#: ``ClusterConfig.flap_threshold``.
FLAP_WINDOW = 30.0


@dataclass
class ClusterConfig:
    """Router and supervisor policy knobs.

    Worker deaths are always supervised: a dead replica is re-forked
    (warm-loading committed rollout state and rejoining the ring) until
    the shard's flap-breaker trips.  ``flap_threshold=1`` trips it on
    the first death, so a killed group stays dead — what a
    degradation test wants.

    Args:
        num_shards: shard key-ranges on the ring.
        max_queue: hard cap on per-shard outstanding requests (queued +
            in flight across the replica group); submissions beyond it
            are shed.
        deadline: the per-request budget the *router* sheds against and
            scores SLO attainment with (``None`` disables both; the
            shards' own ``ServiceConfig.deadline`` still applies
            in-service).
        batch_size: requests coalesced into one pipe message per shard
            (shard-side micro-batching then applies within the
            service's engines).
        worker_timeout: seconds a control message may wait on a worker
            before the worker is declared hung.
        replicas_per_shard: worker processes per shard key-range.  With
            R >= 2 a single worker death fails over in-flight work to a
            surviving replica instead of failing it.
        respawn_backoff: base seconds before a replacement fork; doubles
            per recent death on the shard (capped at
            :data:`RESPAWN_BACKOFF_MAX`).
        flap_threshold: deaths within :data:`FLAP_WINDOW` that trip the
            flap-breaker: the shard stops respawning and degrades to
            shed/fail-at-admission instead of fork-bombing.
        stall_timeout: enables active health probing when set — a
            worker whose oldest outstanding batch (or heartbeat ping)
            is older than this many seconds is declared wedged and
            killed.  ``None`` (default) keeps probing off.
        heartbeat_interval: idle seconds before an idle worker is sent
            a heartbeat ping (only with ``stall_timeout`` set).
    """

    num_shards: int = 2
    max_queue: int = 64
    deadline: float | None = None
    batch_size: int = 32
    worker_timeout: float = 30.0
    replicas_per_shard: int = 1
    respawn_backoff: float = 0.05
    flap_threshold: int = 5
    stall_timeout: float | None = None
    heartbeat_interval: float = 1.0

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if self.replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        if self.respawn_backoff <= 0:
            raise ValueError("respawn_backoff must be positive")
        if self.respawn_backoff > RESPAWN_BACKOFF_MAX:
            raise ValueError(
                f"respawn_backoff must be <= {RESPAWN_BACKOFF_MAX}"
            )
        if self.flap_threshold < 1:
            raise ValueError("flap_threshold must be >= 1")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive (or None)")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")


@dataclass
class RolloutReport:
    """Outcome of one canary rollout."""

    ok: bool
    rung: str
    swapped: list = field(default_factory=list)
    rolled_back: bool = False
    failed_shard: int | None = None
    reason: str | None = None


def _serve_batch(service, entries):
    """Run one coalesced batch through the shard's service."""
    replies = []
    histories = [history for _, history in entries]
    results = service.recommend_many(histories)
    for (request_id, _), outcome in zip(entries, results):
        if isinstance(outcome, ServeError):
            replies.append((
                request_id, False,
                (type(outcome).__name__, str(outcome)),
            ))
        else:
            replies.append((
                request_id, True,
                (outcome.items, outcome.rung, outcome.latency,
                 outcome.degraded, outcome.fallbacks),
            ))
    return replies


def _shard_loop(index, conn, service_factory, registry) -> None:
    """Body of one shard worker (runs in the forked child).

    The service — and every rung model it wraps — is built/inherited
    *inside* the child, so workers are fully independent replicas.
    ``stash`` keeps each rung's pre-canary model so a ``rollback``
    message can restore it without shipping models back over the pipe;
    ``commit`` drops the stash once a rollout has fully succeeded, so a
    later rollback never resurrects a model from *before* an already
    accepted rollout.  ``ping`` answers the supervisor's liveness
    probe.
    """
    try:
        service = service_factory()
        stash: dict = {}
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "batch":
                conn.send(
                    ("results", _serve_batch(service, message[1]))
                )
            elif kind == "probe":
                conn.send(
                    ("probed", _serve_batch(service, message[1]))
                )
            elif kind == "ping":
                conn.send(("pong", message[1]))
            elif kind == "stats":
                conn.send(("stats", service.raw_stats(), service.stats()))
            elif kind == "describe":
                conn.send(("described", service.describe_rungs()))
            elif kind == "swap":
                _, rung, payload = message
                try:
                    previous = service.current_model(rung)
                    if isinstance(payload, (str, os.PathLike)):
                        service.reload_rung(rung, payload, registry or {})
                    else:
                        service.swap_model(rung, payload)
                    # Keep the *oldest* uncommitted model: two swaps
                    # without a commit/rollback still roll back to the
                    # model that predates the whole rollout.
                    stash.setdefault(rung, previous)
                    conn.send(("swapped", service.describe_rungs()[rung]))
                except Exception as error:  # noqa: BLE001 — report, don't die
                    conn.send((
                        "swap_failed",
                        f"{type(error).__name__}: {error}",
                    ))
            elif kind == "warm":
                # Pre-trace compiled scoring programs for the router's
                # hot batch sizes before this replica takes traffic.
                conn.send(("warmed", service.warm_programs(message[1])))
            elif kind == "rollback":
                for rung, model in stash.items():
                    service.swap_model(rung, model)
                stash.clear()
                conn.send(("rolled_back", service.describe_rungs()))
            elif kind == "commit":
                stash.clear()
                conn.send(("committed",))
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {kind!r}")
    except (EOFError, KeyboardInterrupt):  # parent went away
        return
    except Exception:  # surface the traceback in the parent
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass


class _Inflight:
    __slots__ = ("user", "history", "submitted")

    def __init__(self, user, history, submitted: float):
        self.user = user
        self.history = history
        self.submitted = submitted


class ServingCluster:
    """N shard replica groups behind a consistent-hash router.

    Args:
        service_factory: zero-argument callable building one
            :class:`~repro.serve.RecommendService`; called *inside*
            each forked worker, so models built before construction are
            inherited copy-on-write (never pickled).
        config: :class:`ClusterConfig` router/supervisor policy.
        registry: ``{class_name: class}`` map for checkpoint-path
            rollouts (forwarded to ``reload_rung``).
        clock: injectable wall clock (latency accounting).

    Data plane: :meth:`submit` routes/sheds/queues one request,
    :meth:`pump` drains ready replies (and runs one supervisor tick),
    :meth:`drain` settles everything outstanding.  Control plane:
    :meth:`stats`, :meth:`rollout`, :meth:`maintain`, :meth:`close`.
    """

    def __init__(
        self,
        service_factory,
        config: ClusterConfig | None = None,
        registry: dict | None = None,
        clock=time.monotonic,
    ):
        self.config = config or ClusterConfig()
        self._clock = clock
        self._factory = service_factory
        self._registry = registry
        self.pool = ForkedWorkerPool(role="shard worker")
        shard_ids = list(range(self.config.num_shards))
        # Worker-level books, keyed by pool index (stable across the
        # process lifetime; respawned replacements get fresh indices).
        self._worker_shard: dict[int, int] = {}
        self._inflight: dict[int, dict] = {}
        self._dispatches: dict[int, deque] = {}
        self._last_contact: dict[int, float] = {}
        self._ping_at: dict[int, float | None] = {}
        self._live_workers: set[int] = set()
        # Respawned workers still warming up; they take no traffic
        # until their ``warmed`` reply arrives.
        self._warming: set[int] = set()
        # Shard-level books.
        self._groups: dict[int, list[int]] = {s: [] for s in shard_ids}
        self._pending: dict[int, list] = {s: [] for s in shard_ids}
        self._ewma: dict[int, float | None] = {s: None for s in shard_ids}
        self._rr: dict[int, int] = {s: 0 for s in shard_ids}
        self._deaths: dict[int, list[float]] = {s: [] for s in shard_ids}
        self._respawn_at: dict[int, float | None] = {
            s: None for s in shard_ids
        }
        self._flapped: set[int] = set()
        # Committed rollout payloads per shard, replayed into respawned
        # workers so replacements serve the same model versions as
        # their peers (the pipe pickles these exactly like a swap).
        self._swaps: dict[int, dict] = {s: {} for s in shard_ids}
        # Flush-size histogram per shard: the router's view of which
        # shape buckets are hot, replayed into respawned workers so
        # they pre-trace those compiled programs before taking traffic.
        self._hot_batches: dict[int, dict[int, int]] = {
            s: {} for s in shard_ids
        }
        for shard in shard_ids:
            for _ in range(self.config.replicas_per_shard):
                self._groups[shard].append(self._spawn_worker(shard))
        self.ring = ConsistentHashRing(shard_ids)
        self._next_id = 0
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.slo_met = 0
        self.respawns = 0
        self.events: list[dict] = []
        self.latency = LatencyTracker(capacity=65536)
        self.records: list[tuple] = []
        self.keep_records = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Tear the worker pool down (signal-all, shared join deadline)."""
        self.pool.stop()
        self._live_workers.clear()
        self._warming.clear()
        for group in self._groups.values():
            group.clear()

    def _spawn_worker(self, shard: int) -> int:
        worker = self.pool.spawn(_shard_loop, self._factory, self._registry)
        self._worker_shard[worker] = shard
        self._inflight[worker] = {}
        self._dispatches[worker] = deque()
        self._last_contact[worker] = self._clock()
        self._ping_at[worker] = None
        self._live_workers.add(worker)
        return worker

    @property
    def live_shards(self) -> list[int]:
        """Shards with at least one live replica."""
        return sorted(s for s, group in self._groups.items() if group)

    @property
    def live_workers(self) -> list[int]:
        return sorted(self._live_workers)

    def replicas(self, shard: int) -> tuple[int, ...]:
        """Pool indices of the live replica group of ``shard``."""
        return tuple(self._groups[shard])

    def full_capacity(self) -> bool:
        """Every shard has a full replica group and owns ring arcs —
        the recovery target the chaos harness waits for."""
        return all(
            len(self._groups[shard]) >= self.config.replicas_per_shard
            and shard in self.ring.nodes
            for shard in range(self.config.num_shards)
        )

    @property
    def inflight(self) -> int:
        return sum(
            len(entries) for entries in self._inflight.values()
        ) + sum(len(entries) for entries in self._pending.values())

    def accounted(self) -> bool:
        """The cluster-level invariant: every submission is completed,
        shed, failed, or still in flight."""
        return self.submitted == (
            self.completed + self.shed + self.failed + self.inflight
        )

    def slo_attainment(self) -> float | None:
        """Fraction of terminal requests that completed inside the
        router deadline (``None`` without a deadline or traffic)."""
        if self.config.deadline is None:
            return None
        terminal = self.completed + self.shed + self.failed
        if terminal == 0:
            return None
        return self.slo_met / terminal

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def submit(self, user, history) -> str:
        """Route one request; returns ``"queued"`` or ``"shed"``
        (``"failed"`` when no shard is live).

        Shedding happens *here*, at admission: a request that would
        overflow the shard's queue, or whose predicted wait
        (queue depth × EWMA service time, spread over the replica
        group) already exceeds the deadline budget, is refused
        immediately instead of queued to die.  A flapped (crash-loop)
        shard has left the ring, so its keyspace degrades to the
        survivors — or to fast admission failures once no shard is
        left — rather than hanging.
        """
        self.submitted += 1
        shard = self.ring.lookup(user)
        if shard is None:
            self.failed += 1
            self._record(None, user, "failed", None, None)
            return "failed"
        group = self._groups[shard]
        depth = len(self._pending[shard]) + sum(
            len(self._inflight[worker]) for worker in group
        )
        config = self.config
        if depth >= config.max_queue:
            self.shed += 1
            self._record(shard, user, "shed", None, None)
            return "shed"
        ewma = self._ewma[shard]
        if (
            config.deadline is not None
            and ewma is not None
            and (depth + 1) * ewma / max(len(group), 1)
            > SHED_MARGIN * config.deadline
        ):
            self.shed += 1
            self._record(shard, user, "shed", None, None)
            return "shed"
        request_id = self._next_id
        self._next_id += 1
        # ``None`` start time = not yet dispatched; failover replays
        # keep the original dispatch time so latency stays honest.
        self._pending[shard].append((request_id, user, history, None))
        if len(self._pending[shard]) >= config.batch_size:
            self._flush_shard(shard)
        return "queued"

    def flush(self) -> None:
        """Send every queued request to its shard's replica group."""
        for shard, pending in self._pending.items():
            if pending and self._groups[shard]:
                self._flush_shard(shard)

    def pump(self, timeout: float = 0.0) -> int:
        """Run one supervisor tick, then drain ready worker replies;
        returns completions processed."""
        before = self.completed + self.failed
        self.maintain()
        for worker in self._wait_ready(timeout):
            self._read_worker(worker)
        return (self.completed + self.failed) - before

    def drain(self, timeout: float = 30.0) -> None:
        """Flush and settle every outstanding request.

        A worker that stops answering within ``timeout`` is killed and
        declared dead; whatever still isn't terminal after that
        escalation is force-failed — ``drain`` returns with **every**
        submitted request terminal, even after a total cluster death.
        """
        self.flush()
        deadline = self._clock() + timeout
        while self.inflight and self._clock() < deadline:
            self.flush()
            self.pump(timeout=0.05)
        if self.inflight:
            # Escalation: kill whatever still holds in-flight work.
            for worker in sorted(self._live_workers):
                if self._inflight.get(worker):
                    self.pool.kill(worker)
                    self._reap(worker, cause="drain timeout")
            self.flush()
            self.pump(timeout=0.1)
        if self.inflight:
            # Belt-and-braces: force-fail anything left (e.g. queued
            # work on a shard whose whole group died after flapping).
            for shard, pending in self._pending.items():
                if not pending:
                    continue
                self._pending[shard] = []
                for _, user, _, _ in pending:
                    self.failed += 1
                    self._record(shard, user, "failed", None, None)
            for worker in sorted(self._live_workers):
                entries = self._inflight.get(worker)
                if not entries:
                    continue
                self._inflight[worker] = {}
                self._dispatches[worker].clear()
                shard = self._worker_shard[worker]
                for entry in entries.values():
                    self.failed += 1
                    self._record(shard, entry.user, "failed", None, None)

    def _flush_shard(self, shard: int) -> None:
        batch = self._pending[shard]
        group = self._groups[shard]
        if not batch or not group:
            return
        self._pending[shard] = []
        hot = self._hot_batches[shard]
        hot[len(batch)] = hot.get(len(batch), 0) + 1
        if len(hot) > 8:
            # Keep the histogram tiny: drop the coldest size.
            del hot[min(hot, key=hot.get)]
        worker = group[self._rr[shard] % len(group)]
        self._rr[shard] += 1
        now = self._clock()
        entries = [(rid, history) for rid, _, history, _ in batch]
        for rid, user, history, started in batch:
            self._inflight[worker][rid] = _Inflight(
                user, history, now if started is None else started
            )
        try:
            self.pool.send(worker, ("batch", entries))
            self._dispatches[worker].append(now)
        except WorkerError:
            self._worker_died(worker, cause="send failed")

    def _wait_ready(self, timeout: float) -> list[int]:
        by_conn = {
            self.pool.connections[worker]: worker
            for worker in sorted(self._live_workers)
        }
        if not by_conn:
            return []
        ready = _mpc.wait(list(by_conn), timeout=timeout)
        return [by_conn[conn] for conn in ready]

    def _read_worker(self, worker: int) -> None:
        try:
            message = self.pool.connections[worker].recv()
        except (EOFError, OSError):
            # recv hit EOF, so the pipe buffer is already empty: no
            # buffered results to salvage before declaring death.
            self._worker_died(worker, cause="pipe EOF")
            return
        self._on_message(worker, message)

    def _on_message(self, worker: int, message) -> None:
        kind = message[0]
        self._last_contact[worker] = self._clock()
        if kind == "results":
            dispatches = self._dispatches.get(worker)
            if dispatches:
                dispatches.popleft()
            self._absorb_results(worker, message[1])
        elif kind == "pong":
            self._ping_at[worker] = None
        elif kind == "warmed" and worker in self._warming:
            # A replacement finished warming: it takes traffic from now.
            self._warming.discard(worker)
            shard = self._worker_shard[worker]
            self._groups[shard].append(worker)
            self.respawns += 1
            self._event(
                "respawned", shard, worker=worker, warmed_programs=message[1]
            )
            if shard not in self.ring.nodes:
                self.ring.add(shard)
                self._event("rejoined", shard)
        elif kind == "swap_failed" and worker in self._warming:
            self.pool.kill(worker)
            self._worker_died(worker, cause="warm-load failed")
        elif kind == "error":
            # The worker's loop itself broke: nothing more will come.
            self.pool.kill(worker)
            self._worker_died(worker, cause="raised")
            raise WorkerError(
                f"shard worker {worker} raised:\n{message[1]}"
            )
        elif kind in (
            "swapped", "swap_failed", "rolled_back", "committed",
            "probed", "stats", "described", "warmed",
        ):
            # A control reply outliving its timed-out control call —
            # drop it rather than wedge the data plane.
            pass
        else:  # pragma: no cover - protocol guard
            raise WorkerError(
                f"shard worker {worker} sent unexpected {kind!r}"
            )

    def _absorb_results(self, worker: int, replies) -> None:
        now = self._clock()
        config = self.config
        shard = self._worker_shard[worker]
        for request_id, ok, payload in replies:
            entry = self._inflight[worker].pop(request_id, None)
            if entry is None:
                # Late reply for a request already failed over or
                # force-failed — the replay owns its accounting now.
                continue
            self.completed += 1
            round_trip = now - entry.submitted
            self.latency.add(round_trip)
            if ok:
                if (
                    config.deadline is not None
                    and round_trip <= config.deadline
                ):
                    self.slo_met += 1
                # EWMA on the *service-side* latency (payload[2]):
                # round-trip includes queueing, which would feed back
                # into the shed predictor and over-shed.
                service_time = payload[2]
                previous = self._ewma[shard]
                self._ewma[shard] = service_time if previous is None else (
                    (1.0 - EWMA_ALPHA) * previous
                    + EWMA_ALPHA * service_time
                )
                self._record(
                    shard, entry.user, "ok", payload[1], round_trip
                )
            else:
                self._record(
                    shard, entry.user, f"error:{payload[0]}", None,
                    round_trip,
                )

    def _record(self, shard, user, status, rung, latency) -> None:
        if self.keep_records:
            self.records.append((shard, user, status, rung, latency))

    # ------------------------------------------------------------------
    # Supervisor: death, failover, respawn, health probing
    # ------------------------------------------------------------------
    def _worker_died(self, worker: int, cause: str) -> None:
        """Bookkeep one worker death.

        With surviving replicas, the dead worker's in-flight requests
        are **failed over**: re-queued at the front of the shard's
        pending list (original dispatch times preserved) and
        immediately re-dispatched — serving is stateless, so the replay
        is safe and the requests are never counted failed.  When the
        death empties the replica group, in-flight work is failed, the
        shard leaves the ring, queued work reroutes, and — unless the
        flap-breaker trips — a replacement fork is scheduled with
        backoff.
        """
        if worker not in self._live_workers:
            return
        self._live_workers.discard(worker)
        self._warming.discard(worker)
        shard = self._worker_shard[worker]
        group = self._groups[shard]
        if worker in group:
            group.remove(worker)
        self.pool.retire(worker)
        now = self._clock()
        self._event("worker_died", shard, worker=worker, cause=cause)
        entries = self._inflight[worker]
        self._inflight[worker] = {}
        self._dispatches[worker].clear()
        self._ping_at[worker] = None
        if group:
            replay = [
                (rid, entry.user, entry.history, entry.submitted)
                for rid, entry in sorted(entries.items())
            ]
            if replay:
                self._pending[shard][:0] = replay
                self._event(
                    "failover", shard, worker=worker,
                    requests=len(replay),
                )
            self._flush_shard(shard)
        else:
            for entry in entries.values():
                self.failed += 1
                self._record(shard, entry.user, "failed", None, None)
            self.ring.remove(shard)
            self._event("blackout", shard, failed=len(entries))
            # Unsent work never left the router: reroute via the new
            # ring (the dead shard's list is detached first, so a
            # cascade of further deaths during rerouting still
            # terminates with every request terminal).
            orphans = self._pending[shard]
            self._pending[shard] = []
            for _, user, history, _ in orphans:
                self.submitted -= 1  # re-submission recounts it
                self.submit(user, history)
        deaths = self._deaths[shard]
        deaths.append(now)
        cutoff = now - FLAP_WINDOW
        while deaths and deaths[0] < cutoff:
            deaths.pop(0)
        if shard in self._flapped:
            return
        if len(deaths) >= self.config.flap_threshold:
            self._flapped.add(shard)
            self._respawn_at[shard] = None
            self._event("flap_tripped", shard, deaths=len(deaths))
            return
        backoff = min(
            self.config.respawn_backoff * (2 ** (len(deaths) - 1)),
            RESPAWN_BACKOFF_MAX,
        )
        self._respawn_at[shard] = now + backoff

    def _reap(self, worker: int, cause: str) -> None:
        """Declare one worker dead, first draining any replies it
        managed to write before dying (SIGKILL leaves written pipe data
        readable), so completed work is not miscounted as failed."""
        connection = self.pool.connections[worker]
        try:
            while connection.poll(0):
                self._on_message(worker, connection.recv())
        except (EOFError, OSError):
            pass
        self._worker_died(worker, cause)

    def maintain(self) -> None:
        """One supervisor tick: reap exited workers, probe for stalls,
        fork due respawns.  Runs inside every :meth:`pump`; loops that
        wait out of band (pacing, chaos recovery) call it directly."""
        now = self._clock()
        config = self.config
        for worker in sorted(self._live_workers):
            if worker not in self._live_workers:
                continue  # died during this very tick
            if not self.pool.alive(worker):
                self._reap(worker, cause="exit")
                continue
            if config.stall_timeout is None:
                continue
            dispatches = self._dispatches[worker]
            if dispatches and now - dispatches[0] > config.stall_timeout:
                # Wedged mid-batch: without this probe the batch would
                # hang until its caller's timeout.  Kill → failover.
                self.pool.kill(worker)
                self._reap(worker, cause="stalled batch")
                continue
            ping_sent = self._ping_at[worker]
            if ping_sent is not None:
                if now - ping_sent > config.stall_timeout:
                    self.pool.kill(worker)
                    self._reap(worker, cause="unanswered ping")
                continue
            if (
                not dispatches
                and now - self._last_contact[worker]
                > config.heartbeat_interval
            ):
                try:
                    self.pool.send(worker, ("ping", now))
                    self._ping_at[worker] = now
                except WorkerError:
                    self._worker_died(worker, cause="send failed")
        for shard, due in list(self._respawn_at.items()):
            if due is not None and now >= due:
                self._respawn_replica(shard)

    def _respawn_replica(self, shard: int) -> None:
        """Fork one replacement worker for ``shard`` and queue its
        warm-up without waiting for it: the committed rollout state,
        then the shard's hot flush sizes, whose compiled scoring
        programs it pre-traces.  The router keeps serving meanwhile;
        the worker joins its group, and the shard the ring, when its
        ``warmed`` reply arrives (:meth:`_on_message`)."""
        self._respawn_at[shard] = None
        if shard in self._flapped:
            return
        replicas = len(self._groups[shard]) + sum(
            self._worker_shard[worker] == shard for worker in self._warming
        )
        if replicas >= self.config.replicas_per_shard:
            return
        worker = self._spawn_worker(shard)
        self._warming.add(worker)
        # The commit empties the stash of factory models the swaps
        # fill, so a later rollback stops at the warm-loaded state, as
        # on the worker's peers.
        messages = [
            ("swap", rung, payload)
            for rung, payload in self._swaps[shard].items()
        ] + [("commit",), ("warm", sorted(self._hot_batches[shard]))]
        try:
            for message in messages:
                self.pool.send(worker, message)
        except WorkerError:
            self._worker_died(worker, cause="send failed")
            return
        if replicas + 1 < self.config.replicas_per_shard:
            self._respawn_at[shard] = (
                self._clock() + self.config.respawn_backoff
            )

    def _event(self, kind: str, shard: int | None, **details) -> None:
        event = {"t": self._clock(), "kind": kind, "shard": shard}
        event.update(details)
        self.events.append(event)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _control_worker(self, worker: int, message, expected: tuple):
        """Send a control message and wait for its reply, absorbing any
        interleaved data-plane traffic (pipes are FIFO)."""
        try:
            self.pool.send(worker, message)
        except WorkerError:
            self._worker_died(worker, cause="send failed")
            raise ClusterError(
                f"shard worker {worker} died before {message[0]!r}"
            ) from None
        deadline = self._clock() + self.config.worker_timeout
        connection = self.pool.connections[worker]
        while self._clock() < deadline:
            if not connection.poll(0.05):
                if not self.pool.alive(worker):
                    self._reap(worker, cause="died during control")
                    raise ClusterError(
                        f"shard worker {worker} died during "
                        f"{message[0]!r}"
                    )
                continue
            try:
                reply = connection.recv()
            except (EOFError, OSError):
                self._worker_died(worker, cause="pipe EOF")
                raise ClusterError(
                    f"shard worker {worker} died during {message[0]!r}"
                ) from None
            if reply[0] in expected:
                self._last_contact[worker] = self._clock()
                return reply
            self._on_message(worker, reply)
        raise ClusterError(
            f"shard worker {worker} sent no {expected} reply within "
            f"{self.config.worker_timeout:.0f}s"
        )

    def _control_shard(self, shard: int, message, expected: tuple):
        """Control round-trip against the shard's first live replica,
        failing over to the next group member when the leader turns out
        to be dead (a SIGKILL the router has not observed yet)."""
        while True:
            group = self._groups[shard]
            if not group:
                raise ClusterError(f"shard {shard} has no live replica")
            leader = group[0]
            try:
                return self._control_worker(leader, message, expected)
            except ClusterError:
                # _control_worker already ran the death bookkeeping; if
                # the group lost its leader but survives, retry on the
                # next replica — otherwise the shard really is down.
                if leader in self._groups[shard] or not self._groups[shard]:
                    raise

    def describe(self) -> dict[int, dict]:
        """Per-shard, per-rung model identity (class name + version),
        read from the group's first replica —
        replicas are kept in lockstep by rollout/commit/warm-load."""
        return {
            shard: self._control_shard(shard, ("describe",), ("described",))[1]
            for shard in self.live_shards
        }

    def _gather_stats(self) -> dict[int, ServiceStats]:
        """Each live shard's worker ``ServiceStats``, merged over its
        replicas (one ``("stats",)`` round trip per live worker)."""
        per_shard = {}
        for shard in self.live_shards:
            merged = ServiceStats([])
            for worker in list(self._groups[shard]):
                try:
                    reply = self._control_worker(
                        worker, ("stats",), ("stats",)
                    )
                except ClusterError:
                    continue  # its books died with it
                merged.merge(reply[1])
            per_shard[shard] = merged
        return per_shard

    def stats(self) -> dict:
        """Cluster-wide snapshot: router accounting plus the merged
        worker ``ServiceStats`` (which must satisfy the same
        ``accounted()`` invariant as a single process would)."""
        per_shard = self._gather_stats()
        merged = ServiceStats([])
        for shard_stats in per_shard.values():
            merged.merge(shard_stats)
        return {
            "cluster": {
                "submitted": self.submitted,
                "completed": self.completed,
                "shed": self.shed,
                "failed": self.failed,
                "inflight": self.inflight,
                "accounted": self.accounted(),
                "slo_attainment": self.slo_attainment(),
                "live_shards": self.live_shards,
                "replicas": {
                    shard: len(self.replicas(shard))
                    for shard in range(self.config.num_shards)
                },
                "respawns": self.respawns,
                "flapped_shards": sorted(self._flapped),
                "full_capacity": self.full_capacity(),
                "latency": self.latency.summary(),
                # Fleet-wide health of the candidate-native path: how
                # much served traffic ranked straight from narrow
                # candidate lists vs. paid a dense full-width fallback.
                # A sinking ratio means exclusion lists are outgrowing
                # the candidate budget somewhere in the fleet.
                "narrow_ranked": merged.narrow_ranked,
                "dense_fallbacks": merged.dense_fallbacks,
                "narrow_ratio": (
                    round(merged.narrow_ranked / merged.total_served, 4)
                    if merged.total_served else None
                ),
            },
            "service": merged.snapshot(),
            "per_shard": {
                shard: shard_stats.snapshot()
                for shard, shard_stats in per_shard.items()
            },
        }

    def merged_service_stats(self) -> ServiceStats:
        """The raw merged :class:`ServiceStats` across live workers."""
        merged = ServiceStats([])
        for shard_stats in self._gather_stats().values():
            merged.merge(shard_stats)
        return merged

    # ------------------------------------------------------------------
    # Canary rollout
    # ------------------------------------------------------------------
    def rollout(
        self,
        rung: str,
        model_or_path,
        probe_histories,
        probes_per_shard: int = 8,
    ) -> RolloutReport:
        """Rolling canary hot-swap of ``rung`` across all live shards.

        One shard at a time: swap every replica in the group (object or
        checkpoint path — the engine's ``set_model`` version bump
        invalidates that worker's score cache), then replay
        ``probes_per_shard`` probe requests at each replica.  The shard
        is healthy only if **every** probe is served *by the swapped
        rung* (no degraded fallbacks) and no replica's breaker records
        new trips.  Any unhealthy shard aborts the rollout and rolls
        every already-swapped shard back to its pre-canary model, in
        reverse order.  A fully-successful rollout is **committed**:
        replicas drop their rollback stash, and the payload is recorded
        so respawned workers warm-load it — a replica that dies and
        respawns mid-canary-lifetime serves the same model as its
        peers.  Probe traffic is accounted worker-side like any other
        traffic but does not touch the router's counters.
        """
        probe_histories = list(probe_histories)
        if not probe_histories:
            raise ValueError("rollout needs at least one probe history")
        # A replacement still warming up would join with the old model:
        # a ping queued behind its warm-up lets it join first.
        self._tell(self._warming, ("ping", 0.0), ("pong",))
        report = RolloutReport(ok=True, rung=rung)
        for shard in self.live_shards:
            report.swapped.append(shard)
            reason = None
            for worker in list(self._groups[shard]):
                reply = self._control_worker(
                    worker, ("swap", rung, model_or_path),
                    ("swapped", "swap_failed"),
                )
                if reply[0] == "swap_failed":
                    reason = f"swap failed: {reply[1]}"
                    break
            for worker in list(self._groups[shard]):
                reason = reason or self._probe_worker(
                    worker, shard, rung, probe_histories, probes_per_shard
                )
            if reason:
                report.ok = False
                report.failed_shard = shard
                report.reason = reason
                break
        if not report.ok:
            for shard in reversed(report.swapped):
                self._tell(self._groups[shard], ("rollback",),
                           ("rolled_back",))
            report.rolled_back = True
        else:
            for shard in self.live_shards:
                self._tell(self._groups[shard], ("commit",), ("committed",))
            # Recorded for *every* shard — a shard that is down right
            # now warm-loads the committed model when it respawns.
            for shard in range(self.config.num_shards):
                self._swaps[shard][rung] = model_or_path
        return report

    def _tell(self, workers, message, expected: tuple) -> None:
        """One control round trip with each of ``workers``, skipping any
        that die on the way."""
        for worker in list(workers):
            try:
                self._control_worker(worker, message, expected)
            except ClusterError:
                continue

    def _probe_worker(
        self, worker: int, shard: int, rung: str, probe_histories,
        probes: int,
    ) -> str | None:
        """Why probing ``worker`` found the canary unhealthy, or
        ``None`` when every probe was served by ``rung`` without a new
        breaker trip."""
        before = self._control_worker(worker, ("stats",), ("stats",))[2]
        trips_before = self._breaker_trips(before, rung)
        entries = [
            (index, probe_histories[index % len(probe_histories)])
            for index in range(probes)
        ]
        reply = self._control_worker(
            worker, ("probe", entries), ("probed",)
        )
        for _, ok, payload in reply[1]:
            if not ok:
                return (
                    f"probe failed on shard {shard}: "
                    f"{payload[0]}: {payload[1]}"
                )
            if payload[1] != rung:
                return (
                    f"probe degraded past the canary on shard {shard}: "
                    f"served by {payload[1]!r}, expected {rung!r}"
                )
        after = self._control_worker(worker, ("stats",), ("stats",))[2]
        trips_after = self._breaker_trips(after, rung)
        if trips_after > trips_before:
            return (
                f"breaker tripped on shard {shard} during probes "
                f"({trips_after - trips_before} new trips)"
            )
        return None

    @staticmethod
    def _breaker_trips(snapshot: dict, rung: str) -> int:
        breaker = snapshot.get("rungs", {}).get(rung, {}).get("breaker")
        return int(breaker.get("times_opened", 0)) if breaker else 0
