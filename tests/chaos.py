"""Seeded chaos harness for the self-healing serving cluster.

:func:`run_chaos` drives a :class:`~repro.serve.cluster.ServingCluster`
through paced open-loop traffic while firing a **seeded fault
schedule** (from :func:`chaos_schedule`) at it —
replica SIGKILLs, whole-group blackouts, and stall injections that
wedge a worker without killing it — and continuously checks the
invariants the self-healing story promises:

- the cluster-level accounting invariant ``accounted()`` holds at
  every checkpoint, after the drain, and after a final probe wave;
- the merged cross-worker ``ServiceStats`` satisfies the same
  single-process ``accounted()`` invariant;
- the cluster ends the run **recovered**: every killed worker has been
  respawned, every shard owns ring arcs again, and every shard
  actually serves a control round-trip.

The harness never decides faults itself: the schedule is a pure
function of ``(ChaosScheduleConfig, seed)``, and targets are resolved
rank-modulo-topology at fire time, so one printed seed replays the
whole drill.  Faults only fire at shards with a **full replica group**
that have not been faulted within a cooldown window (a stalled worker
is invisible to ``replica_count`` until the stall probe catches it, so
back-to-back faults on one shard could silently wedge *both*
replicas); a fault with no safe target is deferred to the next
request rather than dropped.  That discipline is what makes "a
replicated shard loses zero requests to a single fault" an assertable
property rather than a coin flip.

The report carries the recovery metrics the ``bench-cluster`` gate
bounds: per-death time-to-respawn spans and the goodput dip depth
(how far the worst inter-checkpoint completion window fell below the
mean one).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.pool import WorkerError
from repro.serve import ClusterError
from repro.tensor.random import make_rng

__all__ = [
    "ChaosConfig",
    "ChaosScheduleConfig",
    "chaos_schedule",
    "run_chaos",
]


@dataclass(frozen=True)
class ChaosScheduleConfig:
    """A seeded fault schedule for the serving-cluster chaos harness.

    Faults are pinned to *request indices* (not wall-clock times) of an
    accompanying traffic replay, so the same ``(config, seed)`` pair
    injects the same faults at the same points of the same load every
    run — the whole chaos drill is replayable from one printed seed.

    Args:
        num_requests: length of the traffic replay being faulted.
        num_faults: faults to inject, spread over the middle of the
            run (the first and last ``warmup_fraction`` of requests are
            kept fault-free so the run has a clean ramp and drain).
        kinds: fault kinds to draw from — ``"kill"`` SIGKILLs one
            replica, ``"stall"`` wedges one replica without killing it
            (exercising the heartbeat/stall probe), ``"blackout"``
            SIGKILLs a whole replica group at once (respawn race).
        warmup_fraction: head/tail fraction of the replay kept
            fault-free.
    """

    num_requests: int = 500
    num_faults: int = 6
    kinds: tuple = ("kill", "stall")
    warmup_fraction: float = 0.15

    def __post_init__(self):
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.num_faults < 0:
            raise ValueError("num_faults must be >= 0")
        if not self.kinds:
            raise ValueError("kinds must be non-empty")
        unknown = set(self.kinds) - {"kill", "stall", "blackout"}
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        if not 0.0 <= self.warmup_fraction < 0.5:
            raise ValueError("warmup_fraction must be in [0, 0.5)")


def chaos_schedule(
    config: ChaosScheduleConfig, seed: int
) -> list[tuple[int, str, int]]:
    """Seeded list of ``(request_index, kind, target_rank)`` faults.

    Indices are sampled without replacement from the fault-eligible
    middle of the replay and returned sorted, so a harness can pop
    faults off the front as it walks the traffic.  ``target_rank`` is a
    free draw the harness maps onto a concrete shard/replica at fire
    time (the live topology is only known then).
    """
    rng = make_rng(seed)
    lo = int(np.floor(config.num_requests * config.warmup_fraction))
    hi = int(np.ceil(config.num_requests * (1.0 - config.warmup_fraction)))
    eligible = max(hi - lo, 1)
    count = min(config.num_faults, eligible)
    indices = lo + rng.choice(eligible, size=count, replace=False)
    kinds = rng.choice(len(config.kinds), size=count)
    ranks = rng.integers(0, 1_000_000, size=count)
    schedule = [
        (int(index), config.kinds[int(kind)], int(rank))
        for index, kind, rank in zip(indices, kinds, ranks)
    ]
    schedule.sort()
    return schedule


@dataclass
class ChaosConfig:
    """Knobs for one chaos drill.

    Args:
        stall_seconds: how long an injected stall wedges its worker —
            set it well above the cluster's ``stall_timeout`` so the
            probe, not patience, ends the stall.
        checkpoint_every: submissions between accounting checkpoints
            (each also snapshots completed-counts for goodput windows).
        pace: replay arrivals on their schedule (the honest mode); off,
            the replay runs as fast as possible (benchmark mode).
        drain_timeout: budget for the post-replay drain.
        recovery_timeout: how long to wait after the drain for the
            supervisor to restore full capacity.
        probe_requests: requests replayed after recovery to prove the
            healed cluster still serves.
        fault_cooldown: seconds a shard stays off-limits after a fault
            lands on it.  ``None`` derives it from the cluster's
            ``stall_timeout`` (1.5x, the window in which a wedged
            replica can hide from ``replica_count``).
    """

    stall_seconds: float = 0.8
    checkpoint_every: int = 25
    pace: bool = True
    drain_timeout: float = 20.0
    recovery_timeout: float = 15.0
    probe_requests: int = 24
    fault_cooldown: float | None = None

    def __post_init__(self):
        if self.stall_seconds <= 0:
            raise ValueError("stall_seconds must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.drain_timeout <= 0 or self.recovery_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.probe_requests < 0:
            raise ValueError("probe_requests must be >= 0")
        if self.fault_cooldown is not None and self.fault_cooldown < 0:
            raise ValueError("fault_cooldown must be >= 0")


def _target_shard(cluster, rank: int, hot: dict, now: float):
    """Resolve a schedule rank onto a *safe* shard: full replica group
    and outside its fault cooldown.  Returns ``None`` (defer the
    fault) when no shard qualifies — firing anyway could wedge both
    replicas of a shard whose first stall the probe hasn't caught
    yet, turning an assertable zero-loss fault into a blackout."""
    safe = [
        shard for shard in cluster.live_shards
        if cluster.replica_count(shard)
        >= cluster.config.replicas_per_shard
        and now >= hot.get(shard, -1.0)
    ]
    if not safe:
        return None
    return safe[rank % len(safe)]


def _apply_fault(
    cluster, kind: str, rank: int, config: ChaosConfig,
    hot: dict, now: float, cooldown: float,
) -> dict | None:
    """Fire one fault at a safe shard; ``None`` means defer (retry on
    the next request — no shard is currently safe to fault)."""
    shard = _target_shard(cluster, rank, hot, now)
    if shard is None:
        return None
    hot[shard] = now + cooldown
    try:
        if kind == "kill":
            worker = cluster.kill_replica(shard, which=rank)
        elif kind == "blackout":
            cluster.kill_shard(shard)
            worker = None
        elif kind == "stall":
            worker = cluster.stall_replica(
                shard, config.stall_seconds, which=rank
            )
        else:  # pragma: no cover - schedule generator guards kinds
            raise ValueError(f"unknown fault kind {kind!r}")
    except (ClusterError, WorkerError):
        # The rank landed on a worker that died under our feet — the
        # race itself is the exercise; record and move on.
        return {"kind": kind, "shard": shard, "skipped": True}
    return {"kind": kind, "shard": shard, "worker": worker}


def _check(cluster, where: str) -> None:
    if not cluster.accounted():
        raise ClusterError(
            f"cluster accounting violated {where}: "
            f"submitted={cluster.submitted} completed={cluster.completed} "
            f"shed={cluster.shed} failed={cluster.failed} "
            f"inflight={cluster.inflight}"
        )


def run_chaos(
    cluster,
    traffic,
    schedule,
    config: ChaosConfig | None = None,
    sleep=time.sleep,
    log=None,
) -> dict:
    """Drive one seeded chaos drill; returns the report dict.

    ``traffic`` is an iterable of ``(user, history, arrival_seconds)``
    (e.g. :func:`repro.data.synthetic.zipf_traffic`); ``schedule`` is
    the sorted ``(request_index, kind, rank)`` list from
    :func:`chaos_schedule`.  Raises
    :class:`ClusterError` the moment an accounting invariant breaks —
    checkpoint asserts are continuous, not post-hoc.
    """
    config = config or ChaosConfig()
    traffic = list(traffic)
    schedule = sorted(schedule)
    cooldown = config.fault_cooldown
    if cooldown is None:
        cooldown = 1.5 * (cluster.config.stall_timeout or 0.0)
    cursor = 0
    due: list[tuple] = []  # faults past their index awaiting a target
    hot: dict[int, float] = {}  # shard -> earliest safe re-fault time
    faults: list[dict] = []
    checkpoints: list[dict] = []
    started = time.monotonic()

    def fire_due(index) -> None:
        still_due = []
        for entry in due:
            _, kind, rank = entry
            fault = _apply_fault(
                cluster, kind, rank, config, hot,
                time.monotonic(), cooldown,
            )
            if fault is None:
                still_due.append(entry)
                continue
            faults.append(fault)
            if log:
                log(
                    f"chaos: {kind} on shard {fault['shard']} "
                    f"at request {index}"
                    + (" (skipped)" if fault.get("skipped") else "")
                )
        due[:] = still_due

    for index, (user, history, arrival) in enumerate(traffic):
        while cursor < len(schedule) and schedule[cursor][0] <= index:
            due.append(schedule[cursor])
            cursor += 1
        if due:
            fire_due(index)
        if config.pace:
            while True:
                lag = arrival - (time.monotonic() - started)
                if lag <= 0:
                    break
                sleep(min(lag, 0.02))
                cluster.pump(timeout=0.0)
        cluster.submit(user, history)
        cluster.pump(timeout=0.0)
        if (index + 1) % config.checkpoint_every == 0:
            _check(cluster, f"at checkpoint (request {index + 1})")
            checkpoints.append({
                "requests": index + 1,
                "completed": cluster.completed,
                "t": time.monotonic() - started,
            })
    # Flush deferred faults: keep pumping (so respawns land and shards
    # become safe again) until every scheduled fault has fired or the
    # recovery budget runs out.  Anything left is recorded skipped.
    flush_deadline = time.monotonic() + config.recovery_timeout
    while due and time.monotonic() < flush_deadline:
        cluster.pump(timeout=0.02)
        fire_due(len(traffic))
    for _, kind, rank in due:
        faults.append({"kind": kind, "shard": None, "skipped": True})
        if log:
            log(f"chaos: {kind} (rank {rank}) never found a safe "
                f"target — skipped")
    due.clear()
    cluster.drain(timeout=config.drain_timeout)
    _check(cluster, "after drain")
    if cluster.inflight:
        raise ClusterError(
            f"drain left {cluster.inflight} requests non-terminal"
        )
    # Let the supervisor finish healing: respawn backoffs may still be
    # pending after the drain settles the data plane.
    deadline = time.monotonic() + config.recovery_timeout
    while not cluster.full_capacity() and time.monotonic() < deadline:
        cluster.pump(timeout=0.05)
    recovered = cluster.full_capacity()
    # Prove the healed cluster serves: a control round-trip per shard
    # and a probe wave through the data plane.
    serving_shards = []
    if recovered:
        serving_shards = sorted(cluster.describe().keys())
        probe_before = cluster.completed
        for user, history, _ in traffic[: config.probe_requests]:
            cluster.submit(user, history)
            cluster.pump(timeout=0.0)
        cluster.drain(timeout=config.drain_timeout)
        probe_completed = cluster.completed - probe_before
        _check(cluster, "after probe wave")
    else:
        probe_completed = 0
    merged = cluster.merged_service_stats()
    if not merged.accounted():
        raise ClusterError(
            "merged ServiceStats accounting violated after chaos drill"
        )
    windows = [
        later["completed"] - earlier["completed"]
        for earlier, later in zip(checkpoints, checkpoints[1:])
    ]
    if windows:
        mean_window = sum(windows) / len(windows)
        min_window = min(windows)
        dip_depth = (
            0.0 if mean_window == 0
            else 1.0 - min_window / mean_window
        )
        goodput = {
            "min_window": min_window,
            "mean_window": round(mean_window, 2),
            "dip_depth": round(dip_depth, 4),
        }
    else:
        goodput = {"min_window": None, "mean_window": None,
                   "dip_depth": None}
    spans = cluster.recovery_spans()
    offered = len(traffic)
    return {
        "offered": offered,
        "wall_seconds": round(time.monotonic() - started, 4),
        "submitted": cluster.submitted,
        "completed": cluster.completed,
        "shed": cluster.shed,
        "failed": cluster.failed,
        "availability": (
            round((cluster.completed) / max(cluster.submitted, 1), 4)
        ),
        "slo_attainment": cluster.slo_attainment(),
        "faults": faults,
        "faults_applied": sum(
            1 for fault in faults if not fault.get("skipped")
        ),
        "checkpoints": len(checkpoints),
        "goodput": goodput,
        "recovered": recovered,
        "serving_shards": serving_shards,
        "probe_completed": probe_completed,
        "respawns": cluster.respawns,
        "recovery_spans": spans,
        "max_recovery_seconds": (
            round(max(span["seconds"] for span in spans), 4)
            if spans else 0.0
        ),
        "cluster_accounted": cluster.accounted(),
        "service_accounted": merged.accounted(),
    }
