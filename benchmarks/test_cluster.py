"""Sharded-cluster benchmarks: sustained throughput and tail latency of
:class:`repro.serve.ServingCluster` under open-loop Zipf traffic drawn
from a **1M-user population** (:func:`repro.data.synthetic.zipf_traffic`).

Two things are measured:

- ``test_cluster_sustained_load[...]`` — end-to-end replay of a seeded
  arrival schedule through 1 and 2 shard processes (fork, route, shard
  micro-batch, merge), recording sustained req/s and the p50/p95/p99
  round-trip percentiles in ``extra_info``.  Means are gated against
  ``benchmarks/BENCH_baseline.json`` by ``compare_bench.py``
  (``make bench-cluster``).
- ``test_cluster_throughput_gate`` — the PR's acceptance bar, run with
  ``-k gate``: at 1M simulated users the fleet must sustain a floor
  req/s, the cluster counters must satisfy ``accounted()``, and so must
  the **merged** per-shard :class:`repro.serve.ServiceStats` — the same
  invariant a single process keeps, now across the whole fleet.
- ``test_cluster_chaos_drill`` / ``test_cluster_recovery_gate`` — a
  seeded kill/stall schedule against a replicated self-healing cluster:
  the benchmark records wall time with faults in flight, and the gate
  bounds time-to-rejoin per death and the goodput dip depth while
  requiring zero failed requests and full-capacity recovery.

Request counts are deliberately modest: CI runs on small shared boxes
(often one core), and the population size — not the arrival count — is
what exercises the 1M-user machinery (inverse-CDF user draws, per-user
derived histories, consistent-hash spread)."""

import time

import numpy as np
import pytest

from repro.core import VSAN
from repro.data.synthetic import ZipfTrafficConfig, zipf_traffic
from repro.serve import (
    CircuitBreaker,
    ClusterConfig,
    RecommendService,
    RetryPolicy,
    ServiceConfig,
    ServingCluster,
)
from repro.tensor import set_default_dtype
from tests.chaos import (
    ChaosConfig,
    ChaosScheduleConfig,
    chaos_schedule,
    run_chaos,
)

NUM_USERS = 1_000_000
NUM_ITEMS = 200
NUM_REQUESTS = 200
RATE = 2_000.0  # offered-load schedule; the replay itself is unpaced

# Conservative floor for the gate: the reference box (single shared
# core) sustains ~800 req/s with this model and traffic; gate at well
# under half so only a real regression — not scheduler noise — trips.
GATE_MIN_RPS = 150.0


@pytest.fixture(scope="module", autouse=True)
def float32_compute():
    previous = set_default_dtype(np.float32)
    yield
    set_default_dtype(previous)


@pytest.fixture(scope="module")
def traffic():
    config = ZipfTrafficConfig(
        num_users=NUM_USERS, num_items=NUM_ITEMS,
        num_requests=NUM_REQUESTS, rate=RATE, max_length=18,
    )
    return list(zipf_traffic(config, seed=0))


@pytest.fixture(scope="module")
def primary(float32_compute):
    model = VSAN(NUM_ITEMS, max_length=20, dim=16, h1=1, h2=1, k=1,
                 seed=0)
    model.eval()
    return model


def make_factory(primary):
    def factory():
        return RecommendService(
            [("vsan", primary)],
            num_items=NUM_ITEMS,
            config=ServiceConfig(top_n=10, deadline=None),
            retry=RetryPolicy(max_attempts=2, base_delay=0.001,
                              max_delay=0.002, seed=0),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=0.5, window=8, min_calls=4,
                cooldown=1.0,
            ),
        )

    return factory


def run_cluster(primary, traffic, num_shards):
    with ServingCluster(
        make_factory(primary),
        config=ClusterConfig(num_shards=num_shards, batch_size=16,
                             max_queue=256, worker_timeout=20.0),
    ) as cluster:
        report = cluster.run_load(traffic, drain_timeout=20.0)
    return report


@pytest.mark.parametrize("num_shards", [1, 2])
def test_cluster_sustained_load(benchmark, primary, traffic, num_shards):
    """Fork-to-drain replay of the full schedule (fresh cluster per
    round, so spawn cost is honestly part of the measurement)."""
    state = {}

    def run():
        state["report"] = run_cluster(primary, traffic, num_shards)
        return state["report"]

    benchmark(run)
    report = state["report"]
    assert report["completed"] == NUM_REQUESTS
    assert report["cluster_accounted"]
    assert report["service_accounted"]
    benchmark.extra_info["sustained_rps"] = report["sustained_rps"]
    benchmark.extra_info["latency"] = report["latency"]
    benchmark.extra_info["population"] = NUM_USERS


def test_cluster_throughput_gate(primary, traffic):
    """Acceptance bar: sustained req/s and p99 at 1M simulated users,
    with exact accounting cluster-side and across merged shard stats."""

    def best_report(repeats=3):
        reports = []
        for _ in range(repeats):
            reports.append(run_cluster(primary, traffic, num_shards=2))
        return max(reports, key=lambda r: r["sustained_rps"])

    report = best_report()
    latency = report["latency"]
    print(
        f"\ncluster(2 shards, {NUM_USERS:,} users): "
        f"{report['sustained_rps']:.0f} req/s sustained, "
        f"p99 {latency['p99_ms']:.1f} ms, "
        f"{report['completed']}/{report['offered']} completed"
    )
    assert report["completed"] == NUM_REQUESTS
    assert report["shed"] == 0 and report["failed"] == 0
    assert report["cluster_accounted"], "cluster counters drifted"
    assert report["service_accounted"], (
        "merged shard ServiceStats violate accounted()"
    )
    assert latency["count"] == NUM_REQUESTS
    assert report["sustained_rps"] >= GATE_MIN_RPS, (
        f"cluster sustains only {report['sustained_rps']:.0f} req/s "
        f"(floor {GATE_MIN_RPS:.0f}); the sharded serving path has "
        f"regressed"
    )


CHAOS_SEED = 0
CHAOS_REQUESTS = 240
# Recovery gate bounds.  On the reference box a death is healed in
# ~0.15s; gate at 5s so only a genuinely broken supervisor (or a
# respawn storm) trips, not shared-runner scheduling noise.
GATE_MAX_RECOVERY_SECONDS = 5.0
GATE_MIN_AVAILABILITY = 0.95


def run_chaos_drill(primary, pace=True):
    """One seeded kill/stall drill against a 2x2 replicated cluster."""
    config = ZipfTrafficConfig(
        num_users=NUM_USERS, num_items=NUM_ITEMS,
        num_requests=CHAOS_REQUESTS, rate=400.0, max_length=18,
    )
    schedule = chaos_schedule(
        ChaosScheduleConfig(num_requests=CHAOS_REQUESTS, num_faults=4,
                            kinds=("kill", "stall")),
        CHAOS_SEED,
    )
    with ServingCluster(
        make_factory(primary),
        config=ClusterConfig(num_shards=2, replicas_per_shard=2,
                             batch_size=8, max_queue=256,
                             worker_timeout=20.0, respawn_backoff=0.05,
                             stall_timeout=0.3, heartbeat_interval=0.1),
    ) as cluster:
        return run_chaos(
            cluster, zipf_traffic(config, CHAOS_SEED), schedule,
            ChaosConfig(stall_seconds=0.9, checkpoint_every=20,
                        pace=pace),
        )


def test_cluster_chaos_drill(benchmark, primary):
    """Paced replay with 4 seeded faults in flight: the mean tracks the
    end-to-end drill wall time (fork, replay, heal, probe), and
    ``extra_info`` carries the recovery metrics the gate bounds."""
    state = {}

    def run():
        state["report"] = run_chaos_drill(primary)
        return state["report"]

    benchmark.pedantic(run, rounds=2, iterations=1)
    report = state["report"]
    assert report["cluster_accounted"]
    assert report["service_accounted"]
    benchmark.extra_info["availability"] = report["availability"]
    benchmark.extra_info["respawns"] = report["respawns"]
    benchmark.extra_info["max_recovery_seconds"] = (
        report["max_recovery_seconds"]
    )
    benchmark.extra_info["goodput"] = report["goodput"]


def test_cluster_recovery_gate(primary):
    """Acceptance bar for the self-healing story: every fault healed
    within the time-to-rejoin bound, zero failed requests on the
    replicated fleet, goodput never fully stalled, and the cluster back
    at full capacity serving probes."""
    report = run_chaos_drill(primary)
    print(
        f"\nchaos(2x2, seed {CHAOS_SEED}): "
        f"{report['faults_applied']} faults, "
        f"availability {report['availability']:.3f}, "
        f"{report['respawns']} respawns, "
        f"worst heal {report['max_recovery_seconds']:.2f}s, "
        f"goodput dip {report['goodput']['dip_depth']}"
    )
    assert report["faults_applied"] >= 3, "the schedule barely fired"
    assert report["failed"] == 0, (
        f"{report['failed']} requests failed on a replicated fleet — "
        f"failover is broken"
    )
    assert report["availability"] >= GATE_MIN_AVAILABILITY
    assert report["cluster_accounted"], "cluster counters drifted"
    assert report["service_accounted"], (
        "merged shard ServiceStats violate accounted()"
    )
    assert report["recovered"], "cluster never regained full capacity"
    assert report["serving_shards"] == [0, 1]
    assert report["probe_completed"] > 0
    assert report["respawns"] >= 1
    assert report["max_recovery_seconds"] <= GATE_MAX_RECOVERY_SECONDS, (
        f"worst time-to-rejoin {report['max_recovery_seconds']:.2f}s "
        f"exceeds the {GATE_MAX_RECOVERY_SECONDS:.0f}s recovery bound"
    )
    dip = report["goodput"]["dip_depth"]
    assert dip is not None and dip < 1.0, (
        f"goodput fully stalled during the drill (dip {dip})"
    )


def test_cluster_shed_gate(primary):
    """Overload must shed at admission, never wedge: a deadline-bound
    cluster fed more than it can queue stays exact and responsive."""
    config = ZipfTrafficConfig(
        num_users=NUM_USERS, num_items=NUM_ITEMS, num_requests=300,
        rate=RATE, max_length=18,
    )
    start = time.perf_counter()
    with ServingCluster(
        make_factory(primary),
        config=ClusterConfig(num_shards=2, batch_size=64, max_queue=8,
                             worker_timeout=20.0),
    ) as cluster:
        report = cluster.run_load(zipf_traffic(config, seed=3),
                                  drain_timeout=20.0)
    elapsed = time.perf_counter() - start
    assert report["shed"] > 0, "overload never tripped admission control"
    assert report["cluster_accounted"]
    assert report["service_accounted"]
    assert report["completed"] + report["shed"] == report["offered"]
    assert elapsed < 20.0, f"overloaded cluster wedged for {elapsed:.0f}s"
