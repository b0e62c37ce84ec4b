"""ServingCluster: consistent-hash routing, shard round trips, merged
accounting, admission-control shedding, the kill-one-shard drill, and
canary rollout/rollback."""

import time

import numpy as np
import pytest

from repro.serve import (
    CircuitBreaker,
    ClusterConfig,
    ConsistentHashRing,
    EngineConfig,
    RecommendService,
    RetryPolicy,
    ServiceConfig,
    ServingCluster,
    TransientError,
)
from repro.serve.cluster import RESPAWN_BACKOFF_MAX

from .conftest import NUM_ITEMS, FailingModel, StubModel


class CanaryModel(StubModel):
    """Distinguishable swap target (same contract as StubModel)."""

    name = "canary"


class CanaryModelV2(StubModel):
    """A second generation of canary, for stacked-rollout tests."""

    name = "canary-v2"


class BrokenCanaryModel(FailingModel):
    """A canary that fails every call — probes must degrade."""

    name = "broken-canary"


def _no_sleep_retry(attempts=1):
    return RetryPolicy(max_attempts=attempts, base_delay=0.0, jitter=0.0,
                       sleep=lambda _: None)


def make_factory(primary_builder=StubModel, retry_attempts=1,
                 breaker_min_calls=3):
    """A service factory closure; runs inside each forked shard."""

    def factory():
        return RecommendService(
            [("primary", primary_builder()), ("pop", StubModel())],
            num_items=NUM_ITEMS,
            config=ServiceConfig(top_n=3, deadline=None),
            retry=_no_sleep_retry(retry_attempts),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=0.5, window=6,
                min_calls=breaker_min_calls, cooldown=30.0,
            ),
        )

    return factory


def make_cluster(num_shards=2, factory=None, **config):
    config.setdefault("batch_size", 4)
    config.setdefault("worker_timeout", 20.0)
    return ServingCluster(
        factory or make_factory(),
        config=ClusterConfig(num_shards=num_shards, **config),
    )


def submit_users(cluster, users):
    for user in users:
        cluster.submit(user, np.array([1 + user % 3, 2], dtype=np.int64))


PROBES = [np.array([1, 2], dtype=np.int64), np.array([3], dtype=np.int64)]


def wait_for(cluster, predicate, timeout=8.0):
    """Pump the router until ``predicate()`` holds (or timeout)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        cluster.pump(timeout=0.02)
    return predicate()


class TestConsistentHashRing:
    def test_lookup_is_deterministic_across_instances(self):
        a = ConsistentHashRing(range(4))
        b = ConsistentHashRing(range(4))
        keys = range(1000)
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_spreads_keys_over_nodes(self):
        ring = ConsistentHashRing(range(4), replicas=64)
        counts = {n: 0 for n in range(4)}
        for key in range(4000):
            counts[ring.lookup(key)] += 1
        for count in counts.values():
            assert 400 < count < 2200  # rough balance, not exact quarters

    def test_removal_only_moves_the_dead_nodes_keys(self):
        ring = ConsistentHashRing(range(4))
        before = {key: ring.lookup(key) for key in range(2000)}
        ring.remove(2)
        for key, owner in before.items():
            if owner != 2:
                assert ring.lookup(key) == owner
            else:
                assert ring.lookup(key) != 2

    def test_rejoin_restores_exactly_the_original_keys(self):
        # Remove -> re-add is the respawn path: because ring points are
        # a pure function of the node name, the rejoining node reclaims
        # exactly the arcs it owned before, and nothing else moves —
        # bounded churn, not a full reshuffle.
        ring = ConsistentHashRing(range(4))
        before = {key: ring.lookup(key) for key in range(2000)}
        ring.remove(2)
        during = {key: ring.lookup(key) for key in range(2000)}
        for key, owner in before.items():
            if owner != 2:
                assert during[key] == owner
        ring.add(2)
        assert {key: ring.lookup(key) for key in range(2000)} == before

    def test_empty_ring_returns_none(self):
        ring = ConsistentHashRing([])
        assert ring.lookup(1) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([], replicas=0)


class TestClusterConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(num_shards=0), dict(max_queue=0), dict(deadline=0.0),
        dict(batch_size=0), dict(worker_timeout=0.0),
        dict(replicas_per_shard=0), dict(respawn_backoff=0.0),
        dict(flap_threshold=0), dict(stall_timeout=0.0),
        dict(heartbeat_interval=0.0),
        # Above the fixed cap, backoff could never double.
        dict(respawn_backoff=RESPAWN_BACKOFF_MAX + 1.0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)


class TestDataPlane:
    def test_round_trip_and_merged_accounting(self):
        with make_cluster(num_shards=2) as cluster:
            submit_users(cluster, range(40))
            cluster.drain()
            assert cluster.completed == 40
            assert cluster.shed == cluster.failed == 0
            assert cluster.accounted()
            stats = cluster.stats()
            assert stats["cluster"]["accounted"]
            # The merged shard ServiceStats satisfies the same
            # invariant as a single-process run, and saw every request.
            assert stats["service"]["accounted"]
            assert stats["service"]["requests"] == 40
            assert stats["service"]["served_by_rung"]["primary"] == 40
            assert stats["cluster"]["latency"]["count"] == 40
            # Traffic really was sharded: both shards served requests.
            per_shard = stats["per_shard"]
            assert len(per_shard) == 2
            assert all(s["requests"] > 0 for s in per_shard.values())

    def test_same_user_always_lands_on_same_shard(self):
        with make_cluster(num_shards=3) as cluster:
            for _ in range(3):
                submit_users(cluster, range(30))
            cluster.drain()
            by_user = {}
            for shard, user, status, rung, latency in cluster.records:
                assert status == "ok"
                by_user.setdefault(user, set()).add(shard)
            assert all(len(shards) == 1 for shards in by_user.values())
            assert len({s for v in by_user.values() for s in v}) == 3

    def test_invalid_requests_account_as_completed_errors(self):
        with make_cluster(num_shards=2) as cluster:
            cluster.submit(1, np.array([], dtype=np.int64))  # empty
            submit_users(cluster, range(5))
            cluster.drain()
            assert cluster.completed == 6
            assert cluster.accounted()
            statuses = [record[2] for record in cluster.records]
            assert "error:InvalidRequest" in statuses
            merged = cluster.stats()["service"]
            assert merged["rejected"] == 1
            assert merged["accounted"]

    def test_queue_overflow_sheds_instead_of_queueing(self):
        # batch_size > max_queue: nothing flushes until we say so, so
        # the per-shard depth cap is what sheds.
        with make_cluster(num_shards=2, batch_size=100,
                          max_queue=3) as cluster:
            submit_users(cluster, range(30))
            assert cluster.shed > 0
            assert cluster.shed + cluster.inflight == 30
            cluster.drain()
            assert cluster.accounted()
            assert cluster.completed + cluster.shed == 30
            shed_records = [r for r in cluster.records if r[2] == "shed"]
            assert len(shed_records) == cluster.shed


class TestKillDrill:
    def test_dead_shard_fails_inflight_and_reroutes(self):
        # flap_threshold=1: this drill asserts graceful *degradation* —
        # the first death trips the flap-breaker, so the killed shard
        # stays dead instead of healing mid-assert.
        with make_cluster(num_shards=2, batch_size=100,
                          flap_threshold=1) as cluster:
            submit_users(cluster, range(30))
            victim = next(
                s for s in cluster.live_shards if cluster._pending[s]
            )
            queued_on_victim = len(cluster._pending[victim])
            cluster.kill_shard(victim)
            # The flush hits the dead shard's broken pipe: its batch is
            # failed, nothing hangs, and the ring drops the shard.
            cluster.drain(timeout=10.0)
            assert cluster.live_shards == [
                s for s in range(2) if s != victim
            ]
            assert cluster.failed == queued_on_victim
            assert cluster.completed == 30 - queued_on_victim
            assert cluster.accounted()
            # New traffic for the dead shard's users reroutes and serves.
            submit_users(cluster, range(30))
            cluster.drain(timeout=10.0)
            assert cluster.failed == queued_on_victim
            assert cluster.completed == (30 - queued_on_victim) + 30
            assert cluster.accounted()
            stats = cluster.stats()
            assert stats["cluster"]["accounted"]
            assert stats["service"]["accounted"]

    def test_mid_flight_kill_is_shed_not_hung(self):
        import time as _time

        with make_cluster(num_shards=2, batch_size=1,
                          flap_threshold=1) as cluster:
            submit_users(cluster, range(20))
            victim = cluster.live_shards[0]
            cluster.kill_shard(victim)
            start = _time.monotonic()
            cluster.drain(timeout=10.0)
            assert _time.monotonic() - start < 10.0
            assert victim not in cluster.live_shards
            assert cluster.accounted()
            assert cluster.completed + cluster.failed == 20


class TestCanaryRollout:
    def test_healthy_rollout_swaps_every_shard(self):
        with make_cluster(num_shards=2) as cluster:
            submit_users(cluster, range(10))
            cluster.drain()
            before = cluster.describe()
            assert all(
                d["primary"]["model"] == "StubModel"
                for d in before.values()
            )
            report = cluster.rollout(
                "primary", CanaryModel(), PROBES, probes_per_shard=4
            )
            assert report.ok
            assert not report.rolled_back
            assert report.swapped == cluster.live_shards
            after = cluster.describe()
            assert all(
                d["primary"]["model"] == "CanaryModel"
                for d in after.values()
            )
            # The fleet serves from the new model.
            submit_users(cluster, range(10))
            cluster.drain()
            assert cluster.completed == 20
            assert cluster.accounted()

    def test_broken_canary_rolls_back_on_degraded_probes(self):
        with make_cluster(num_shards=2) as cluster:
            report = cluster.rollout(
                "primary", BrokenCanaryModel(), PROBES, probes_per_shard=4
            )
            assert not report.ok
            assert report.rolled_back
            assert report.failed_shard == cluster.live_shards[0]
            assert "degraded past the canary" in report.reason
            # Every shard — including the failed one — restored the
            # pre-canary model.
            after = cluster.describe()
            assert all(
                d["primary"]["model"] == "StubModel"
                for d in after.values()
            )
            submit_users(cluster, range(10))
            cluster.drain()
            assert cluster.completed == 10
            assert cluster.accounted()

    def test_flaky_canary_rolls_back_on_breaker_trip(self):
        # The canary *serves* its probe (transient failure + in-place
        # retry) but trips the breaker doing so: the trip, not the
        # probe outcome, must abort the rollout.
        factory = make_factory(
            retry_attempts=3,
            breaker_min_calls=1,  # hair-trigger: one failure trips
        )
        with ServingCluster(
            factory,
            config=ClusterConfig(num_shards=2, batch_size=4,
                                 worker_timeout=20.0),
        ) as cluster:
            report = cluster.rollout(
                "primary",
                FailingModel(
                    error=TransientError("flaky canary"), fail_first=1
                ),
                PROBES,
                probes_per_shard=1,
            )
            assert not report.ok
            assert report.rolled_back
            assert "breaker tripped" in report.reason

    def test_swap_failure_aborts_and_rolls_back_nothing_extra(self):
        with make_cluster(num_shards=2) as cluster:
            report = cluster.rollout(
                "primary", "/nonexistent/checkpoint.npz", PROBES,
            )
            assert not report.ok
            assert "swap failed" in report.reason
            after = cluster.describe()
            assert all(
                d["primary"]["model"] == "StubModel"
                for d in after.values()
            )

    def test_rollout_requires_probes(self):
        with make_cluster(num_shards=1) as cluster:
            with pytest.raises(ValueError):
                cluster.rollout("primary", CanaryModel(), [])


class TestRunLoad:
    def test_open_loop_report(self):
        with make_cluster(num_shards=2) as cluster:
            traffic = [
                (user, np.array([1 + user % 3], dtype=np.int64),
                 0.001 * index)
                for index, user in enumerate(range(50))
            ]
            report = cluster.run_load(traffic)
            assert report["offered"] == 50
            assert report["completed"] == 50
            assert report["sustained_rps"] > 0
            assert report["cluster_accounted"]
            assert report["service_accounted"]
            assert report["latency"]["count"] == 50

    def test_paced_run_reports_slo_attainment(self):
        with make_cluster(num_shards=2, deadline=2.0) as cluster:
            traffic = [
                (user, np.array([1 + user % 3], dtype=np.int64),
                 0.002 * index)
                for index, user in enumerate(range(40))
            ]
            report = cluster.run_load(traffic, pace=True,
                                      drain_timeout=10.0)
            assert report["completed"] == 40
            assert report["cluster_accounted"]
            # A healthy paced run meets its 2s deadline essentially
            # always; the metric must be present and sane.
            assert report["slo_attainment"] is not None
            assert 0.9 <= report["slo_attainment"] <= 1.0
            assert cluster.stats()["cluster"]["slo_attainment"] == (
                pytest.approx(report["slo_attainment"])
            )

    def test_slo_attainment_is_none_without_deadline(self):
        with make_cluster(num_shards=1) as cluster:
            submit_users(cluster, range(5))
            cluster.drain()
            assert cluster.slo_attainment() is None
            assert cluster.stats()["cluster"]["slo_attainment"] is None


class TestReplication:
    def test_replica_groups_spawn_full_capacity(self):
        with make_cluster(num_shards=2, replicas_per_shard=2) as cluster:
            assert len(cluster.live_workers) == 4
            assert all(cluster.replica_count(s) == 2 for s in (0, 1))
            assert cluster.full_capacity()
            submit_users(cluster, range(20))
            cluster.drain()
            assert cluster.completed == 20
            assert cluster.accounted()
            stats = cluster.stats()["cluster"]
            assert stats["replicas"] == {0: 2, 1: 2}
            assert stats["full_capacity"]

    def test_replica_failover_loses_zero_requests(self):
        # batch_size=1 dispatches everything immediately, so the killed
        # replica dies holding real in-flight work — which must fail
        # over to its group mate, not fail.
        with make_cluster(num_shards=2, replicas_per_shard=2,
                          batch_size=1, flap_threshold=1) as cluster:
            submit_users(cluster, range(30))
            victim_shard = cluster.live_shards[0]
            cluster.kill_replica(victim_shard, which=0)
            cluster.drain(timeout=10.0)
            assert cluster.failed == 0
            assert cluster.completed == 30
            assert cluster.accounted()
            assert cluster.replica_count(victim_shard) == 1
            assert any(e["kind"] == "failover" for e in cluster.events)
            assert not cluster.full_capacity()

    def test_respawn_restores_full_capacity_and_serves(self):
        with make_cluster(num_shards=2, replicas_per_shard=2,
                          respawn_backoff=0.01) as cluster:
            cluster.kill_replica(0, which=0)
            # The kill is only observed on a pump: wait for the
            # supervisor to notice and respawn, then for full capacity.
            assert wait_for(cluster, lambda: cluster.respawns >= 1)
            assert wait_for(cluster, cluster.full_capacity)
            kinds = [e["kind"] for e in cluster.events]
            assert "respawned" in kinds
            submit_users(cluster, range(20))
            cluster.drain()
            assert cluster.completed == 20
            assert cluster.accounted()

    def test_blackout_respawn_rejoins_ring_and_warm_loads(self):
        # Single-replica shard: a kill is a blackout (ring removal),
        # and the respawned worker must warm-load the *committed*
        # rollout state, not the factory default.
        with make_cluster(num_shards=2,
                          respawn_backoff=0.01) as cluster:
            report = cluster.rollout(
                "primary", CanaryModel(), PROBES, probes_per_shard=2
            )
            assert report.ok
            victim = cluster.live_shards[0]
            cluster.kill_shard(victim)
            assert wait_for(cluster, lambda: cluster.respawns >= 1)
            assert wait_for(cluster, cluster.full_capacity)
            assert victim in cluster.live_shards
            kinds = [e["kind"] for e in cluster.events]
            assert "rejoined" in kinds
            described = cluster.describe()
            assert described[victim]["primary"]["model"] == "CanaryModel"
            submit_users(cluster, range(30))
            cluster.drain()
            assert cluster.completed == 30
            assert cluster.accounted()

    def test_flap_breaker_stops_respawn_and_degrades(self):
        with make_cluster(num_shards=1, respawn_backoff=0.01,
                          flap_threshold=2) as cluster:
            cluster.kill_shard(0)
            assert wait_for(cluster, lambda: cluster.respawns >= 1)
            assert wait_for(cluster, cluster.full_capacity)
            # Second death inside the flap window trips the breaker:
            # no more respawns, the shard stays down.
            cluster.kill_shard(0)
            assert wait_for(
                cluster,
                lambda: any(e["kind"] == "flap_tripped"
                            for e in cluster.events),
            )
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                cluster.pump(timeout=0.02)
            assert not cluster.full_capacity()
            assert cluster.live_shards == []
            assert cluster.stats()["cluster"]["flapped_shards"] == [0]
            # Traffic degrades to clean failure at admission — no hang,
            # accounting exact.
            submit_users(cluster, range(5))
            cluster.drain(timeout=5.0)
            assert cluster.failed >= 5
            assert cluster.accounted()

    def test_flap_threshold_one_never_respawns(self):
        # The degradation tests rely on this: with a threshold of one,
        # the very first death trips the breaker and nothing re-forks.
        backoff = 0.01
        with make_cluster(num_shards=1, respawn_backoff=backoff,
                          flap_threshold=1) as cluster:
            cluster.kill_shard(0)
            assert wait_for(
                cluster,
                lambda: any(e["kind"] == "flap_tripped"
                            for e in cluster.events),
            )
            deadline = time.monotonic() + 10 * backoff
            while time.monotonic() < deadline:
                cluster.pump(timeout=0.02)
            assert cluster.respawns == 0
            assert not any(e["kind"] == "respawned"
                           for e in cluster.events)
            assert cluster.stats()["cluster"]["flapped_shards"] == [0]


class TestStallProbe:
    def test_stalled_batch_is_killed_and_failed_over(self):
        with make_cluster(num_shards=1, replicas_per_shard=2,
                          batch_size=1, flap_threshold=1,
                          stall_timeout=0.15,
                          heartbeat_interval=0.05) as cluster:
            cluster.stall_replica(0, 2.0, which=0)
            submit_users(cluster, range(10))
            cluster.drain(timeout=10.0)
            assert cluster.completed == 10
            assert cluster.failed == 0
            assert cluster.accounted()
            assert cluster.replica_count(0) == 1
            causes = [e.get("cause") for e in cluster.events
                      if e["kind"] == "worker_died"]
            assert any(c in ("stalled batch", "unanswered ping")
                       for c in causes)

    def test_heartbeat_catches_idle_wedged_worker(self):
        # No traffic at all: only the heartbeat ping can tell a wedged
        # worker from an idle one.
        with make_cluster(num_shards=1, replicas_per_shard=2,
                          flap_threshold=1, stall_timeout=0.1,
                          heartbeat_interval=0.05) as cluster:
            cluster.stall_replica(0, 2.0, which=0)
            assert wait_for(
                cluster,
                lambda: any(e["kind"] == "worker_died"
                            for e in cluster.events),
                timeout=5.0,
            )
            died = [e for e in cluster.events
                    if e["kind"] == "worker_died"]
            assert died[0]["cause"] == "unanswered ping"
            assert cluster.replica_count(0) == 1


class TestKillAllShards:
    def test_total_cluster_death_accounts_everything(self):
        with make_cluster(num_shards=2, batch_size=1,
                          flap_threshold=1) as cluster:
            submit_users(cluster, range(30))
            for shard in list(cluster.live_shards):
                cluster.kill_shard(shard)
            start = time.monotonic()
            cluster.drain(timeout=8.0)
            # drain() must return promptly with every request terminal
            # — even the ones orphaned while the *last* shard died
            # mid-reroute.
            assert time.monotonic() - start < 8.0
            assert cluster.live_shards == []
            assert cluster.inflight == 0
            assert cluster.accounted()
            assert cluster.completed + cluster.failed == 30
            # Post-mortem submissions fail cleanly at admission.
            submit_users(cluster, range(5))
            cluster.drain(timeout=5.0)
            assert cluster.inflight == 0
            assert cluster.accounted()
            stats = cluster.stats()
            assert stats["cluster"]["accounted"]
            assert stats["service"]["accounted"]

    def test_total_cluster_death_recovers_with_respawn(self):
        with make_cluster(num_shards=2, batch_size=1,
                          respawn_backoff=0.01) as cluster:
            submit_users(cluster, range(20))
            for shard in list(cluster.live_shards):
                cluster.kill_shard(shard)
            cluster.drain(timeout=8.0)
            assert cluster.accounted()
            assert cluster.inflight == 0
            assert wait_for(cluster, cluster.full_capacity)
            before = cluster.completed
            submit_users(cluster, range(20))
            cluster.drain()
            assert cluster.completed == before + 20
            assert cluster.accounted()


class TestPerShardEngines:
    def test_engine_override_applies_to_its_shard_only(self):
        with ServingCluster(
            make_factory(),
            config=ClusterConfig(num_shards=2, batch_size=4,
                                 worker_timeout=20.0),
            engine_overrides={
                0: EngineConfig(max_batch=8, cache_capacity=16),
            },
        ) as cluster:
            described = cluster.describe()
            engine = described[0]["primary"]["engine"]
            assert engine == {"max_batch": 8, "cache_capacity": 16,
                              "cache_capacity_bytes": None,
                              "retrieval": False}
            assert described[0]["pop"]["engine"] == engine
            assert described[1]["primary"]["engine"] is None
            # Heterogeneous shards still serve the same traffic.
            submit_users(cluster, range(30))
            cluster.drain()
            assert cluster.completed == 30
            assert cluster.accounted()

    def test_engine_overrides_validated_against_shard_range(self):
        with pytest.raises(ValueError):
            ServingCluster(
                make_factory(),
                config=ClusterConfig(num_shards=2),
                engine_overrides={5: EngineConfig()},
            )


class TestRolloutCommit:
    def test_rollback_restores_latest_committed_model(self):
        # Regression: the pre-swap stash must track the *latest*
        # committed model.  A stale stash would roll the fleet all the
        # way back to the factory StubModel here.
        with make_cluster(num_shards=2) as cluster:
            assert cluster.rollout(
                "primary", CanaryModel(), PROBES, probes_per_shard=2
            ).ok
            assert cluster.rollout(
                "primary", CanaryModelV2(), PROBES, probes_per_shard=2
            ).ok
            report = cluster.rollout(
                "primary", BrokenCanaryModel(), PROBES,
                probes_per_shard=2,
            )
            assert report.rolled_back
            after = cluster.describe()
            assert all(
                d["primary"]["model"] == "CanaryModelV2"
                for d in after.values()
            )

    def test_rollout_swaps_every_replica(self):
        with make_cluster(num_shards=2, replicas_per_shard=2,
                          flap_threshold=1) as cluster:
            assert cluster.rollout(
                "primary", CanaryModel(), PROBES, probes_per_shard=2
            ).ok
            # Kill the first replica of each group: the survivors must
            # already hold the canary — the rollout swapped them all,
            # not just the group leader.
            for shard in list(cluster.live_shards):
                cluster.kill_replica(shard, which=0)
            cluster.drain(timeout=5.0)
            after = cluster.describe()
            assert all(
                d["primary"]["model"] == "CanaryModel"
                for d in after.values()
            )
            submit_users(cluster, range(20))
            cluster.drain()
            assert cluster.completed == 20
            assert cluster.accounted()
