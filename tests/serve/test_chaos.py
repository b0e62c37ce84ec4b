"""Chaos harness: schedule determinism, safe-target resolution with
deferral, fault-free open-loop load runs and their per-run reports,
and a real kill drill that must lose zero replicated requests and
recover to full capacity."""

import numpy as np
import pytest

from repro.serve import ClusterConfig, ServingCluster
from tests.chaos import (
    ChaosConfig,
    ChaosScheduleConfig,
    _target_shard,
    chaos_schedule,
    run_chaos,
)

from .test_cluster import make_cluster, make_factory


def load(users, spacing):
    return [
        (user, np.array([1 + user % 3], dtype=np.int64), spacing * index)
        for index, user in enumerate(users)
    ]


class TestChaosSchedule:
    def test_deterministic_and_seed_sensitive(self):
        config = ChaosScheduleConfig(num_requests=300, num_faults=8)
        assert chaos_schedule(config, seed=5) == chaos_schedule(config, seed=5)
        assert chaos_schedule(config, seed=6) != chaos_schedule(config, seed=5)

    def test_faults_land_in_the_post_warmup_window(self):
        config = ChaosScheduleConfig(num_requests=200, num_faults=5,
                                     warmup_fraction=0.2)
        schedule = chaos_schedule(config, seed=0)
        assert len(schedule) == 5
        assert schedule == sorted(schedule)
        indices = [index for index, _, _ in schedule]
        assert len(set(indices)) == 5  # sampled without replacement
        assert all(40 <= index < 160 for index in indices)
        assert all(kind in ("kill", "stall") for _, kind, _ in schedule)

    def test_fault_count_capped_by_eligible_window(self):
        config = ChaosScheduleConfig(num_requests=10, num_faults=50,
                                     warmup_fraction=0.2)
        assert len(chaos_schedule(config, seed=0)) <= 10

    @pytest.mark.parametrize("kwargs", [
        dict(num_requests=0), dict(num_faults=-1), dict(kinds=()),
        dict(kinds=("nuke",)), dict(warmup_fraction=0.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChaosScheduleConfig(**kwargs)


class TestChaosConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(stall_seconds=0.0), dict(checkpoint_every=0),
        dict(drain_timeout=0.0), dict(recovery_timeout=0.0),
        dict(probe_requests=-1), dict(fault_cooldown=-1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChaosConfig(**kwargs)


class _StubTopology:
    """Just enough cluster surface for _target_shard."""

    def __init__(self, counts):
        self._counts = counts
        self.config = ClusterConfig(num_shards=len(counts),
                                    replicas_per_shard=2)

    @property
    def live_shards(self):
        return [s for s, count in self._counts.items() if count]

    def replicas(self, shard):
        return tuple(range(self._counts[shard]))


class TestTargeting:
    def test_prefers_full_cold_groups_and_defers_otherwise(self):
        full = _StubTopology({0: 2, 1: 2})
        # Every shard hot -> defer (None), not a forced unsafe hit.
        assert _target_shard(full, 0, {0: 99.0, 1: 99.0}, now=5.0) is None
        # One shard cooling, one cold -> the cold one, whatever the rank.
        for rank in range(5):
            assert _target_shard(full, rank, {0: 99.0}, now=5.0) == 1
        # Cooldown expiry re-admits the shard.
        assert _target_shard(full, 0, {0: 4.0}, now=5.0) in (0, 1)

    def test_degraded_groups_are_never_targeted(self):
        degraded = _StubTopology({0: 1, 1: 2})
        for rank in range(5):
            assert _target_shard(degraded, rank, {}, now=0.0) == 1
        assert _target_shard(_StubTopology({0: 1, 1: 1}), 0, {},
                             now=0.0) is None


class TestOpenLoop:
    """An empty schedule makes :func:`run_chaos` a plain load run."""

    def test_open_loop_report(self):
        with make_cluster(num_shards=2) as cluster:
            report = run_chaos(cluster, load(range(50), 0.001), [],
                               ChaosConfig(pace=False, probe_requests=0))
            assert report["offered"] == 50
            assert report["completed"] == 50
            assert report["sustained_rps"] > 0
            assert report["cluster_accounted"]
            assert report["service_accounted"]
            assert report["latency"]["count"] == 50

    def test_paced_run_reports_slo_attainment(self):
        with make_cluster(num_shards=2, deadline=2.0) as cluster:
            report = run_chaos(cluster, load(range(40), 0.002), [],
                               ChaosConfig(probe_requests=0,
                                           drain_timeout=10.0))
            assert report["completed"] == 40
            assert report["cluster_accounted"]
            # A healthy paced run meets its 2s deadline essentially
            # always; the metric must be present and sane.
            assert report["slo_attainment"] is not None
            assert 0.9 <= report["slo_attainment"] <= 1.0
            assert cluster.stats()["cluster"]["slo_attainment"] == (
                pytest.approx(report["slo_attainment"])
            )

    def test_consecutive_runs_report_their_own_counts(self):
        # The second run on one cluster reports its own 20 requests and
        # their rate, not the cluster's running totals.
        config = ChaosConfig(pace=False, probe_requests=0)
        with make_cluster(num_shards=2, deadline=2.0) as cluster:
            first = run_chaos(cluster, load(range(30), 0.0), [], config)
            second = run_chaos(cluster, load(range(20), 0.0), [], config)
            assert cluster.completed == 50
        for report, count in ((first, 30), (second, 20)):
            assert report["submitted"] == report["completed"] == count
            assert report["shed"] == report["failed"] == 0
            assert report["latency"]["count"] == count
            assert 0.9 <= report["slo_attainment"] <= 1.0
            assert report["sustained_rps"] == pytest.approx(
                count / report["wall_seconds"], rel=0.02
            )


class TestRunChaos:
    def test_replicated_kill_drill_zero_loss_and_recovery(self):
        schedule = chaos_schedule(
            ChaosScheduleConfig(num_requests=60, num_faults=2,
                                kinds=("kill",)),
            seed=3,
        )
        traffic = [
            (user, np.array([1 + user % 3], dtype=np.int64), 0.0)
            for user in range(60)
        ]
        with ServingCluster(
            make_factory(),
            config=ClusterConfig(num_shards=2, replicas_per_shard=2,
                                 batch_size=2, worker_timeout=20.0,
                                 respawn_backoff=0.01,
                                 stall_timeout=0.2,
                                 heartbeat_interval=0.05),
        ) as cluster:
            report = run_chaos(
                cluster, traffic, schedule,
                ChaosConfig(pace=False, checkpoint_every=10,
                            stall_seconds=0.5, recovery_timeout=10.0),
            )
        assert report["faults_applied"] == 2
        assert report["failed"] == 0
        assert report["completed"] == report["submitted"]
        assert report["checkpoints"] == 6
        assert report["cluster_accounted"]
        assert report["service_accounted"]
        assert report["recovered"]
        assert report["respawns"] >= 1
        assert report["serving_shards"] == [0, 1]
        assert report["probe_completed"] > 0
        assert report["recovery_spans"]
        assert report["max_recovery_seconds"] > 0.0
        assert report["goodput"]["mean_window"] is not None
