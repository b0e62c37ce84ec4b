"""End-to-end serving drills on real models with real faults.

Five scenarios, each seeded (seed 0) so a failure replays exactly:

- the **fault storm**, three ways (one ``recommend`` per request; the
  micro-batching engine through ``recommend_many``; the engine over an
  approximate IVF index): a ``VSAN → SASRec → POP`` ladder whose
  trained VSAN rung is hammered by seeded latency/exception/NaN faults.
  Every request must still get a valid ranking, the primary breaker
  must re-close once the faults clear, and the stats must account for
  every request;
- the **cluster drill**: Zipf load over a 1M-user population through
  three forked shards (fault-free runs of the ``tests/chaos.py``
  driver), a SIGKILL of one shard with traffic queued
  (must shed, never hang, accounting exact), and a canary rollout that
  must roll back when the canary trips the primary breaker;
- the **chaos drill**: a seeded SIGKILL/SIGSTOP schedule fired at a
  self-healing 3 x 2 replicated cluster under paced load; replicated
  shards must lose zero requests and the supervisor must respawn back
  to full capacity.
"""

import shutil
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import VSAN
from repro.data import generate, prepare_corpus, tiny_config
from repro.data.synthetic import (
    ZipfCatalogConfig,
    ZipfTrafficConfig,
    zipf_histories,
    zipf_traffic,
)
from repro.models import POP, SASRec
from repro.nn import save_checkpoint
from repro.retrieval import IndexConfig
from repro.serve import (
    CLOSED,
    CheckpointError,
    CircuitBreaker,
    ClusterConfig,
    EngineConfig,
    Recommendation,
    RecommendService,
    RetryPolicy,
    ServiceConfig,
    ServingCluster,
    TransientError,
    safe_load_model,
)
from repro.train import Trainer, TrainerConfig
from tests.chaos import (
    ChaosConfig,
    ChaosScheduleConfig,
    blackout,
    chaos_schedule,
    run_chaos,
)
from tests.faults import (
    FaultInjector,
    FaultyRecommender,
    flip_byte,
    truncate_file,
)

SEED = 0
REGISTRY = {"VSAN": VSAN, "SASRec": SASRec}
MAX_LENGTH = 20


def assert_valid_ranking(rec, history, num_items):
    items = np.asarray(rec.items)
    assert items.size > 0
    assert np.issubdtype(items.dtype, np.integer)
    assert ((items >= 1) & (items <= num_items)).all(), items
    assert len(np.unique(items)) == len(items), items
    assert not np.isin(items, history).any(), (items, history)


# ----------------------------------------------------------------------
# Fault storm
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Checkpoints of a VSAN and a SASRec trained 2 epochs on the tiny
    synthetic corpus; each scenario safe-loads its own copies."""
    corpus = prepare_corpus(generate(tiny_config(), seed=SEED))
    num_items = corpus.num_items
    trainer = Trainer(TrainerConfig(
        epochs=2, batch_size=64, verbose=False, seed=SEED
    ))
    directory = tmp_path_factory.mktemp("drills")
    vsan_config = dict(num_items=num_items, max_length=MAX_LENGTH, dim=16,
                       h1=1, h2=1, k=1, seed=SEED)
    vsan = VSAN(**vsan_config)
    trainer.fit(vsan, corpus)
    vsan_path = save_checkpoint(vsan, directory / "vsan.npz",
                                config=vsan_config)
    sasrec_config = dict(num_items=num_items, max_length=MAX_LENGTH,
                         dim=16, num_blocks=1, seed=SEED)
    sasrec = SASRec(**sasrec_config)
    trainer.fit(sasrec, corpus)
    sasrec_path = save_checkpoint(sasrec, directory / "sasrec.npz",
                                  config=sasrec_config)
    return SimpleNamespace(corpus=corpus, vsan=vsan_path,
                           sasrec=sasrec_path)


@pytest.mark.parametrize("corrupt", [truncate_file, flip_byte])
def test_corrupt_checkpoint_is_rejected(trained, tmp_path, corrupt):
    copy = tmp_path / "vsan.npz"
    shutil.copyfile(trained.vsan, copy)
    corrupt(copy)
    with pytest.raises(CheckpointError):
        safe_load_model(copy, REGISTRY)


@pytest.mark.parametrize("mode", ["plain", "engine", "retrieval"])
def test_fault_storm(trained, mode):
    requests = 100
    corpus = trained.corpus
    num_items = corpus.num_items
    engine = mode != "plain"
    injector = FaultInjector(error_rate=0.35, nan_rate=0.35,
                             latency_rate=0.1, latency=0.01, seed=SEED)
    cooldown = 0.05
    service = RecommendService(
        [
            ("VSAN", FaultyRecommender(
                safe_load_model(trained.vsan, REGISTRY), injector
            )),
            ("SASRec", safe_load_model(trained.sasrec, REGISTRY)),
            ("POP", POP(num_items).fit(corpus)),
        ],
        num_items=num_items,
        config=ServiceConfig(top_n=10, deadline=2.0, unknown_items="drop"),
        retry=RetryPolicy(max_attempts=2, base_delay=0.002, max_delay=0.01,
                          seed=SEED),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=0.5, window=8, min_calls=4,
            cooldown=cooldown, half_open_probes=2,
        ),
        engine=EngineConfig(
            max_batch=16,
            # Deliberately approximate: half the lists probed, so a
            # scan of every list cannot mask a broken two-stage path.
            index=IndexConfig(nlist=4, nprobe=2,
                              candidates=max(24, num_items // 2),
                              seed=SEED)
            if mode == "retrieval" else None,
        ) if engine else EngineConfig(cache_capacity=0),
        # plain: one request at a time and no cache, so every request
        # reaches the faulty model.
    )

    def serve_chunk(start, stop):
        chunk = [corpus.sequences[index % len(corpus.sequences)]
                 for index in range(start, stop)]
        if engine:
            results = service.recommend_many(chunk)
        else:
            results = [service.recommend(history) for history in chunk]
        for history, rec in zip(chunk, results):
            assert isinstance(rec, Recommendation), rec
            assert_valid_ranking(rec, history, num_items)

    # Faulty phase: half the requests, in chunks of 10.
    faulty_phase = requests // 2
    for start in range(0, faulty_phase, 10):
        serve_chunk(start, min(start + 10, faulty_phase))
        # Requests are far faster than the cooldown, so an open breaker
        # would otherwise short-circuit the whole phase; let it reach
        # half-open so faulty probes keep flowing.
        time.sleep(cooldown * 1.5)
    assert service.breaker("VSAN").times_opened > 0
    assert sum(injector.injected.values()) > 0
    served_primary_before = service.stats()["served_by_rung"].get("VSAN", 0)

    # Clear phase: the rest, in chunks of 16.
    injector.disable()
    time.sleep(cooldown * 2)  # let the open breaker reach half-open
    clear_phase = requests - faulty_phase
    for start in range(0, clear_phase, 16):
        serve_chunk(start, min(start + 16, clear_phase))
    stats = service.stats()
    assert service.breaker("VSAN").state == CLOSED
    assert stats["served_by_rung"].get("VSAN", 0) > served_primary_before
    assert stats["requests"] == requests
    assert stats["served"] == requests
    assert stats["accounted"], stats
    if not engine:
        return
    snap = stats["rungs"]["VSAN"]["engine"]
    assert snap["batcher"]["batched_requests"] > 0
    assert snap["batcher"]["largest_flush"] > 1
    assert snap["cache"]["hits"] > 0
    if mode != "retrieval":
        return
    retrieval = snap["retrieval"]
    assert retrieval is not None
    assert retrieval["nprobe"] < retrieval["nlist"]
    assert retrieval["searches"] > 0
    assert retrieval["narrow_batches"] > 0
    assert stats["narrow_ranked"] > 0
    # The memory win only shows at catalogue scale (the narrow-cache
    # row of benchmarks/gates.py); here the byte accounting must be
    # live.
    assert snap["cache"]["bytes_per_entry"] > 0


# ----------------------------------------------------------------------
# Cluster and chaos drills
# ----------------------------------------------------------------------

NUM_USERS = 1_000_000
NUM_ITEMS = 200


def rung_models(described):
    """``ServingCluster.describe()`` reduced to each rung's model
    class."""
    return {
        shard: {name: rung["model"] for name, rung in rungs.items()}
        for shard, rungs in described.items()
    }


def zipf_config(requests, rate):
    return ZipfTrafficConfig(num_users=NUM_USERS, num_items=NUM_ITEMS,
                             num_requests=requests, rate=rate,
                             max_length=18)


def untrained_vsan(seed):
    # The drills exercise the serving machinery, not ranking quality:
    # an untrained VSAN scores finite, valid rankings.
    return VSAN(num_items=NUM_ITEMS, max_length=MAX_LENGTH, dim=16,
                h1=1, h2=1, k=1, seed=seed)


def zipf_pop():
    return POP(NUM_ITEMS).fit(SimpleNamespace(
        num_items=NUM_ITEMS,
        sequences=zipf_histories(
            ZipfCatalogConfig(num_users=32, num_items=NUM_ITEMS), SEED
        ),
    ))


class FlakyCanary:
    """A canary that fails its first call, then serves correctly.

    One :class:`TransientError` per shard replica is exactly enough to
    trip a hair-trigger breaker during rollout probes, while the
    in-place retry still serves every probe from the canary rung — so
    the breaker trip, not a degraded probe, is what the rollout health
    check must catch.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = f"flaky-canary({inner.name})"
        self._failures_left = 1

    def score(self, history):
        return self.score_batch([history])[0]

    def score_batch(self, histories):
        if self._failures_left > 0:
            self._failures_left -= 1
            raise TransientError("injected canary fault")
        return self.inner.score_batch(histories)


def test_cluster_drill():
    requests, num_shards, rate = 200, 3, 500.0
    # Models are built here and inherited by each forked shard.
    primary = untrained_vsan(SEED)
    pop = zipf_pop()

    def factory():
        return RecommendService(
            [("VSAN", primary), ("POP", pop)],
            num_items=NUM_ITEMS,
            config=ServiceConfig(top_n=10, deadline=2.0),
            retry=RetryPolicy(max_attempts=3, base_delay=0.001,
                              max_delay=0.002, seed=SEED),
            breaker_factory=lambda: CircuitBreaker(
                # Hair trigger: a single failure trips.  Healthy traffic
                # never fails, so only the canary arms it.
                failure_threshold=0.5, window=6, min_calls=1,
                cooldown=30.0,
            ),
        )

    with ServingCluster(
        factory,
        config=ClusterConfig(num_shards=num_shards, batch_size=8,
                             max_queue=64, deadline=2.0,
                             worker_timeout=20.0,
                             # The kill drill asserts graceful
                             # degradation: the first death trips the
                             # flap-breaker, so the shard stays dead.
                             flap_threshold=1),
    ) as cluster:
        # Open-loop Zipf load.
        report = run_chaos(
            cluster, zipf_traffic(zipf_config(requests, rate), SEED), [],
            ChaosConfig(pace=False, probe_requests=0, drain_timeout=20.0),
        )
        assert report["cluster_accounted"], report
        assert report["service_accounted"]
        assert report["completed"] > 0

        # Paced run, closed to the arrival schedule: SLO attainment
        # (completions inside the router deadline) must reach 90%.
        paced_rate = min(rate, 400.0)
        paced = run_chaos(
            cluster,
            zipf_traffic(
                zipf_config(max(requests // 3, 50), paced_rate), SEED + 3
            ),
            [],
            ChaosConfig(probe_requests=0, drain_timeout=20.0),
        )
        assert paced["cluster_accounted"], paced
        assert paced["slo_attainment"] is not None
        assert paced["slo_attainment"] >= 0.9, paced["slo_attainment"]
        assert cluster.stats()["cluster"]["slo_attainment"] is not None

        # Kill one shard with traffic queued: the drain must return,
        # the survivors serve the rerouted users, accounting stays
        # exact.
        victim = cluster.live_shards[0]
        drill = list(zipf_traffic(
            zipf_config(max(requests // 2, 50), rate), SEED + 1
        ))
        for user, history, _ in drill[: len(drill) // 2]:
            cluster.submit(user, history)
        blackout(cluster, victim)
        for user, history, _ in drill[len(drill) // 2:]:
            cluster.submit(user, history)
        started = time.monotonic()
        cluster.drain(timeout=15.0)
        assert time.monotonic() - started < 15.0
        assert victim not in cluster.live_shards
        assert len(cluster.live_shards) == num_shards - 1
        assert cluster.accounted()
        assert cluster.stats()["service"]["accounted"]

        # Canary rollback: the canary trips the primary breaker during
        # probes, so the rollout must abort and restore every shard.
        before = cluster.describe()
        canary = FlakyCanary(untrained_vsan(SEED + 7))
        probes = [history for _, history, _ in drill[:4]]
        # One probe per shard: the canary serves it (retry in place)
        # while the hair-trigger breaker records the trip; a second
        # probe would short-circuit to the fallback and mask the trip
        # behind a degraded-probe verdict.
        rollout = cluster.rollout("VSAN", canary, probes,
                                  probes_per_shard=1)
        assert not rollout.ok
        assert rollout.rolled_back
        assert "breaker tripped" in (rollout.reason or ""), rollout.reason
        # The swap and the rollback each bump the engine's model
        # version; the rung's model class is what must come back.
        assert rung_models(cluster.describe()) == rung_models(before)

        final = cluster.stats()
        assert final["cluster"]["accounted"]
        assert final["service"]["accounted"]


def test_chaos_drill():
    requests, num_shards, rate = 240, 3, 240.0
    schedule = chaos_schedule(
        ChaosScheduleConfig(num_requests=requests, num_faults=6,
                            kinds=("kill", "stall")),
        SEED,
    )
    primary = untrained_vsan(SEED)
    pop = zipf_pop()

    def factory():
        return RecommendService(
            [("VSAN", primary), ("POP", pop)],
            num_items=NUM_ITEMS,
            config=ServiceConfig(top_n=10, deadline=2.0),
        )

    with ServingCluster(
        factory,
        config=ClusterConfig(
            num_shards=num_shards, replicas_per_shard=2,
            batch_size=4, max_queue=256, deadline=2.0,
            worker_timeout=20.0, respawn_backoff=0.05,
            stall_timeout=0.3, heartbeat_interval=0.1,
        ),
    ) as cluster:
        # run_chaos raises ClusterError the moment an accounting
        # invariant breaks at a checkpoint, after the drain or after
        # the probe wave.
        report = run_chaos(
            cluster,
            zipf_traffic(zipf_config(requests, rate), SEED),
            schedule,
            ChaosConfig(stall_seconds=0.9,
                        checkpoint_every=max(10, requests // 12)),
        )
        assert report["faults_applied"] >= 5, report["faults"]
        # Every fault hit a replicated shard, so in-flight work failed
        # over instead of dying.
        assert report["failed"] == 0
        assert report["availability"] >= 0.9, report["availability"]
        assert report["recovered"], cluster.stats()["cluster"]
        assert report["serving_shards"] == list(range(num_shards))
        assert report["probe_completed"] > 0
        assert report["respawns"] >= 1
        dip = report["goodput"]["dip_depth"]
        assert dip is not None and dip < 1.0, report["goodput"]
