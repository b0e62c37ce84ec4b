"""End-to-end serving smoke test (the ``repro serve-smoke`` command).

Proves the fault-tolerance story on a real model with real faults:

1. builds (or loads) a VSAN checkpoint and *safe-loads* it, after first
   demonstrating that truncated and bit-flipped copies of the same file
   are rejected with :class:`CheckpointError`;
2. stands up a ``VSAN → SASRec → POP`` service with the VSAN rung
   wrapped in a seeded :class:`FaultInjector` (latency spikes, raised
   exceptions, NaN-poisoned scores);
3. drives a faulty phase — every request must still get a valid, finite,
   deduplicated, in-vocabulary ranking from *some* rung — then clears
   the faults and verifies the primary breaker re-closes and the primary
   rung takes traffic back;
4. asserts the service's accounting is exact: every request landed in
   exactly one outcome bucket.

Exit code 0 means all of the above held; any violation raises
:class:`SmokeFailure` (mapped to exit 1 by the CLI).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from ..data import generate, prepare_corpus, read_interactions_csv, tiny_config
from ..train import Trainer, TrainerConfig
from ..retrieval import IndexConfig
from .breaker import CLOSED, CircuitBreaker
from .engine import EngineConfig
from .errors import CheckpointError
from .faults import FaultInjector, FaultyRecommender, flip_byte, truncate_file
from .loading import safe_load_model
from .retry import RetryPolicy
from .service import Recommendation, RecommendService, ServiceConfig

__all__ = [
    "SmokeFailure",
    "run_chaos_smoke",
    "run_cluster_smoke",
    "run_smoke",
]


class SmokeFailure(AssertionError):
    """A serving invariant was violated during the smoke run."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _check_recommendation(rec, history: np.ndarray, num_items: int) -> None:
    items = np.asarray(rec.items)
    _require(items.size > 0, "empty recommendation list")
    _require(
        np.issubdtype(items.dtype, np.integer),
        f"non-integer item ids ({items.dtype})",
    )
    _require(
        bool(((items >= 1) & (items <= num_items)).all()),
        f"out-of-vocabulary ids in ranking: {items.tolist()}",
    )
    _require(
        len(np.unique(items)) == len(items),
        f"duplicate ids in ranking: {items.tolist()}",
    )
    _require(
        not np.isin(items, history).any(),
        "ranking recommends items from the user's own history",
    )


def _corrupt_checkpoint_drill(checkpoint: Path, registry, log) -> None:
    """Truncated and bit-flipped copies must raise CheckpointError."""
    with tempfile.TemporaryDirectory() as scratch:
        for corrupt, label in (
            (truncate_file, "truncated"),
            (flip_byte, "bit-flipped"),
        ):
            copy = Path(scratch) / f"{label}.npz"
            shutil.copyfile(checkpoint, copy)
            corrupt(copy)
            try:
                safe_load_model(copy, registry)
            except CheckpointError:
                log(f"  {label} checkpoint rejected with CheckpointError")
            else:
                raise SmokeFailure(
                    f"{label} checkpoint loaded without error"
                )


def run_smoke(
    requests: int = 100,
    seed: int = 0,
    error_rate: float = 0.35,
    nan_rate: float = 0.35,
    latency_rate: float = 0.1,
    data: str | None = None,
    checkpoint: str | None = None,
    epochs: int = 2,
    verbose: bool = True,
    engine: bool = False,
    retrieval: bool = False,
) -> int:
    """Run the smoke scenario; returns 0 on success.

    Args:
        requests: total requests (half faulty phase, half clear phase).
        seed: seeds data generation, training, and the fault injector.
        error_rate / nan_rate / latency_rate: injector probabilities for
            the faulty phase.
        data: optional interactions CSV (default: synthetic tiny config).
        checkpoint: optional pre-trained VSAN checkpoint (default: train
            a throwaway one on the corpus).
        epochs: training budget for throwaway models.
        verbose: print progress and the final stats snapshot.
        engine: route every rung through the
            :class:`repro.serve.InferenceEngine` (micro-batching + score
            cache) and drive traffic through ``recommend_many`` — the
            same fault invariants must hold, plus the engine must show
            real coalescing and cache activity.
        retrieval: (implies ``engine``) configure an *approximate* IVF
            index on every rung's engine; the run then additionally
            asserts the two-stage path actually served requests (index
            searches happened and the index was not in exact mode).
    """
    from ..core import VSAN
    from ..models import POP, SASRec

    engine = engine or retrieval
    log = print if verbose else (lambda *args, **kwargs: None)
    registry = {"VSAN": VSAN, "SASRec": SASRec}

    if data is not None:
        interactions = read_interactions_csv(data)
    else:
        interactions = generate(tiny_config(), seed=seed)
    corpus = prepare_corpus(interactions)
    num_items = corpus.num_items
    max_length = 20
    log(f"corpus: {len(corpus.sequences)} users, {num_items} items")

    trainer = Trainer(TrainerConfig(
        epochs=epochs, batch_size=64, verbose=False, seed=seed
    ))

    with tempfile.TemporaryDirectory() as scratch:
        if checkpoint is None:
            from ..nn import save_checkpoint

            config = dict(
                num_items=num_items, max_length=max_length, dim=16,
                h1=1, h2=1, k=1, seed=seed,
            )
            vsan = VSAN(**config)
            trainer.fit(vsan, corpus)
            checkpoint = str(Path(scratch) / "vsan.npz")
            save_checkpoint(vsan, checkpoint, config=config)
            log(f"trained throwaway VSAN ({epochs} epochs) -> checkpoint")
        checkpoint = Path(checkpoint)

        log("corrupt-checkpoint drill:")
        _corrupt_checkpoint_drill(checkpoint, registry, log)

        primary = safe_load_model(checkpoint, registry)
        log(f"safe-loaded primary model from {checkpoint.name}")

        sasrec = SASRec(num_items, max_length, dim=16, num_blocks=1,
                        seed=seed)
        trainer.fit(sasrec, corpus)
        pop = POP(num_items).fit(corpus)

        injector = FaultInjector(
            error_rate=error_rate,
            nan_rate=nan_rate,
            latency_rate=latency_rate,
            latency=0.01,
            seed=seed,
        )
        cooldown = 0.05
        service = RecommendService(
            [
                ("VSAN", FaultyRecommender(primary, injector)),
                ("SASRec", sasrec),
                ("POP", pop),
            ],
            num_items=num_items,
            config=ServiceConfig(top_n=10, deadline=2.0,
                                 unknown_items="drop"),
            retry=RetryPolicy(max_attempts=2, base_delay=0.002,
                              max_delay=0.01, seed=seed),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=0.5, window=8, min_calls=4,
                cooldown=cooldown, half_open_probes=2,
            ),
            engine=(
                EngineConfig(
                    max_batch=16,
                    index=(
                        # Deliberately approximate: half the lists
                        # probed, so exact-mode short-circuiting cannot
                        # mask a broken two-stage path.
                        IndexConfig(
                            nlist=4, nprobe=2,
                            candidates=max(24, num_items // 2),
                            seed=seed,
                        )
                        if retrieval else None
                    ),
                )
                if engine else None
            ),
        )
        if engine:
            log("engine mode: micro-batched recommend_many "
                f"(max_batch=16, LRU score cache"
                f"{', approximate IVF retrieval' if retrieval else ''})")

        def serve_chunk(chunk):
            """One service call per request, or one coalesced batch."""
            if engine:
                results = service.recommend_many(chunk)
                for history, rec in zip(chunk, results):
                    _require(
                        isinstance(rec, Recommendation),
                        f"batched request failed with {rec!r}",
                    )
                    _check_recommendation(rec, history, num_items)
            else:
                for history in chunk:
                    rec = service.recommend(history)
                    _check_recommendation(rec, history, num_items)

        histories = corpus.sequences
        faulty_phase = requests // 2
        log(f"phase 1: {faulty_phase} requests with injected faults "
            f"(error={error_rate}, nan={nan_rate}, latency={latency_rate})")
        for start in range(0, faulty_phase, 10):
            chunk = [
                histories[index % len(histories)]
                for index in range(start, min(start + 10, faulty_phase))
            ]
            serve_chunk(chunk)
            # Requests are far faster than the cooldown, so an open
            # breaker would otherwise short-circuit the whole phase;
            # let it reach half-open so faulty probes keep flowing.
            time.sleep(cooldown * 1.5)
        tripped = service.breaker("VSAN").times_opened
        _require(
            tripped > 0,
            "injected faults never tripped the primary breaker; raise "
            "the fault rates or the request count",
        )
        served_primary_before = service.stats()["served_by_rung"].get(
            "VSAN", 0
        )
        _require(
            sum(injector.injected.values()) > 0,
            "no faults were actually injected during the faulty phase",
        )
        log(f"  primary breaker tripped {tripped}x; injected faults: "
            f"{injector.injected}; all {faulty_phase} requests served "
            f"valid rankings")

        injector.disable()
        time.sleep(cooldown * 2)  # let the open breaker reach half-open
        clear_phase = requests - faulty_phase
        log(f"phase 2: {clear_phase} requests with faults cleared")
        for start in range(0, clear_phase, 16):
            serve_chunk([
                histories[index % len(histories)]
                for index in range(start, min(start + 16, clear_phase))
            ])
        stats = service.stats()
        _require(
            service.breaker("VSAN").state == CLOSED,
            f"primary breaker did not re-close after faults cleared "
            f"(state={service.breaker('VSAN').state})",
        )
        _require(
            stats["served_by_rung"].get("VSAN", 0) > served_primary_before,
            "primary rung served no traffic after faults cleared",
        )
        _require(
            stats["requests"] == requests,
            f"request counter drifted: {stats['requests']} != {requests}",
        )
        _require(
            stats["served"] == requests,
            f"not every request was served: {stats['served']}/{requests}",
        )
        _require(
            stats["accounted"],
            f"stats do not account for every request: {stats}",
        )
        if engine:
            snap = stats["rungs"]["VSAN"]["engine"]
            _require(
                snap["batcher"]["batched_requests"] > 0,
                "engine mode served traffic but the batcher never ran",
            )
            _require(
                snap["batcher"]["largest_flush"] > 1,
                "requests were never actually coalesced "
                f"(largest flush = {snap['batcher']['largest_flush']})",
            )
            _require(
                snap["cache"]["hits"] > 0,
                "repeat traffic produced no score-cache hits",
            )
            log(
                f"engine OK: largest flush "
                f"{snap['batcher']['largest_flush']}, cache hit rate "
                f"{snap['cache']['hit_rate']:.0%}"
            )
            if retrieval:
                retr = snap["retrieval"]
                _require(
                    retr is not None,
                    "retrieval mode requested but the primary engine "
                    "never built an index",
                )
                _require(
                    not retr["exact"],
                    "retrieval smoke must exercise the approximate "
                    "path, but the index ran in exact mode",
                )
                _require(
                    retr["searches"] > 0,
                    "retrieval index built but no request was served "
                    "through it",
                )
                _require(
                    retr["narrow_batches"] > 0,
                    "approximate retrieval served traffic but the "
                    "candidate-native (narrow) path never ran",
                )
                _require(
                    stats["narrow_ranked"] > 0,
                    "narrow scores were produced but no request was "
                    "ranked straight from its candidate list",
                )
                cache_bytes = snap["cache"]["bytes_per_entry"]
                # The memory win only materializes at catalogue scale
                # (gated hard in benchmarks/test_retrieval.py); at toy
                # sizes just require the byte accounting to be live.
                _require(
                    cache_bytes > 0,
                    "narrow entries cached but the byte accounting "
                    "stayed at zero",
                )
                log(
                    f"retrieval OK: {retr['searches']} searches over "
                    f"nlist={retr['nlist']} nprobe={retr['nprobe']}, "
                    f"{retr['scanned']} vectors scanned, "
                    f"{stats['narrow_ranked']} narrow-ranked requests, "
                    f"{cache_bytes:.0f} cache bytes/entry"
                )
        log("phase 2 OK: breaker re-closed, primary restored")
        log(json.dumps(stats, indent=2, sort_keys=True))
        # The one-line verdict is printed even in quiet mode.
        print(f"serve-smoke OK: {requests}/{requests} valid rankings, "
              f"{stats['fallbacks']} served from fallback rungs")
    return 0


class _FlakyCanary:
    """A canary that fails its first call, then serves correctly.

    One :class:`~repro.serve.errors.TransientError` per shard replica is
    exactly enough to trip a hair-trigger breaker during rollout probes
    — while the in-place retry still serves every probe from the canary
    rung itself, so the breaker trip (not a degraded probe) is what the
    rollout health check must catch.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = f"flaky-canary({getattr(inner, 'name', type(inner).__name__)})"
        self._failures_left = 1

    def score(self, history: np.ndarray) -> np.ndarray:
        return self.score_batch([history])[0]

    def score_batch(self, histories) -> np.ndarray:
        from .errors import TransientError

        if self._failures_left > 0:
            self._failures_left -= 1
            raise TransientError("injected canary fault")
        return self.inner.score_batch(histories)


def run_cluster_smoke(
    requests: int = 300,
    num_shards: int = 3,
    seed: int = 0,
    rate: float = 500.0,
    verbose: bool = True,
) -> int:
    """Three drills against a live sharded cluster; returns 0 on success.

    1. **Load** — replay seeded Zipf traffic (1M-user population) open
       loop through ``num_shards`` forked shard services; every arrival
       must land in exactly one outcome bucket, cluster-side and in the
       merged shard :class:`~repro.serve.ServiceStats`.  A second,
       **paced** replay then runs closed to the arrival schedule and
       must report >= 90% SLO attainment (completions inside the router
       deadline at the offered rate), with the same metric visible in
       ``stats()``.
    2. **Kill drill** — SIGKILL one shard while its queue is full
       (respawn pinned off: this drill proves graceful *degradation*;
       the self-healing path has its own chaos drill).  The drain must
       return (shed/failed, never hung), accounting must stay exact,
       and rerouted traffic for the dead shard's users must be served
       by the survivors.
    3. **Canary rollback** — roll out a canary that trips the primary
       breaker during probes; the rollout must abort, roll every swapped
       shard back, and ``describe()`` must show the prior model
       restored on every shard.

    Args:
        requests: arrivals for the load phase (the kill drill replays
            half as many more).
        num_shards: shard worker processes.
        seed: seeds traffic, models, and the injected canary fault.
        rate: offered load of the generated schedule, req/s.
        verbose: print per-phase progress.
    """
    from types import SimpleNamespace

    from ..core import VSAN
    from ..data.synthetic import (
        ZipfCatalogConfig,
        ZipfTrafficConfig,
        zipf_histories,
        zipf_traffic,
    )
    from ..models import POP
    from .breaker import CircuitBreaker
    from .cluster import ClusterConfig, ServingCluster

    log = print if verbose else (lambda *args, **kwargs: None)

    traffic_config = ZipfTrafficConfig(
        num_users=1_000_000, num_items=200, num_requests=requests,
        rate=rate, max_length=18,
    )
    num_items = traffic_config.num_items

    # Models are built in the parent and inherited by each forked shard
    # (copy-on-write, never pickled).  An untrained VSAN scores finite,
    # valid rankings — the drills exercise the serving machinery, not
    # ranking quality.
    primary = VSAN(num_items=num_items, max_length=20, dim=16,
                   h1=1, h2=1, k=1, seed=seed)
    pop = POP(num_items).fit(SimpleNamespace(
        num_items=num_items,
        sequences=zipf_histories(
            ZipfCatalogConfig(num_users=32, num_items=num_items), seed
        ),
    ))

    def factory():
        return RecommendService(
            [("VSAN", primary), ("POP", pop)],
            num_items=num_items,
            config=ServiceConfig(top_n=10, deadline=2.0),
            retry=RetryPolicy(max_attempts=3, base_delay=0.001,
                              max_delay=0.002, seed=seed),
            breaker_factory=lambda: CircuitBreaker(
                # Hair trigger: a single failure trips.  Healthy-phase
                # traffic never fails, so only the canary drill arms it.
                failure_threshold=0.5, window=6, min_calls=1,
                cooldown=30.0,
            ),
        )

    with ServingCluster(
        factory,
        config=ClusterConfig(num_shards=num_shards, batch_size=8,
                             max_queue=64, deadline=2.0,
                             worker_timeout=20.0,
                             # Phase 2 asserts graceful degradation —
                             # the killed shard must *stay* dead.
                             respawn=False),
    ) as cluster:
        log(f"cluster: {num_shards} shards, "
            f"{traffic_config.num_users:,} simulated users")

        # -- Phase 1: open-loop Zipf load ------------------------------
        log(f"phase 1: {requests} Zipf arrivals at {rate:.0f} req/s "
            f"(open loop)")
        report = cluster.run_load(
            zipf_traffic(traffic_config, seed), drain_timeout=20.0
        )
        _require(report["cluster_accounted"],
                 f"cluster accounting drifted under load: {report}")
        _require(report["service_accounted"],
                 "merged shard stats violate accounted() under load")
        _require(report["completed"] > 0, "load phase completed nothing")
        log(f"  sustained {report['sustained_rps']:.0f} req/s, "
            f"p99 {report['latency'].get('p99_ms', 0.0):.1f} ms, "
            f"{report['shed']} shed, {report['failed']} failed")

        # -- Phase 1b: paced closed-SLO run ----------------------------
        paced_requests = max(requests // 3, 50)
        paced_rate = min(rate, 400.0)
        log(f"phase 1b: {paced_requests} arrivals paced at "
            f"{paced_rate:.0f} req/s (closed to schedule, SLO = "
            f"deadline {cluster.config.deadline}s)")
        paced = cluster.run_load(
            zipf_traffic(
                ZipfTrafficConfig(
                    num_users=traffic_config.num_users,
                    num_items=num_items,
                    num_requests=paced_requests, rate=paced_rate,
                    max_length=18,
                ),
                seed + 3,
            ),
            pace=True,
            drain_timeout=20.0,
        )
        _require(paced["cluster_accounted"],
                 f"cluster accounting drifted under paced load: {paced}")
        _require(paced["slo_attainment"] is not None,
                 "paced run reported no SLO attainment despite a "
                 "router deadline")
        _require(paced["slo_attainment"] >= 0.9,
                 f"SLO attainment {paced['slo_attainment']:.2%} < 90% "
                 f"at the offered rate ({paced_rate:.0f} req/s)")
        _require(
            cluster.stats()["cluster"]["slo_attainment"] is not None,
            "stats() does not report slo_attainment",
        )
        log(f"  SLO attainment {paced['slo_attainment']:.1%} at "
            f"{paced_rate:.0f} req/s offered")

        # -- Phase 2: kill one shard mid-run ---------------------------
        victim = cluster.live_shards[0]
        log(f"phase 2: kill drill — SIGKILL shard {victim} with "
            f"traffic queued")
        drill = list(zipf_traffic(
            ZipfTrafficConfig(
                num_users=traffic_config.num_users, num_items=num_items,
                num_requests=max(requests // 2, 50), rate=rate,
                max_length=18,
            ),
            seed + 1,
        ))
        for user, history, _ in drill[: len(drill) // 2]:
            cluster.submit(user, history)
        cluster.kill_shard(victim)
        for user, history, _ in drill[len(drill) // 2:]:
            cluster.submit(user, history)
        drill_started = time.monotonic()
        cluster.drain(timeout=15.0)
        drill_elapsed = time.monotonic() - drill_started
        _require(drill_elapsed < 15.0,
                 f"drain hung for {drill_elapsed:.1f}s after the kill")
        _require(victim not in cluster.live_shards,
                 f"dead shard {victim} still marked live")
        _require(len(cluster.live_shards) == num_shards - 1,
                 f"expected {num_shards - 1} survivors, have "
                 f"{cluster.live_shards}")
        _require(cluster.accounted(),
                 "cluster accounting drifted across the shard kill")
        stats = cluster.stats()
        _require(stats["service"]["accounted"],
                 "merged shard stats violate accounted() after the kill")
        log(f"  shard {victim} gone in {drill_elapsed:.2f}s: "
            f"{cluster.failed} failed with it, queue rerouted, "
            f"{cluster.completed} served total, accounting exact")

        # -- Phase 3: canary rollout with injected breaker trip --------
        log("phase 3: canary rollback drill — canary trips the primary "
            "breaker during probes")
        before = cluster.describe()
        canary = _FlakyCanary(
            VSAN(num_items=num_items, max_length=20, dim=16,
                 h1=1, h2=1, k=1, seed=seed + 7)
        )
        probes = [history for _, history, _ in drill[:4]]
        # One probe per shard: the canary serves it (retry in place)
        # while the hair-trigger breaker records the trip; a second
        # probe would short-circuit to the fallback and mask the trip
        # behind a degraded-probe verdict.
        rollout = cluster.rollout("VSAN", canary, probes,
                                  probes_per_shard=1)
        _require(not rollout.ok, "flaky canary rollout reported ok")
        _require(rollout.rolled_back,
                 "failed rollout did not roll swapped shards back")
        _require("breaker tripped" in (rollout.reason or ""),
                 f"rollback happened for the wrong reason: "
                 f"{rollout.reason}")
        after = cluster.describe()
        _require(after == before,
                 f"rollback did not restore the prior models: "
                 f"{before} -> {after}")
        log(f"  rollout aborted on shard {rollout.failed_shard} "
            f"({rollout.reason}); all shards restored to "
            f"{before[cluster.live_shards[0]]['VSAN']['model']}")

        final = cluster.stats()
        _require(final["cluster"]["accounted"],
                 "final cluster accounting drifted")
        _require(final["service"]["accounted"],
                 "final merged shard stats violate accounted()")
        log(json.dumps(final["cluster"], indent=2, sort_keys=True))
        # The one-line verdict is printed even in quiet mode.
        print(
            f"serve-smoke cluster OK: {cluster.completed}/"
            f"{cluster.submitted} served, {cluster.shed} shed, "
            f"{cluster.failed} failed with the killed shard, canary "
            f"rolled back on breaker trip"
        )
    return 0


def run_chaos_smoke(
    requests: int = 240,
    num_shards: int = 3,
    replicas_per_shard: int = 2,
    faults: int = 6,
    seed: int = 0,
    rate: float = 240.0,
    verbose: bool = True,
) -> int:
    """Seeded chaos drill against the self-healing cluster; 0 on success.

    Replays paced Zipf traffic through ``num_shards`` replica groups
    while a seeded schedule SIGKILLs and stalls workers
    (:func:`repro.serve.chaos.run_chaos` asserts the accounting
    invariants at every checkpoint), then requires:

    - at least 5 faults actually fired;
    - **zero failed requests** — every fault hit a replicated shard, so
      in-flight work failed over instead of dying;
    - availability (completed/submitted) >= 90% despite the faults;
    - full recovery — every killed worker respawned, every shard back
      on the ring with a full replica group, and every shard serving
      both a control round-trip and data-plane probe traffic.

    The seed is printed even in quiet mode so a CI failure is
    replayable bit-for-bit with ``serve-smoke --chaos --seed N``.
    """
    from types import SimpleNamespace

    from ..core import VSAN
    from ..data.synthetic import (
        ChaosScheduleConfig,
        ZipfCatalogConfig,
        ZipfTrafficConfig,
        chaos_schedule,
        zipf_histories,
        zipf_traffic,
    )
    from ..models import POP
    from .chaos import ChaosConfig, run_chaos
    from .cluster import ClusterConfig, ServingCluster

    log = print if verbose else (lambda *args, **kwargs: None)

    traffic_config = ZipfTrafficConfig(
        num_users=1_000_000, num_items=200, num_requests=requests,
        rate=rate, max_length=18,
    )
    num_items = traffic_config.num_items
    schedule = chaos_schedule(
        ChaosScheduleConfig(
            num_requests=requests, num_faults=faults,
            kinds=("kill", "stall"),
        ),
        seed,
    )
    # Printed even in quiet mode: the one line that makes a CI failure
    # replayable.
    print(f"chaos drill: seed={seed}, {len(schedule)} scheduled faults "
          f"(replay: serve-smoke --chaos --seed {seed})")

    primary = VSAN(num_items=num_items, max_length=20, dim=16,
                   h1=1, h2=1, k=1, seed=seed)
    pop = POP(num_items).fit(SimpleNamespace(
        num_items=num_items,
        sequences=zipf_histories(
            ZipfCatalogConfig(num_users=32, num_items=num_items), seed
        ),
    ))

    def factory():
        return RecommendService(
            [("VSAN", primary), ("POP", pop)],
            num_items=num_items,
            config=ServiceConfig(top_n=10, deadline=2.0),
        )

    with ServingCluster(
        factory,
        config=ClusterConfig(
            num_shards=num_shards,
            replicas_per_shard=replicas_per_shard,
            batch_size=4, max_queue=256, deadline=2.0,
            worker_timeout=20.0,
            respawn=True, respawn_backoff=0.05,
            stall_timeout=0.3, heartbeat_interval=0.1,
        ),
    ) as cluster:
        log(f"cluster: {num_shards} shards x {replicas_per_shard} "
            f"replicas, {traffic_config.num_users:,} simulated users; "
            f"stall probe at 0.3s")
        report = run_chaos(
            cluster,
            zipf_traffic(traffic_config, seed),
            schedule,
            ChaosConfig(stall_seconds=0.9,
                        checkpoint_every=max(10, requests // 12)),
            log=log,
        )
        _require(report["faults_applied"] >= 5,
                 f"only {report['faults_applied']} faults fired; the "
                 f"drill needs >= 5 to mean anything")
        _require(report["failed"] == 0,
                 f"{report['failed']} requests failed — replica "
                 f"failover should have replayed them")
        _require(report["availability"] >= 0.9,
                 f"availability {report['availability']:.2%} < 90% "
                 f"under chaos")
        _require(report["recovered"],
                 "cluster did not recover full capacity after the "
                 f"faults: {cluster.stats()['cluster']}")
        _require(
            report["serving_shards"] == list(range(num_shards)),
            f"not every shard serves control traffic after recovery: "
            f"{report['serving_shards']}",
        )
        _require(report["probe_completed"] > 0,
                 "healed cluster served no probe traffic")
        _require(report["respawns"] >= 1,
                 "faults fired but the supervisor never respawned")
        _require(
            report["goodput"]["dip_depth"] is not None
            and report["goodput"]["dip_depth"] < 1.0,
            f"goodput fully stalled during the drill: "
            f"{report['goodput']}",
        )
        log(json.dumps(
            {key: report[key] for key in (
                "availability", "slo_attainment", "goodput", "respawns",
                "max_recovery_seconds", "wall_seconds",
            )},
            indent=2, sort_keys=True, default=str,
        ))
        # The one-line verdict is printed even in quiet mode.
        print(
            f"serve-smoke chaos OK: {report['faults_applied']} faults, "
            f"{report['completed']}/{report['submitted']} served, "
            f"0 failed, {report['respawns']} respawns, recovered in "
            f"<= {report['max_recovery_seconds']:.2f}s per death"
        )
    return 0
