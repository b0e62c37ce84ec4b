"""``cluster``: a ``ServingCluster`` of 2 shards x 1 replica.

The only workload that exercises routing, pipes and forked workers.
Each shard runs an engine over a dense 2k-item VSAN with no index, so
retrieval is bypassed (a retrieval change should leave this workload
unchanged), and the engine and service layers run with dense
full-width rows and per-shard caches.  Traffic is the same Zipf
generator as ``serve-catalog``.

- Set-up (``setup_s``): fork the workers and serve a warm-up stream
  from another sub-seed.
- Capacity phase (``job_s``): a closed loop that keeps fewer than
  ``max_queue`` requests outstanding, so nothing sheds.  It never
  flushes a partial router batch by hand (it keeps more requests
  outstanding than two partial batches hold), so batch composition
  depends on the seed only.
- Latency phase (``p50_ms``, ``p95_ms``): an open loop at a fixed
  rate; each request is timed from its scheduled arrival to the moment
  the router absorbs its reply.  That includes the router's batch-fill
  wait, which the cluster's own latency tracker (started at dispatch)
  leaves out.

The phases alternate in ``SEGMENTS`` rounds over equal parts of their
streams, each round ending with ``drain()``, so both sample the whole
run: ``job_s`` is ``SEGMENTS`` times the fastest capacity round, the
percentiles are those of the fastest latency round (see
``common.SEGMENTS``).
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from repro.core import VSAN
from repro.serve import (
    ClusterConfig,
    EngineConfig,
    RecommendService,
    ServiceConfig,
    ServingCluster,
)
from repro.tensor import set_default_dtype

from .common import (
    SEGMENTS,
    Outcome,
    alternate,
    fastest_round,
    fault_summary,
    median,
    peak_rss_mb,
    quantile,
    ranking_fault,
    setup_median,
    success_ratio,
)
from .inputs import CAPACITY, LATENCY, WARMUP, request_stream
from .tracing import Tracer

NUM_ITEMS = 2000
DIM = 64
WINDOW = 20
TOP_N = 10
SHARDS = 2
ROUTER_BATCH = 8
MAX_QUEUE = 256
#: Closed-loop concurrency: below ``MAX_QUEUE`` (nothing sheds) and
#: above ``SHARDS * (ROUTER_BATCH - 1)``, the most requests partial
#: router batches can hold, so replies always keep the loop moving.
OUTSTANDING = 64
#: Nominal capacity on the reference box, used only to size the
#: capacity stream to 40% of ``--seconds``.
CAPACITY_RATE = 2500.0
#: Open-loop rate of the latency phase, sized to 60% of ``--seconds``.
LATENCY_RATE = 800.0
WARMUP_REQUESTS = 2000
#: Distinct latency-phase users re-served in-process for ``quality``.
QUALITY_SAMPLE = 1024


class RecordingCluster(ServingCluster):
    """A ``ServingCluster`` that keeps what each reply carried.

    The router's public books (``records``) hold status and round-trip
    latency but not the ranked items, which the validity and quality
    checks need.  This keeps, per request id, the absorb time, status,
    items and round trip; ``unmatched`` counts replies the router did
    not book (late replies), which this workload must never see.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replies: dict[int, tuple] = {}
        self.unmatched = 0

    def _absorb_results(self, worker, replies) -> None:
        absorbed = time.perf_counter()
        first = len(self.records)
        super()._absorb_results(worker, replies)
        booked = self.records[first:]
        if len(booked) != len(replies):
            self.unmatched += len(replies) - len(booked)
            return
        for (request_id, ok, payload), record in zip(replies, booked):
            self.replies[request_id] = (
                absorbed, record[2], payload[0] if ok else None, record[4],
            )


class Client:
    """Submits requests and remembers the router id of each one queued
    (the router numbers queued submissions from 0)."""

    def __init__(self, cluster: RecordingCluster):
        self.cluster = cluster
        self.next_id = 0

    def submit(self, user, history) -> int | None:
        if self.cluster.submit(user, history) != "queued":
            return None
        self.next_id += 1
        return self.next_id - 1


def closed_loop(client: Client, stream) -> list:
    cluster = client.cluster
    ids = []
    for user, history, _ in stream:
        while cluster.inflight >= OUTSTANDING:
            cluster.pump(timeout=0.05)
        ids.append(client.submit(user, history))
        cluster.pump()
    cluster.drain()
    return ids


def open_loop(client: Client, stream, indices):
    """Submit requests ``indices`` of ``stream`` at their scheduled
    arrivals, on a schedule that starts at the first of them.

    Returns router ids, each request's due time (``perf_counter``
    clock) and how late each submission was.
    """
    cluster = client.cluster
    base = stream[indices[0]][2]
    origin = time.perf_counter()
    ids, due, late = [], [], []
    for index in indices:
        user, history, arrival = stream[index]
        arrival -= base
        while True:
            ahead = arrival - (time.perf_counter() - origin)
            if ahead <= 0:
                break
            cluster.pump(timeout=ahead)
        late.append(-ahead)
        due.append(origin + arrival)
        ids.append(client.submit(user, history))
        cluster.pump()
    cluster.drain()
    return ids, due, late


def build_model(seed: int, num_items: int) -> VSAN:
    model = VSAN(num_items, max_length=WINDOW, dim=DIM, h1=1, h2=1, k=1,
                 seed=seed)
    model.eval()
    return model


def service_factory(model, num_items: int):
    def factory():
        return RecommendService(
            [("vsan", model)],
            num_items=num_items,
            config=ServiceConfig(top_n=TOP_N, deadline=None),
            engine=EngineConfig(),
        )

    return factory


def _worker_pids(cluster) -> list[int]:
    return [cluster.pool.processes[w].pid for w in cluster.live_workers]


def _place(layout, pids) -> None:
    """Pin this process (the router) and the workers ``pids`` to the
    CPU sets of ``layout = (router, workers)``."""
    router, workers = layout
    os.sched_setaffinity(0, router)
    for pid in pids:
        os.sched_setaffinity(pid, workers)


def _pump_nonblocking(args, kwargs) -> bool:
    timeout = args[1] if len(args) > 1 else kwargs.get("timeout", 0.0)
    return timeout == 0.0


def instrument(tracer: Tracer) -> None:
    tracer.wrap(ServingCluster, "submit", "router.submit")
    tracer.wrap(ServingCluster, "pump", "router.pump",
                keep=_pump_nonblocking)


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Outcome:
    set_default_dtype(np.float32)
    # Set-up and capacity rounds run the router on one CPU and both
    # workers on another (the same one on a 1-CPU host), so job_s sees
    # router/worker overlap but not the scheduler's placement: a closed
    # loop free to move over both vCPUs of the reference box ran at the
    # mercy of hypervisor steal (job_s 4.6-10 s across runs of one
    # version).  All three on one CPU was no steadier (ten-seed spread
    # 13-14% against 8-17% pinned apart) and hid the overlap.  Latency
    # rounds get every CPU: the open loop needs little CPU, and pinned
    # it lost the idle CPU's pull of a waiting process (p95 spread
    # doubled).
    cpus = os.sched_getaffinity(0)
    apart = ({min(cpus)}, {max(cpus)})
    os.sched_setaffinity(0, apart[0])
    try:
        return _run(seed, seconds, trace, smoke, (apart, (cpus, cpus)))
    finally:
        os.sched_setaffinity(0, cpus)


def _run(seed, seconds, trace, smoke, layouts) -> Outcome:
    if smoke:
        num_items, warmup, capacity_count, latency_count = 300, 100, 200, 200
    else:
        num_items, warmup = NUM_ITEMS, WARMUP_REQUESTS
        capacity_count = round(0.4 * seconds * CAPACITY_RATE)
        latency_count = round(0.6 * seconds * LATENCY_RATE)
    model = build_model(seed, num_items)
    factory = service_factory(model, num_items)
    warmup_stream = request_stream(seed, WARMUP, num_items, warmup,
                                   LATENCY_RATE)
    spawn_times = []
    clusters = []

    def setup():
        start = time.perf_counter()
        cluster = RecordingCluster(
            factory,
            config=ClusterConfig(num_shards=SHARDS, batch_size=ROUTER_BATCH,
                                 max_queue=MAX_QUEUE),
        )
        clusters.append(cluster)
        _place(layouts[0], _worker_pids(cluster))
        spawn_times.append(time.perf_counter() - start)
        client = Client(cluster)
        closed_loop(client, warmup_stream)
        return client

    try:
        # Five set-ups, not three: each takes ~0.5 s, short enough for
        # one burst of host noise to cover it, and the first in a process
        # runs ~2x slower than the rest.
        client, setup_s = setup_median(
            setup, repeats=5, discard=lambda old: old.cluster.close()
        )
        outcome = _measure(client, seed, num_items, capacity_count,
                           latency_count, trace, factory, layouts)
    finally:
        for cluster in clusters:
            cluster.close()
    outcome.metrics["setup_s"] = setup_s
    if trace:
        outcome.layers["cluster.spawn_s"] = median(spawn_times)
    return outcome


def _measure(client, seed, num_items, capacity_count, latency_count, trace,
             factory, layouts) -> Outcome:
    cluster = client.cluster
    capacity_stream = request_stream(seed, CAPACITY, num_items,
                                     capacity_count, CAPACITY_RATE)
    latency_stream = request_stream(seed, LATENCY, num_items,
                                    latency_count, LATENCY_RATE)
    pids = _worker_pids(cluster)
    capacity_parts = np.array_split(np.arange(len(capacity_stream)),
                                    SEGMENTS)
    latency_parts = np.array_split(np.arange(len(latency_stream)), SEGMENTS)
    capacity_ids, latency_ids, due, late = [], [], [], []

    def capacity_round(k):
        capacity_ids.extend(closed_loop(
            client, [capacity_stream[i] for i in capacity_parts[k]]
        ))

    def latency_round(k):
        _place(layouts[1], pids)
        ids, times, lateness = open_loop(client, latency_stream,
                                         latency_parts[k])
        _place(layouts[0], pids)
        latency_ids.extend(ids)
        due.extend(times)
        late.extend(lateness)

    tracer = Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        if tracer is not None:
            instrument(tracer)
        capacity_times, cpu_s = alternate(capacity_round, latency_round,
                                          pids)
    rss = peak_rss_mb(pids)

    served = {}  # latency-phase user -> items, for the quality check
    latency, batch_wait, round_trip = [], [], []
    faults = []
    phases = ((capacity_stream, capacity_ids, None),
              (latency_stream, latency_ids, due))
    for stream, ids, due_times in phases:
        timed = due_times is not None
        for index, ((user, history, _), request_id) in enumerate(
            zip(stream, ids)
        ):
            reply = cluster.replies.get(request_id)
            if reply is None or reply[1] != "ok":
                faults.append("error")
            else:
                faults.append(
                    ranking_fault(reply[2], history, TOP_N, num_items)
                )
            if timed and faults[-1] is not None:
                # A failed request misses every latency limit.
                latency.append(float("inf"))
            elif timed:
                absorbed, _, items, trip = reply
                end_to_end = absorbed - due_times[index]
                latency.append(end_to_end)
                round_trip.append(trip)
                batch_wait.append(end_to_end - trip)
                served.setdefault(user, (history, items))
    attempted = len(capacity_stream) + len(latency_stream)
    failed, detail = fault_summary(faults)
    quality = identical_share(factory, list(served.values())[:QUALITY_SAMPLE])
    snapshot = cluster.stats()
    outcome = Outcome(
        metrics={
            "job_s": SEGMENTS * min(capacity_times),
            "p50_ms": 1e3 * fastest_round(latency, latency_parts, 0.5),
            "p95_ms": 1e3 * fastest_round(latency, latency_parts, 0.95),
            "cpu_s": cpu_s,
            "peak_rss_mb": rss,
            "quality": quality,
            "success_ratio": success_ratio(attempted, failed),
        },
        attempted=attempted,
        failed=failed,
    )
    outcome.check("no invalid ranking", "invalid" not in faults,
                  f"of {attempted}: {detail}")
    outcome.check("cluster accounted", cluster.accounted()
                  and snapshot["cluster"]["accounted"], "")
    outcome.check("merged service stats accounted",
                  cluster.merged_service_stats().accounted(), "")
    outcome.check("every reply booked", cluster.unmatched == 0,
                  f"{cluster.unmatched} unbooked replies")
    if tracer is not None:
        spans = tracer.durations
        outcome.layers = {
            "router.submit_us": 1e6 * median(spans["router.submit"]),
            # Mean, not median: most non-blocking pumps find nothing
            # to read, and the cost sits in the ones that absorb replies.
            "router.pump_ms": 1e3 * float(np.mean(spans["router.pump"]))
            if spans["router.pump"] else 0.0,
            "router.batch_wait_ms": 1e3 * median(batch_wait),
            "cluster.round_trip_ms": 1e3 * median(round_trip),
            "driver.late_ms": 1e3 * quantile(late, 0.95),
        }
    return outcome


def identical_share(factory, served) -> float:
    """Share of served rankings identical to an in-process service's
    ranking of the same history."""
    if not served:
        return 0.0
    service = factory()
    same = 0
    for begin in range(0, len(served), 32):
        chunk = served[begin:begin + 32]
        results = service.recommend_many([history for history, _ in chunk],
                                         top_n=TOP_N)
        same += sum(
            np.array_equal(result.items, items)
            for result, (_, items) in zip(results, chunk)
        )
    return same / len(served)
