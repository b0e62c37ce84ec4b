"""ForkedWorkerPool: the forked persistent-worker machinery behind the
serving cluster — spawn and retire of single slots, death reporting,
the SIGKILL drill hook, and the signal-all-then-join-once teardown."""

import multiprocessing
import time

import pytest

from repro.pool import ForkedWorkerPool, WorkerError


def _echo_loop(index, conn):
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "ping":
            conn.send(("pong", index, message[1]))


def _stubborn_loop(index, conn):
    # Never reads its pipe: teardown must escalate past the stop message.
    while True:
        time.sleep(60)


def _no_orphans():
    for _ in range(50):
        if not multiprocessing.active_children():
            return True
        time.sleep(0.1)
    return multiprocessing.active_children() == []


class TestRetire:
    def test_retire_reaps_one_dead_worker_and_closes_its_pipe(self):
        # The supervisor path: a replica dies, the router retires just
        # that slot (join + close its pipe) while the rest keep serving.
        with ForkedWorkerPool(role="shard worker") as pool:
            pool.spawn(_echo_loop)
            pool.spawn(_echo_loop)
            pool.kill(0)
            pool.retire(0)
            assert pool.connections[0].closed
            pool.send(1, ("ping", 3))
            assert pool.connections[1].poll(10.0)
            assert pool.connections[1].recv() == ("pong", 1, 3)
        assert _no_orphans()

    def test_respawn_after_retire_fills_a_new_slot(self):
        with ForkedWorkerPool() as pool:
            pool.spawn(_echo_loop)
            pool.kill(0)
            pool.retire(0)
            replacement = pool.spawn(_echo_loop)
            assert replacement == 1
            pool.send(replacement, ("ping", 9))
            assert pool.connections[replacement].poll(10.0)
            assert pool.connections[replacement].recv()[2] == 9
        assert _no_orphans()


class TestTeardown:
    def test_kill_drill_and_death_reporting(self):
        pool = ForkedWorkerPool(role="shard worker")
        pool.spawn(_echo_loop)
        pool.spawn(_echo_loop)
        pool.kill(1)
        assert not pool.alive(1)
        assert pool.alive(0)
        assert "shard worker 1 died" in str(pool.death(1))
        with pytest.raises(WorkerError, match="worker 1 died"):
            pool.send(1, ("ping", 0))
        pool.stop()
        assert _no_orphans()

    def test_stop_reaps_stubborn_workers_against_shared_deadline(self):
        pool = ForkedWorkerPool(join_timeout=0.5)
        for _ in range(3):
            pool.spawn(_stubborn_loop)
        start = time.monotonic()
        pool.stop()
        elapsed = time.monotonic() - start
        assert _no_orphans()
        # One shared graceful-join budget plus one terminate budget —
        # not a per-worker serial wait.
        assert elapsed < 4.0
        assert len(pool) == 0

    def test_stop_is_idempotent_and_safe_when_empty(self):
        pool = ForkedWorkerPool()
        pool.stop()  # never started
        pool.spawn(_echo_loop)
        pool.stop()
        pool.stop()
        assert _no_orphans()
