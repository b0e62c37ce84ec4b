"""Forked persistent-worker pool behind the serving cluster.

:class:`ForkedWorkerPool` packages the process management that the
serving cluster (:mod:`repro.serve.cluster`) runs its shard processes
on: ``fork`` start-method workers that inherit live numpy models with
zero pickling, and one duplex pipe per worker whose parent end the
caller reads directly (``connections[i]``); a send to a dead worker
surfaces as a typed :class:`WorkerError` instead of a raw ``OSError``.

Teardown semantics (the part worth centralizing): ``stop()`` signals
**all** workers first and only then joins them against one *shared*
deadline, escalating ``terminate()`` → ``kill()`` for stragglers, and is
idempotent — so a pool of N slow-to-exit workers costs one join budget,
not N of them, and an exception mid-run can always reap the pool from a
``finally`` block without leaking processes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

__all__ = ["ForkedWorkerPool", "WorkerError"]


class WorkerError(RuntimeError):
    """A pooled worker died, hung, or raised while processing a message."""


class ForkedWorkerPool:
    """N forked persistent workers, one duplex pipe each.

    Args:
        role: noun used in error messages (e.g. ``"shard worker"``) so
            a traceback names the subsystem.
        stop_message: message broadcast by :meth:`stop` asking workers
            to exit their loop.
        join_timeout: shared budget (seconds) for each escalation stage
            of :meth:`stop` — graceful join, then terminate, then kill.

    Workers are spawned with :meth:`spawn`; the target runs in the
    forked child as ``target(index, conn, *args)`` where ``conn`` is the
    child end of the pipe.  Everything passed in ``args`` is inherited
    through ``fork`` — models, shared-memory buffers, mmap'd arrays —
    never pickled.  (Messages sent over the pipe afterwards *are*
    pickled, so keep those small and picklable.)
    """

    def __init__(
        self,
        role: str = "worker",
        stop_message=("stop",),
        join_timeout: float = 5.0,
    ):
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX only
            raise WorkerError(
                "ForkedWorkerPool needs the 'fork' start method "
                "(Linux/macOS)"
            ) from error
        self.role = role
        self._stop_message = stop_message
        self._join_timeout = join_timeout
        self.processes: list = []
        self.connections: list = []

    def __len__(self) -> int:
        return len(self.processes)

    def __enter__(self) -> "ForkedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def spawn(self, target, *args) -> int:
        """Fork one worker running ``target(index, conn, *args)``.

        Returns the worker's index.  The parent keeps the other pipe
        end in ``self.connections[index]``.
        """
        index = len(self.processes)
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=target, args=(index, child_conn, *args), daemon=True
        )
        process.start()
        child_conn.close()
        self.processes.append(process)
        self.connections.append(parent_conn)
        return index

    def alive(self, worker: int) -> bool:
        """Whether worker ``worker`` is still running."""
        return self.processes[worker].is_alive()

    def kill(self, worker: int) -> None:
        """SIGKILL one worker (fault-drill hook: simulates an OOM kill
        or segfault — no cleanup, no goodbye message)."""
        process = self.processes[worker]
        if process.pid is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=self._join_timeout)

    def retire(self, worker: int) -> None:
        """Reap one dead worker: join it and close the parent pipe end.

        The index slot is kept — indices are stable handles handed out
        by :meth:`spawn`, and supervisors (the serving cluster) key
        their books on them — so ``alive(worker)`` keeps reporting
        ``False`` and :meth:`stop` skips the closed pipe.  Call this
        after a worker death so a respawned replacement does not leak
        the dead worker's file descriptors for the process lifetime.
        """
        process = self.processes[worker]
        if process.is_alive():  # pragma: no cover - defensive: retire
            process.terminate()  # is for workers already observed dead
        process.join(timeout=self._join_timeout)
        try:
            self.connections[worker].close()
        except OSError:  # pragma: no cover - already closed
            pass

    def stop(self) -> None:
        """Reap the whole pool: signal all, join all, escalate.

        Every worker gets the stop message *before* any join starts, and
        each escalation stage (graceful join → ``terminate`` → ``kill``)
        runs against one shared deadline — a pool of N hung workers
        costs ``join_timeout`` once, not N times.  Safe to call twice
        and from ``finally`` blocks.
        """
        if not self.processes and not self.connections:
            return
        for connection in self.connections:
            try:
                connection.send(self._stop_message)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + self._join_timeout
        for process in self.processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        stragglers = [p for p in self.processes if p.is_alive()]
        if stragglers:  # pragma: no cover - defensive escalation
            for process in stragglers:
                process.terminate()
            deadline = time.monotonic() + self._join_timeout
            for process in stragglers:
                process.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
        for connection in self.connections:
            try:
                connection.close()
            except OSError:
                pass
        self.processes = []
        self.connections = []

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, worker: int, message) -> None:
        """Send ``message`` to one worker; a broken pipe surfaces as the
        worker's death, not a raw ``OSError``."""
        try:
            self.connections[worker].send(message)
        except (BrokenPipeError, OSError) as error:
            raise self.death(worker) from error

    def death(self, worker: int) -> WorkerError:
        """Build the typed error describing one worker's death."""
        process = self.processes[worker]
        process.join(timeout=1.0)
        return WorkerError(
            f"{self.role} {worker} died (exit code {process.exitcode})"
        )
