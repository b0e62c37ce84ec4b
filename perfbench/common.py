"""Shared pieces of the benchmark: metric names and units, the outcome
of one run, timing statistics, process CPU and memory, ranking checks,
and the host fingerprint and noise every result carries."""

from __future__ import annotations

import gc
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: End-to-end metrics, reported by every workload with tracing off.
E2E_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
    "success_ratio": "ratio",
}

#: Per-layer metrics, reported by every workload in the traced run.  A
#: layer the workload does not call reads 0 (no calls, no time).
LAYER_UNITS = {
    "train.step_ms": "ms",
    "compile.traces": "count",
    "compile.hit_ratio": "ratio",
    "batching.ms": "ms",
    "batching.fill_ratio": "ratio",
    "optim.clip_ms": "ms",
    "optim.adam_ms": "ms",
    "eval.ms": "ms",
    "ranking.rank_us": "us",
    "model.hidden_last_ms": "ms",
    "retrieval.search_ms": "ms",
    "retrieval.rerank_ms": "ms",
    "engine.prefetch_ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.forward_batch": "rows",
    "service.batch_ms": "ms",
    "service.recommend_us": "us",
    "service.narrow_ratio": "ratio",
    "serve.window_wait_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "driver.late_ms": "ms",
    "router.submit_us": "us",
    "router.pump_ms": "ms",
    "router.batch_wait_ms": "ms",
    "cluster.round_trip_ms": "ms",
    "cluster.spawn_s": "s",
    "traced.job_s": "s",
    "traced.p50_ms": "ms",
}

#: Each setup is repeated this many times per run; ``setup_s`` is the
#: median, so one slow fork or page-fault storm does not move it.
SETUP_REPEATS = 3
#: Serving work is cut into this many rounds, alternating capacity and
#: latency rounds so both phases sample the whole run, and reports the
#: fastest round.  Host noise (hypervisor steal on the reference box)
#: only ever adds time and comes in bursts, so the round it disturbed
#: least is the steadiest estimate of the program's own speed: the
#: median round tracked steal (cluster p50 ~ 12 ms + 0.08 ms per steal
#: tick in the round), the fastest far less.
SEGMENTS = 10


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``; 0.0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return quantile(values, 0.5)


def fastest_round(values, rounds, q: float) -> float:
    """The lowest over ``rounds`` (index lists into ``values``) of each
    round's ``q``-quantile."""
    values = np.asarray(values, dtype=np.float64)
    return min(quantile(values[list(indices)], q) for indices in rounds)


def alternate(capacity_round, latency_round, pids=()):
    """Run ``SEGMENTS`` rounds of ``capacity_round(k)`` then
    ``latency_round(k)``, collecting garbage before each.

    Returns each capacity round's wall time and the CPU seconds (this
    process plus ``pids``) spent inside all rounds.
    """
    capacity_times, cpu = [], 0.0
    for k in range(SEGMENTS):
        for timed in (capacity_round, latency_round):
            settle()
            cpu_start = cpu_seconds(pids)
            start = time.perf_counter()
            timed(k)
            if timed is capacity_round:
                capacity_times.append(time.perf_counter() - start)
            cpu += cpu_seconds(pids) - cpu_start
    return capacity_times, cpu


def success_ratio(attempted: int, failed: int) -> float:
    return (attempted - failed) / max(attempted, 1)


def settle() -> None:
    """Run before every timed phase: collect garbage left by the last."""
    gc.collect()


def setup_median(build, repeats: int = SETUP_REPEATS, discard=None):
    """Run ``build()`` ``repeats`` times; return ``(last result, median
    seconds)``.  Each earlier result is passed to ``discard`` (untimed)
    and dropped before the next build."""
    times = []
    result = None
    for _ in range(repeats):
        if result is not None and discard is not None:
            discard(result)
        result = None
        settle()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return result, median(times)


# ----------------------------------------------------------------------
# Process CPU and memory
# ----------------------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def _proc_cpu(pid: int) -> float:
    """User+system seconds of a live process, from ``/proc/<pid>/stat``."""
    text = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the full line.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def cpu_seconds(pids=()) -> float:
    """User+system CPU seconds of this process plus the live ``pids``."""
    own = os.times()
    return own.user + own.system + sum(_proc_cpu(pid) for pid in pids)


def peak_rss_mb(pids=()) -> float:
    """Peak resident set of this process or the largest of ``pids``."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]) / 1024.0)
    return max(peaks)


# ----------------------------------------------------------------------
# Correctness of served rankings
# ----------------------------------------------------------------------

def ranking_fault(items, history, top_n: int, num_items: int) -> str | None:
    """``None`` for ``top_n`` unique, in-vocabulary items, none from
    ``history``; ``"short"`` for such a list with fewer than ``top_n``
    items (a failed request: the service never pads); ``"invalid"`` for
    anything else (a wrong answer)."""
    items = np.asarray(items)
    if not (
        items.ndim == 1
        and 1 <= len(items) <= top_n
        and len(np.unique(items)) == len(items)
        and np.all((items >= 1) & (items <= num_items))
        and not np.isin(items, history).any()
    ):
        return "invalid"
    return "short" if len(items) < top_n else None


def fault_summary(faults) -> tuple[int, str]:
    """Failed-request count and a one-line breakdown of ``faults``."""
    counts = {kind: 0 for kind in ("error", "short", "invalid")}
    for fault in faults:
        if fault is not None:
            counts[fault] += 1
    detail = ", ".join(f"{n} {kind}" for kind, n in counts.items())
    return sum(counts.values()), detail


# ----------------------------------------------------------------------
# Host fingerprint and noise
# ----------------------------------------------------------------------

def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree (the
    ceiling stops git from reporting an enclosing repository)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_fingerprint(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _commit(root),
        "threads": {
            name: os.environ.get(name)
            for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
    }


def steal_ticks() -> int:
    """Cumulative hypervisor steal ticks of all CPUs (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def loadavg() -> list[float]:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
