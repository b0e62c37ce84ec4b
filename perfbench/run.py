"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 0 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same work with spans around the layers' public entry points and prints
every per-layer metric (plus the traced run's own ``job_s`` and
``p50_ms``, whose difference from an untraced run is the tracing
overhead).  ``--workload all`` runs every workload both ways in child
processes and prints one table with the overhead.  ``--smoke`` shrinks
every size so a workload finishes in seconds (for tests).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is the host fingerprint and this run's host noise.  The exit
code is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per process, set before numpy loads; forked workers
# inherit it.  A second OpenBLAS thread on a 2-vCPU box only contends.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import (  # noqa: E402
    catalog_workload,
    cluster_workload,
    train_workload,
)
from perfbench.common import (  # noqa: E402
    E2E_UNITS,
    LAYER_UNITS,
    host_fingerprint,
    loadavg,
    steal_ticks,
)

WORKLOADS = {
    "train": train_workload.run,
    "serve-catalog": catalog_workload.run,
    "cluster": cluster_workload.run,
}

#: ``quality`` of every (workload, seed, size, source) run in this
#: checkout; a later run of the same inputs on the same code must
#: reproduce it bit for bit.
LEDGER = ROOT / ".perfbench" / "quality.json"


def source_digest() -> str:
    """Hash of the program's and the benchmark's source, so the ledger
    compares only runs of the same code and input generators."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_quality_repeats(key: str, quality: float) -> tuple[bool, str]:
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    seen = ledger.get(key)
    if seen is None:
        ledger[key] = quality.hex()
        LEDGER.parent.mkdir(exist_ok=True)
        temporary = LEDGER.with_suffix(".tmp")
        temporary.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(temporary, LEDGER)
        return True, "first run of these inputs"
    return seen == quality.hex(), f"earlier run gave {float.fromhex(seen)!r}"


def run_one(args) -> int:
    steal_before = steal_ticks()
    started = time.perf_counter()
    outcome = WORKLOADS[args.workload](
        args.seed, float(args.seconds), bool(args.trace), smoke=args.smoke
    )
    elapsed = time.perf_counter() - started
    key = (f"{args.workload} seed={args.seed} seconds={args.seconds}"
           f"{' smoke' if args.smoke else ''} source={source_digest()}")
    outcome.check("quality repeats for these inputs",
                  *check_quality_repeats(key, outcome.metrics["quality"]))

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<24} {outcome.metrics[name]:>14.6g} {unit}")
    if args.trace:
        layers = {name: 0.0 for name in LAYER_UNITS}
        layers.update(outcome.layers)
        layers["traced.job_s"] = outcome.metrics["job_s"]
        layers["traced.p50_ms"] = outcome.metrics["p50_ms"]
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<24} {layers[name]:>14.6g} {unit}")
        reported = {name: (layers[name], unit)
                    for name, unit in LAYER_UNITS.items()}
    else:
        reported = {name: (outcome.metrics[name], unit)
                    for name, unit in E2E_UNITS.items()}
    for name, ok, detail in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    host = host_fingerprint(ROOT)
    host["noise"] = {
        "steal_ticks": steal_ticks() - steal_before,
        "wall_s": round(elapsed, 3),
        "loadavg": loadavg(),
    }
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }, sort_keys=True))
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            last = done.stdout.strip().splitlines()[-1:]
            if done.returncode != 0 and not last:
                return done.returncode or 1
            results[trace] = json.loads(last[0])
            correct &= results[trace]["correct"]
            attempted += results[trace]["attempted"]
            failed += results[trace]["failed"]
            for name, entry in results[trace]["metrics"].items():
                metrics[f"{workload}.{name}"] = entry
        plain = results[0]["metrics"]["job_s"]["value"]
        traced = results[1]["metrics"]["traced.job_s"]["value"]
        overhead = 100.0 * (traced / plain - 1.0)
        print(f"{workload}: job_s {plain:.4g} s untraced, {traced:.4g} s "
              f"traced (tracing overhead {overhead:+.1f}%)")
        metrics[f"{workload}.trace.overhead_pct"] = {
            "value": overhead, "unit": "%",
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
