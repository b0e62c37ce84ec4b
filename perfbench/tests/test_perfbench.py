"""Tests of the benchmark itself: seeded inputs, the tracer, the metric
list in BENCHMARK.json, and a smoke run of every workload.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import catalog_workload, cluster_workload, train_workload
from perfbench.common import E2E_UNITS, LAYER_UNITS, fastest_round
from perfbench.inputs import (
    CAPACITY,
    LATENCY,
    beauty_dataset,
    request_stream,
    schedule_windows,
)
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("train", "serve-catalog", "cluster")


def _same_stream(a, b) -> bool:
    return len(a) == len(b) and all(
        ua == ub and np.array_equal(ha, hb) and ta == tb
        for (ua, ha, ta), (ub, hb, tb) in zip(a, b)
    )


def test_corpus_and_split_are_one_fixed_dataset():
    first, second = beauty_dataset(0.5), beauty_dataset(0.5)
    for a, b in zip(first.corpus.sequences, second.corpus.sequences):
        assert np.array_equal(a, b)
    for part in ("validation", "test"):
        for a, b in zip(getattr(first.split, part),
                        getattr(second.split, part)):
            assert np.array_equal(a.fold_in, b.fold_in)
            assert np.array_equal(a.targets, b.targets)


def test_request_streams_and_windows_repeat_for_a_seed():
    stream = request_stream(7, CAPACITY, 5000, 3000, 2500.0)
    assert _same_stream(stream, request_stream(7, CAPACITY, 5000, 3000,
                                               2500.0))
    assert not _same_stream(stream, request_stream(7, LATENCY, 5000, 3000,
                                                   2500.0))
    assert not _same_stream(stream, request_stream(8, CAPACITY, 5000, 3000,
                                                   2500.0))
    windows = schedule_windows(stream, 0.01)
    assert windows == schedule_windows(list(stream), 0.01)
    # Every request sits in exactly one window, in arrival order, and
    # arrives before its window closes.
    assert [i for _, indices in windows for i in indices] == list(
        range(len(stream))
    )
    for window, indices in windows:
        for index in indices:
            assert window * 0.01 <= stream[index][2] < (window + 1) * 0.01
    # About 40% of requests come from users seen earlier in the stream.
    users = [user for user, _, _ in stream]
    assert 0.3 < 1 - len(set(users)) / len(users) < 0.55


def test_fastest_round_ignores_noisy_rounds():
    # Host noise slowed every round but the fourth.
    values = np.full(100, 5.0)
    values[30:40] = 1.0
    rounds = np.array_split(np.arange(100), 10)
    assert fastest_round(values, rounds, 0.5) == 1.0
    assert fastest_round(values, rounds, 0.95) == 1.0


class _Base:
    def inherited(self, x):
        return x + 1


class _Child(_Base):
    def own(self, x):
        return self.inherited(x) * 2


def _module_function(x):
    return x * 3


def test_tracer_times_self_and_child_and_restores():
    module = sys.modules[__name__]
    originals = (
        vars(module)["_module_function"], vars(_Child)["own"],
        vars(_Base)["inherited"],
    )
    with Tracer() as tracer:
        tracer.wrap(module, "_module_function", "fn")
        tracer.wrap(_Child, "own", "own")
        tracer.wrap(_Child, "inherited", "inherited")  # defined on _Base
        assert "inherited" not in vars(_Child)
        assert _Child().own(1) == 4
        assert _module_function(2) == 6
    assert [len(tracer.durations[s]) for s in ("fn", "own", "inherited")] \
        == [1, 1, 1]
    child = tracer.durations["inherited"][0]
    assert tracer.self_times["own"][0] == pytest.approx(
        tracer.durations["own"][0] - child
    )
    assert (vars(module)["_module_function"], vars(_Child)["own"],
            vars(_Base)["inherited"]) == originals
    assert "inherited" not in vars(_Child)


def test_tracer_restores_after_an_error():
    original = vars(_Base)["inherited"]
    with pytest.raises(TypeError):
        with Tracer() as tracer:
            tracer.wrap(_Base, "inherited", "inherited")
            _Base().inherited("not a number")
    assert vars(_Base)["inherited"] is original
    assert len(tracer.durations["inherited"]) == 1


@pytest.mark.parametrize(
    "workload", [train_workload, catalog_workload, cluster_workload]
)
def test_every_workload_target_is_restored(workload):
    with Tracer() as tracer:
        workload.instrument(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, name, original in patched:
            assert vars(owner)[name] is not original
    for owner, name, original in patched:
        assert vars(owner)[name] is original


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _run(workload: str, trace: int, cwd=ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_and_repeats_quality(workload):
    results = []
    for trace in (0, 1, 0):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        units = LAYER_UNITS if trace else E2E_UNITS
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == units
        results.append(result)
    first, _, again = results
    assert first["metrics"]["quality"] == again["metrics"]["quality"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
