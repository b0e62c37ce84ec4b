#!/usr/bin/env python
"""Where a compiled VSAN training step goes, op kind by op kind.

Usage, from the repository root::

    python benchmarks/profile_train_step.py [--replays 30] [--seed 0]

Builds the ``perfbench train`` corpus and VSAN model, trains one
float32 epoch with the default trimming and length bucketing and one
BLAS thread, as ``perfbench/run.py`` pins it, then profiles the
compiled program of the largest batch key (the one that sizes the
slab) with :meth:`repro.tensor.compile.Program.profile` and prints a
markdown table: forward and backward milliseconds per replay of each
op kind, and its share of the total.  The table in ``docs/TRAINING.md`` ("Where a step
goes") comes from this script.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import repro.train.trainer as trainer_module  # noqa: E402
from perfbench.inputs import beauty_dataset  # noqa: E402
from perfbench.train_workload import SCALE  # noqa: E402
from repro.experiments.zoo import build_model  # noqa: E402
from repro.tensor import default_dtype  # noqa: E402
from repro.tensor.compile import programs_for  # noqa: E402
from repro.train import Trainer, TrainerConfig  # noqa: E402


def largest_program(seed: int):
    """Train one epoch; return the largest training key, its program
    and the last batch rows seen under it."""
    dataset = beauty_dataset(SCALE)
    model = build_model("VSAN", dataset, seed=seed)
    seen = {}
    step = trainer_module.training_step_values

    def recording(trained, rows, check_finite=None):
        seen[trainer_module._training_key(trained, rows)] = rows.copy()
        return step(trained, rows, check_finite=check_finite)

    trainer_module.training_step_values = recording
    try:
        config = TrainerConfig(epochs=1, batch_size=128, seed=seed,
                               compute_dtype="float32")
        Trainer(config).fit(model, dataset.split.train)
    finally:
        trainer_module.training_step_values = step
    # The largest batch shape (the one that sizes the slab); key[-1]
    # says whether β is exactly 0.
    key = max(seen, key=lambda k: (np.prod(k[1]), not k[-1]))
    program, _terms = programs_for(model).get(key)
    return key, program, seen[key]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replays", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    key, program, rows = largest_program(args.seed)
    with default_dtype(np.float32):
        program.profile(3, {"rows": rows})  # warm-up
        table = program.profile(args.replays, {"rows": rows})
    total = sum(e["forward_ms"] + e["backward_ms"] for e in table.values())
    forward_steps = sum(e["forward_steps"] for e in table.values())
    backward_steps = sum(e["backward_steps"] for e in table.values())
    print(f"key {key[1]}, {forward_steps} forward steps, {backward_steps} "
          f"backward closures, {args.replays} replays, "
          f"{total:.1f} ms per replay with timers, "
          f"{program.placed_bytes / 2**20:.1f} MiB placed")
    print()
    print("| op kind | fwd + bwd ms | share |")
    print("|---|---|---|")
    for name, entry in sorted(
        table.items(),
        key=lambda item: -(item[1]["forward_ms"] + item[1]["backward_ms"]),
    ):
        both = entry["forward_ms"] + entry["backward_ms"]
        print(f"| `{name}` | {entry['forward_ms']:.1f} + "
              f"{entry['backward_ms']:.1f} | {100 * both / total:.0f} % |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
