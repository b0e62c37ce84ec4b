# Convenience targets for the VSAN reproduction.

.PHONY: install test test-log gates bench-all bench-log bench-full \
	experiments examples clean resume-smoke serve-smoke chaos-smoke

install:
	python setup.py develop

test:
	pytest tests/

test-log:
	pytest tests/ 2>&1 | tee test_output.txt

# The hard performance gates (benchmarks/gates.py): each mechanism on
# against only that mechanism off as alternating pairs, plus absolute
# bounds on the narrow cache, the cluster and its chaos drill.  Prints
# one table; exits 1 on any red row.
gates:
	python benchmarks/gates.py

# Crash-injection smoke test: SIGKILL a checkpointing training run,
# resume it, and require bit-identical losses/weights vs. straight-through.
resume-smoke:
	PYTHONPATH=src pytest tests/integration/test_crash_resume.py \
		tests/train/test_checkpoint.py -q

# Serving drills (tests/integration/test_serve_drills.py) minus the
# chaos drill, plus the serving unit tests: with seeded
# latency/exception/NaN faults hammering the primary rung, every request
# must still get a valid finite ranking from the fallback chain, the
# breaker must re-close once faults clear, and the stats must account
# for every request; the cluster drill kills a shard and rolls back a
# canary.
serve-smoke:
	PYTHONPATH=src python -m pytest -q \
		tests/integration/test_serve_drills.py tests/serve \
		-k "not test_chaos_drill"

# Seeded chaos drill against the self-healing replicated cluster:
# SIGKILLs and SIGSTOP stalls fired on a deterministic schedule under
# paced load; replicated shards must lose zero requests, the accounting
# invariants must hold at every checkpoint, and the supervisor must
# respawn back to full capacity.  Also runs the harness's own tests
# (tests/serve/test_chaos.py).  The hard wall-clock cap keeps a hung
# drill from wedging CI — a timeout here IS a failure.
chaos-smoke:
	timeout 180 env PYTHONPATH=src python -m pytest -q \
		tests/integration/test_serve_drills.py::test_chaos_drill \
		tests/serve/test_chaos.py

bench-all:
	python -m pytest benchmarks/ --benchmark-only

bench-log:
	python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-full:
	REPRO_FULL=1 python -m pytest benchmarks/ --benchmark-only -s

experiments:
	python -m repro.experiments --save benchmarks/results

examples:
	python examples/quickstart.py
	python examples/beauty_marketplace.py --fast
	python examples/movielens_sessions.py --fast
	python examples/uncertainty_demo.py --fast
	python examples/attention_heatmap.py --fast
	python examples/custom_csv_pipeline.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf src/repro.egg-info .pytest_cache
