# Convenience targets for the VSAN reproduction.

.PHONY: install test bench bench-serve bench-train bench-retrieval \
	bench-compile bench-cluster bench-full experiments examples clean resume-smoke \
	serve-smoke chaos-smoke

install:
	python setup.py develop

test:
	pytest tests/

test-log:
	pytest tests/ 2>&1 | tee test_output.txt

bench:
	PYTHONPATH=src pytest benchmarks/test_substrate_perf.py \
		benchmarks/test_serve_throughput.py --benchmark-only \
		--benchmark-json=BENCH_substrate.json
	python benchmarks/compare_bench.py BENCH_substrate.json

# Serving-path benchmarks only: engine throughput at batch 1/8/32, cache
# cold vs warm, plus the hard >= 3x engine-vs-sequential speedup gate
# (the gate test is skipped under --benchmark-only, so it runs second).
bench-serve:
	PYTHONPATH=src pytest benchmarks/test_serve_throughput.py \
		--benchmark-only --benchmark-json=BENCH_serve.json
	PYTHONPATH=src pytest benchmarks/test_serve_throughput.py \
		-k speedup_gate -q -s
	python benchmarks/compare_bench.py BENCH_serve.json

# Training-path benchmarks: epoch wall times for full/trimmed on a
# long-tail corpus, the >= 2x trimming+bucketing speedup gate, and the
# <= 1% NDCG@10 trimming parity gate (both skipped under
# --benchmark-only, so they run second).
bench-train:
	PYTHONPATH=src pytest benchmarks/test_train_throughput.py \
		--benchmark-only --benchmark-json=BENCH_train.json
	PYTHONPATH=src pytest benchmarks/test_train_throughput.py \
		-k gate -q -s
	python benchmarks/compare_bench.py BENCH_train.json

# Catalogue-scale retrieval benchmarks: dense vs two-stage IVF scoring
# on a 100k-item synthetic catalogue, the >= 3x speedup-at-recall>=0.95
# gate (vs the compiled dense baseline), the candidate-native gates (narrow warm-cache serving
# at <= 4 KB/entry and zero steady-state allocation; 1%-churn
# incremental index updates >= 10x a rebuild at matched recall), and the
# recall@N-vs-nprobe curve report (gate/curve tests are skipped under
# --benchmark-only, so they run second).  The regression
# threshold is looser than the default: these benches time a
# memory-bandwidth-bound GEMM whose wall time swings with neighbour
# load on shared hosts, while the gate itself is interleaved-median
# and noise-robust.
bench-retrieval:
	PYTHONPATH=src pytest benchmarks/test_retrieval.py \
		--benchmark-only --benchmark-json=BENCH_retrieval.json
	PYTHONPATH=src pytest benchmarks/test_retrieval.py \
		-k "gate or recall_curve" -q -s
	python benchmarks/compare_bench.py BENCH_retrieval.json --threshold 0.6

# Compiled-execution benchmarks: trace-and-replay vs eager for the VSAN
# training step and the batch-1 uncached engine forward, then the hard
# speedup gates (interleaved eager/compiled timing; skipped under
# --benchmark-only, so they run second).  Loose regression threshold for
# the same reason as bench-retrieval: sub-ms rounds drift on a busy
# single-core runner.
bench-compile:
	PYTHONPATH=src pytest benchmarks/test_compile.py \
		--benchmark-only --benchmark-json=BENCH_compile.json
	PYTHONPATH=src pytest benchmarks/test_compile.py \
		-k speedup_gate -q -s
	python benchmarks/compare_bench.py BENCH_compile.json --threshold 0.6

# Sharded-cluster benchmarks: open-loop Zipf replay from a 1M-user
# population through 1 and 2 shard worker processes, then the gates —
# sustained req/s + p99 with exact accounting across merged shard
# stats, and shed-don't-wedge under overload (gates are skipped under
# --benchmark-only, so they run second).
bench-cluster:
	PYTHONPATH=src pytest benchmarks/test_cluster.py \
		--benchmark-only --benchmark-json=BENCH_cluster.json
	PYTHONPATH=src pytest benchmarks/test_cluster.py \
		-k gate -q -s
	python benchmarks/compare_bench.py BENCH_cluster.json

# Crash-injection smoke test: SIGKILL a checkpointing training run,
# resume it, and require bit-identical losses/weights vs. straight-through.
resume-smoke:
	PYTHONPATH=src pytest tests/integration/test_crash_resume.py \
		tests/train/test_checkpoint.py -q

# Fault-injection smoke test of the serving layer: with seeded
# latency/exception/NaN faults hammering the primary rung, every request
# must still get a valid finite ranking from the fallback chain, the
# breaker must re-close once faults clear, and the stats must account
# for every request.
serve-smoke:
	PYTHONPATH=src python -m repro serve-smoke --requests 100
	PYTHONPATH=src python -m repro serve-smoke --cluster --requests 200
	PYTHONPATH=src pytest tests/serve -q

# Seeded chaos drill against the self-healing replicated cluster:
# SIGKILLs and stall injections fired on a deterministic schedule under
# paced load; replicated shards must lose zero requests, the accounting
# invariants must hold at every checkpoint, and the supervisor must
# respawn back to full capacity.  The hard wall-clock cap keeps a hung
# drill from wedging CI — a timeout here IS a failure.
chaos-smoke:
	timeout 180 env PYTHONPATH=src \
		python -m repro serve-smoke --chaos --requests 240

bench-all:
	pytest benchmarks/ --benchmark-only

bench-log:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-full:
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only -s

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
