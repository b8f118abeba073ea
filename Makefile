# Convenience targets for the reproduction repository.

.PHONY: install test lint faults slo slo-baseline fastpath fastpath-baseline layout-bench train-bench quantize bench bench-smoke experiments report plan trace obs-diff clean-cache loc

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Generic style (ruff, if installed).  The repo's own source rules run
# with the tests (tests/test_source_rules.py, docs/architecture.md §7).
lint:
	-ruff check src tests

test-output:
	pytest tests/ 2>&1 | tee test_output.txt

# Reliability subsystem: fault injection, guarded execution, integrity.
faults:
	pytest tests/test_reliability_faults.py tests/test_reliability_guard.py \
		tests/test_reliability_integrity.py tests/test_forest_io_integrity.py \
		tests/test_experiments_fault_sweep.py tests/test_failure_injection.py

# Chaos soak (docs/architecture.md §8, §10): replay the seeded chaos grid
# twice with request-scoped tracing, insist slo_report.json and every
# Chrome trace are byte-identical across the replays, then gate every
# scenario against the checked-in baseline (results/slo_baseline.json):
# any wrong answer, a p99 latency above 1.25x or a shed rate more than
# 0.05 above the baseline's, a newly violated SLO, or cost-model
# calibration drift fails.  Artifacts land in results/slo/.
slo:
	PYTHONPATH=src python -m repro.obs slo --scale smoke \
		--out results/slo --check

# Regenerate the soak baseline after an intentional serving/SLO change.
slo-baseline:
	PYTHONPATH=src python -m repro.obs slo --scale smoke \
		--out results/slo --write-baseline

# Fastpath perf trajectory (docs/architecture.md §11): golden equivalence
# suite, then the trace-vs-fastpath bench gated against the checked-in
# BENCH_fastpath.json (a median speedup >10% below the baseline's median,
# or below the 50x acceptance floor, fails).
fastpath:
	PYTHONPATH=src python -m pytest tests/test_fastpath.py -q
	PYTHONPATH=src python benchmarks/bench_fastpath.py --scale smoke --check

# Regenerate the fastpath baseline after an intentional perf change.  Three
# times the gate's passes, so the baseline median sits near the true one.
fastpath-baseline:
	PYTHONPATH=src python benchmarks/bench_fastpath.py --scale smoke --write-baseline

# Cold-start layout build (docs/architecture.md §11): per-stage median
# wall time of HierarchicalForest.from_trees and the FIL build on the six
# checked-in forests, written to BENCH_layout.json.  Also compares every
# rebuilt layout to tests/data/hier_layout_golden.json; only a digest
# mismatch fails (wall times depend on the host, so none is gated).
layout-bench:
	PYTHONPATH=src python benchmarks/bench_layout_build.py

# Training (docs/architecture.md §1): per-stage median wall time of a
# forest fit (binner fit, binner transform, bootstrap, tree build) and
# nodes/s for the e2e train workload and the six checked-in forests,
# written to BENCH_train.json.  Every retrained forest must match its
# pinned forest_fingerprint; only a mismatch fails (times are not gated).
train-bench:
	PYTHONPATH=src python benchmarks/bench_train.py

# Precision axis (docs/architecture.md §12): regenerate the checked-in
# accuracy/footprint frontier artifact, then gate the codec claims
# (int8 within 0.5 pp of float32, packed >= 3x smaller, packed on the
# Pareto frontier) through the bench assertions.
quantize:
	PYTHONPATH=src python -m repro.experiments.cli quantize-frontier \
		--scale default --out results/
	REPRO_BENCH_SCALE=smoke PYTHONPATH=src:. python -m pytest \
		benchmarks/bench_quantize_frontier.py --benchmark-only -q

bench:
	pytest benchmarks/ --benchmark-only

bench-smoke:
	REPRO_BENCH_SCALE=smoke pytest benchmarks/ --benchmark-only

bench-output:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

experiments:
	repro-experiments all --scale default --out results/

report:
	python -m repro.experiments.report default EXPERIMENTS.md

# Runtime planner (docs/architecture.md §9): autotune an ExecutionPlan per
# (dataset, platform) and print the chosen-plan table.
plan:
	PYTHONPATH=src python -m repro.runtime plan --scale smoke

# Observability (docs/architecture.md §8): trace a seeded smoke run into
# results/obs (Chrome-trace timeline + Prometheus text + run manifest).
trace:
	PYTHONPATH=src python -m repro.obs trace --out results/obs

# Determinism proof: trace the same seed twice and diff the manifests.
# Exits non-zero if any counter moved between identical seeded runs.
obs-diff:
	PYTHONPATH=src python -m repro.obs trace --out results/obs-a
	PYTHONPATH=src python -m repro.obs trace --out results/obs-b
	PYTHONPATH=src python -m repro.obs diff \
		results/obs-a/run_manifest.jsonl results/obs-b/run_manifest.jsonl

clean-cache:
	rm -rf .cache

# Python line counts per tree, then the total (every PR reports src and total).
loc:
	@for d in src tests benchmarks examples; do \
		printf "%-10s %s\n" $$d "$$(find $$d -name '*.py' | xargs cat | wc -l)"; \
	done
	@printf "%-10s %s\n" total "$$(find src tests benchmarks examples -name '*.py' | xargs cat | wc -l)"
