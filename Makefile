# Convenience targets for the CLADO reproduction.

.PHONY: verify install lint test chaos-smoke bench bench-smoke pretrain smoke reports clean-cache

# Default: lint conventions, the tier-1 suite, then the fault-injection
# equivalence gate (see docs/robustness.md).
.DEFAULT_GOAL := verify
verify: lint test chaos-smoke

install:
	pip install -e . || python setup.py develop

# AST check: no time.time() / bare print() inside src/repro
# (telemetry.monotonic / telemetry.emit are the sanctioned equivalents).
lint:
	python scripts/check_telemetry_lint.py

test:
	PYTHONPATH=src pytest tests/

# Fault gate: injected worker crashes and checkpoints and store entries
# damaged on disk must leave results bitwise unchanged, a group that raises
# must fail the sweep, and a node-capped solve must stay feasible
# (scripts/chaos_smoke.py).  REPRO_FAULT_PLAN reproduces only the two
# injected kinds, worker_crash and outlier_loss.
chaos-smoke:
	python scripts/chaos_smoke.py

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# Fast end-to-end pass (small sensitivity sets, few replicates).
smoke:
	REPRO_SCALE=smoke PYTHONPATH=src pytest benchmarks/ --benchmark-only

# Tiny perf gate: runtime profile, segmented-sweep speedup and the conv
# gather-vs-GEMM profile, appending a JSON row per run to
# reports/BENCH_sensitivity_cache.json and reports/BENCH_conv_gather.json.
bench-smoke:
	REPRO_SCALE=smoke PYTHONPATH=src pytest benchmarks/bench_runtime.py \
		benchmarks/bench_sensitivity_cache.py \
		benchmarks/bench_conv_gather.py --benchmark-only -q

pretrain:
	python -m repro pretrain

reports:
	@ls -1 reports/ 2>/dev/null || echo "run 'make bench' first"

clean-cache:
	rm -rf .cache reports
