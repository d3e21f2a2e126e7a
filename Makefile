# Convenience targets for the GNNVault reproduction.

PYTHON ?= python

.PHONY: install test bench bench-serving bench-throughput bench-check bench-full obs-demo dashboard health chaos tenants vaultlint vaultlint-json perfbench perfbench-smoke examples report calibration clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-logged:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-logged:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-serving:
	$(PYTHON) -m pytest benchmarks/test_perf_serving.py -q

# Just the concurrent-client micro-batch scheduler benchmark (refreshes
# the `throughput` section of BENCH_serving.json).
bench-throughput:
	$(PYTHON) -m pytest benchmarks/test_perf_serving.py -q -k throughput

bench-check: bench-serving
	$(PYTHON) benchmarks/check_regression.py --trend

obs-demo:
	$(PYTHON) -m repro.cli metrics --dataset cora --epochs 15 --queries 50
	$(PYTHON) -m repro.cli trace --dataset cora --epochs 15 --queries 10
	$(PYTHON) -m repro.cli dashboard --dataset cora --epochs 15 --queries 200 \
		--probe --output benchmarks/results/dashboard.html
	$(PYTHON) -m repro.cli tenants --dataset cora --epochs 15 --queries 100 \
		--output benchmarks/results/tenant_report.json \
		--log-output benchmarks/results/serving_log.jsonl
	$(PYTHON) -m repro.cli logcheck benchmarks/results/serving_log.jsonl

# Per-tenant cost attribution report (hashed tenant ids) plus the
# correlated structured log; exit 0 iff the ledger reconciles exactly
# against the enclave's own ECALL cost counters.
tenants:
	$(PYTHON) -m repro.cli tenants --dataset cora --epochs 15 --queries 200 \
		--probe --quota-queries 100 \
		--output benchmarks/results/tenant_report.json \
		--log-output benchmarks/results/serving_log.jsonl
	$(PYTHON) -m repro.cli logcheck benchmarks/results/serving_log.jsonl

# Static HTML operator dashboard (with the link-stealing probe replayed so
# the security panel lights up) written into benchmarks/results/.
dashboard:
	$(PYTHON) -m repro.cli dashboard --dataset cora --epochs 15 --queries 500 \
		--probe --output benchmarks/results/dashboard.html

# SLO verdict for a demo workload; exit 0 healthy / 1 violated / 2 no data.
health:
	$(PYTHON) -m repro.cli health --dataset cora --epochs 15 --queries 500

# Chaos drill: kill the enclave mid-stream, recover from a sealed snapshot,
# and require every query answered with labels identical to a fault-free
# baseline. Exit 0 pass / 1 fail; report lands in benchmarks/results/.
chaos:
	$(PYTHON) -m repro.cli chaos --seed 0 --queries 200 --kill-at 90 \
		--output benchmarks/results/chaos_report.json

# Static trust-boundary analysis: import-boundary, egress-taint,
# telemetry-gate, and lock-discipline invariants over src/repro.
# Exit 0 clean / 1 new findings (vs vaultlint_baseline.json) / 2 errors.
vaultlint:
	$(PYTHON) -m repro.cli vaultlint

vaultlint-json:
	$(PYTHON) -m repro.cli vaultlint --format json \
		--output benchmarks/results/vaultlint_report.json

# The serving benchmark declared in BENCHMARK.json: one untraced 12 s run
# per workload (set-up time, peak RSS, per-layer numbers). The smoke
# target self-checks metric names, the label oracle and stream determinism.
PERFBENCH_WORKLOADS = seq-zipf open-tenants churn-resilient

perfbench:
	for w in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 12 --trace 0 || exit 1; \
	done

perfbench-smoke:
	$(PYTHON) perfbench/run.py --smoke

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

report:
	$(PYTHON) -m repro.cli report

calibration:
	$(PYTHON) -m repro.cli calibration

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results/REPORT.md
	find . -name __pycache__ -type d -exec rm -rf {} +
