# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-report bench bench-smoke bench-report bench-full perf-gate examples check clean distclean results

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-report:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Fast end-to-end check: a tiny spec grid on 2 workers.
bench-smoke:
	$(PYTHON) -m repro spec --file examples/specs/smoke.json --jobs 2

# Perf-regression gate: run every bench in the registry of
# scripts/bench_diff.py at its gated size, write each candidate to a
# temporary directory and gate it against the committed BENCH_*.json
# (host-normalised rates, correctness contracts, fixed-seed outcomes).
# Exits non-zero if any entry fails; each gated payload appends a
# per-commit trend line to benchmarks/results/bench_history.jsonl.
perf-gate:
	$(PYTHON) scripts/bench_diff.py \
		--history benchmarks/results/bench_history.jsonl

# Paper-scale: >=10 rounds per cell and full workload grids.
bench-full:
	REPRO_BENCH_RUNS=10 REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

results:
	@ls -1 benchmarks/results/

# What CI runs: the tier-1 suite plus the store round-trip smoke (runs a
# tiny spec grid twice and asserts the second pass is 100% cache hits
# with byte-identical metrics; exits non-zero otherwise).
check:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) benchmarks/store_hit_rate.py --runs 1

# clean removes caches and scratch output only; benchmarks/results/ is
# git-tracked (committed benchmark summaries) and must survive a clean.
clean:
	rm -rf .pytest_cache .hypothesis test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +

# distclean additionally drops regenerable local state: the committed-
# results directory (restorable with git checkout) and local result
# stores.  The committed BENCH_*.json baselines are never deleted.
distclean: clean
	rm -rf benchmarks/results .repro-store.sqlite
