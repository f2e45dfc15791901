# Development entry points for the FanWW14 reproduction.
#
#   make test         - tier-1 test suite (the gate every PR must keep green),
#                       then the async tests again in asyncio debug mode
#   make lint         - ruff + mypy when installed, compileall always
#   make coverage     - tier-1 suite under pytest-cov + committed-floor gate
#                       (skips with a warning when pytest-cov is missing)
#   make bench-smoke  - the per-PR perf gate: the CSR-backend and batched-kernel
#                       floors, ratios measured in one process (no baseline),
#                       and Search alone (bench_search.py: oracle digest, every
#                       miss given a cause, F floors; counts, no timing floor),
#                       and Fig. 8c/8d's accuracy non-decreasing in alpha at
#                       the full scale (bench_figures.py)
#   make bench        - every pytest benchmark: the paper figures
#                       (bench_figures.py), preprocessing, ablations, Search
#                       alone (bench_search.py), RBReach alone
#                       (bench_reach.py) and the bench-smoke floors
#   make bench-e2e    - the front-door benchmark BENCHMARK.json declares: six
#                       GraphService workloads, untraced then traced (~4 min;
#                       E2E_ARGS="--seed 11 --out A1.json" passes flags through)
#   make docs-check   - run README code blocks + lint documentation links
#   make ci           - every gate .github/workflows/ci.yml enforces (the
#                       workflow runs coverage as a parallel job; locally it
#                       runs inline, re-running the suite under pytest-cov
#                       when installed), printing which gate failed
#   make test-soak    - the slow_shm shared-memory/daemon soak tests
#                       (deselected from tier-1; run nightly)
#   make nightly      - the soak tests + every pytest benchmark (the nightly
#                       workflow then runs bench-e2e)

PYTHON ?= python
export PYTHONPATH := src

CI_GATES := lint test docs-check coverage bench-smoke

.PHONY: test test-soak lint coverage bench-smoke bench bench-e2e docs-check ci nightly

# --durations: the ten slowest tests in every log, so the tier-1 budget
# (<=2 min, ROADMAP.md) is visible before it is broken.
# Second pass, asyncio debug mode with RuntimeWarning as an error: a coroutine
# the front-end's drain (or a subscription stream) created and never awaited
# fails the gate instead of printing a warning nobody reads (~2 s; the
# front-end's tests, subscription streams included, are this one file).
test:
	$(PYTHON) -m pytest -x -q --durations=10
	PYTHONASYNCIODEBUG=1 $(PYTHON) -W error::RuntimeWarning -m pytest -x -q tests/test_service_async.py

test-soak:
	$(PYTHON) -m pytest tests -m slow_shm -q

lint:
	$(PYTHON) tools/lint.py

coverage:
	$(PYTHON) tools/coverage_gate.py

bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_backend_csr.py benchmarks/bench_kernels_batched.py benchmarks/bench_search.py \
		benchmarks/bench_figures.py::test_sweep_at_full_scale -q -p no:cacheprovider

# The benchmark files are named bench_*.py, which pytest's default pattern
# (test_*.py) does not collect from a directory.
bench:
	$(PYTHON) -m pytest benchmarks/ -q -p no:cacheprovider -o python_files='bench_*.py test_*.py'

bench-e2e:
	python3 benchmarks/e2e/run.py $(E2E_ARGS)

docs-check:
	$(PYTHON) tools/docs_check.py

# Run every CI gate in sequence and name the one that failed: a red
# `make ci` must say *which* gate broke, not just exit 2.
ci:
	@set -e; for gate in $(CI_GATES); do \
		echo "==> make $$gate"; \
		$(MAKE) --no-print-directory $$gate || { echo "CI GATE FAILED: $$gate"; exit 1; }; \
	done; echo "all CI gates passed: $(CI_GATES)"

nightly: test-soak bench
