# Convenience targets for the query-auditing reproduction.

PY ?= python

.PHONY: install test faults lint analyze typecheck bench examples \
	serve-demo figures clean

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

# The crash/recover/replay drills (docs/ROBUSTNESS.md).
faults:
	PYTHONPATH=src $(PY) -m pytest -q -m faults tests/

# ruff/mypy may be absent in the offline container; the in-tree analyzer
# (`repro-audit lint`) always runs.
lint:
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests; \
	else echo "ruff not installed -- skipping style checks"; fi
	PYTHONPATH=src $(PY) -m repro lint

# The full static gate (all eight families: SIM, DET, WAL, BUD, CONC,
# FORK, ATOM, LEAK) against the shipped baseline — what CI's
# lint-analysis job runs.
analyze:
	PYTHONPATH=src $(PY) -m repro lint --baseline .repro-audit-baseline.json

typecheck:
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed -- skipping type checks"; fi
	PYTHONPATH=src $(PY) -m repro lint --quiet

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PY) $$script || exit 1; \
	done

# End-to-end tour of the networked serving tier (docs/API.md).
serve-demo:
	PYTHONPATH=src $(PY) examples/serving_demo.py

figures:
	$(PY) -m repro fig1
	$(PY) -m repro fig2
	$(PY) -m repro fig3

clean:
	rm -rf src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
