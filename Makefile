# Convenience targets for the GANNS reproduction.

PYTHON ?= python

.PHONY: install test bench bench-full bench-ab \
	bench-recovery experiments examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The acceptance gates CI runs; scripts/gates.py states each scenario
# and every bar (`--list` names the ten: serve chaos trace cluster
# mutate heal quant bakeoff bench examples).
#   make chaos-smoke
%-smoke:
	$(PYTHON) scripts/gates.py $*

# Alternating parent/change pairs of the ruler, judged by compare.py
# (the README's protocol for a claimed gain).  Parent = HEAD's src/,
# change = this checkout.
#   make bench-ab WORKLOADS="search_lowdim serve_replay" PAIRS=6
# LAYERS=1 adds one traced pass per side and prints the layers that moved.
# RECORD=1 appends the judged pairs to BENCH_e2e.json under LABEL.
WORKLOADS ?=
PAIRS ?= 10
LAYERS ?=
RECORD ?=
LABEL ?= unlabelled
bench-ab:
	$(PYTHON) scripts/bench_ab.py --pairs $(PAIRS) \
		$(foreach w,$(WORKLOADS),--workload $(w)) \
		$(if $(LAYERS),--layers) \
		$(if $(RECORD),--record BENCH_e2e.json --label "$(LABEL)")

# Regenerate the committed recovery benchmark (MTTR vs shard size and
# WAL depth), BENCH_recovery.json.
bench-recovery:
	$(PYTHON) benchmarks/bench_recovery.py --output BENCH_recovery.json

experiments:
	$(PYTHON) scripts/collect_experiments.py

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

clean:
	rm -rf .bench_cache benchmarks/results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
