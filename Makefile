# Convenience targets for the GANNS reproduction.

PYTHON ?= python

.PHONY: install test bench bench-full bench-smoke bench-ab \
	quant-smoke bakeoff-smoke cluster-smoke mutate-smoke heal-smoke \
	bench-recovery experiments examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The CI benchmark gate: the end-to-end ruler's smoke pass (every
# workload's correctness gate, span coverage, every per-layer metric).
bench-smoke:
	python3 benchmarks/e2e/run.py --smoke --check

# Alternating parent/change pairs of the ruler, judged by compare.py
# (the README's protocol for a claimed gain).  Parent = HEAD's src/,
# change = this checkout.
#   make bench-ab WORKLOADS="search_lowdim serve_replay" PAIRS=6
WORKLOADS ?=
PAIRS ?= 10
bench-ab:
	python3 scripts/bench_ab.py --pairs $(PAIRS) \
		$(foreach w,$(WORKLOADS),--workload $(w))

# The CI quant gate: quantized staged search keeps recall@10 within
# 0.02 of exact, is deterministic, shrinks the footprint, and its
# serve-replay quant metrics reconcile with zero drift.  (Speed is the
# benchmark's search_highdim_quant vs search_highdim throughput.)
quant-smoke:
	$(PYTHON) scripts/check_quant_smoke.py

# The CI bake-off gate: every family clears its recall floor and cagra
# construction stays below nsw on the smoke dataset.
bakeoff-smoke:
	$(PYTHON) benchmarks/bench_bakeoff.py --quick \
		--output bakeoff_smoke.json
	$(PYTHON) scripts/check_bakeoff_smoke.py bakeoff_smoke.json

# The CI cluster gate: 10x2 scatter-gather at 10x serve-smoke volume,
# byte-identical replays, bounded p99, zero silent wrong answers.
cluster-smoke:
	$(PYTHON) -m repro cluster-sim \
		--points 1000 --queries 200 --requests 2000 \
		--qps 10000 --queries-per-request 10 \
		--shards 10 --replicas 2 \
		--fault-plan replica-loss --fault-seed 0 --no-governor \
		| tee cluster-sim.out
	$(PYTHON) scripts/check_cluster_smoke.py cluster-sim.out

# The CI mutate gate: crash-chaos mutation workloads at >= 3 seeds,
# byte-identical reruns, exact recovery digests, zero wrong answers.
mutate-smoke:
	$(PYTHON) -m repro mutate-sim \
		--points 200 --dims 16 --ops 24 --seed 0 \
		--compact-every 6 --checkpoint-every 9 \
		--fault-plan compaction-crash --fault-seed 0 \
		| tee mutate-sim.out
	$(PYTHON) scripts/check_mutate_smoke.py mutate-sim.out

# The CI heal gate: whole-stack chaos soak (cluster + mutable + quant)
# at 3 seeds x 2 runs, byte-identical reruns, zero wrong answers,
# every replica loss healed within the MTTR bound, quarantined
# rebuilds never admitted.
heal-smoke:
	$(PYTHON) -m repro soak-sim --seed 0 | tee soak-sim.out
	$(PYTHON) scripts/check_heal_smoke.py soak-sim.out

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
