#!/usr/bin/env python
"""The acceptance gates: one table, one runner.

    python scripts/gates.py [name ...]    # no name = every gate, in order
    python scripts/gates.py --list

Each gate is a function in ``GATES``.  It states its scenario once, runs
CLI commands in-process through :func:`run_cli` (exit code read
directly, stdout echoed), asserts every bar with :func:`require`, and
returns the one-line summary CI keeps as its record (the runner appends
the gate's host seconds).  A gate that also
replays its scenario in-process reads the numbers from the CLI line it
just ran, so the two cannot drift apart.

Exit code 0 when every named gate holds, 1 at the first missed bar, 2 on
an unknown gate name.  ``make <name>-smoke`` runs one gate.
"""

import collections
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro import (BatchPolicy, ClusterEngine, SearchParams, ServeEngine,
                   build_nsw_cpu, cli, exact_knn,
                   ganns_search, load_dataset, named_fault_plan,
                   recall_at_k, recover, run_mutation_sim,
                   synthetic_trace)
from repro.datasets.synthetic import gaussian_mixture
from repro.heal import HealPolicy, count_wrong_answers, run_soak_sim
from repro.observability import (MetricsRegistry, SpanTracer,
                                 parse_chrome_trace)
from repro.perf.quant import quantize_points

ROOT = Path(__file__).resolve().parent.parent


class GateFailure(Exception):
    """A gate's bar was missed."""


def require(ok, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def run_cli(argv, *markers: str) -> str:
    """Run ``repro <argv>`` in-process and return (and echo) its stdout.
    The command must exit 0 and print every marker (the sim commands
    verify their report against its registry before the digest line)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(list(argv))
    text = captured.getvalue()
    sys.stdout.write(text)
    require(code == 0, f"repro {argv[0]} exited {code}")
    for marker in markers:
        require(marker in text,
                f"repro {argv[0]} printed no {marker!r} line")
    return text


def cli_args(argv):
    """The namespace ``repro`` parses ``argv`` into."""
    return cli.build_parser().parse_args(argv)


def run_script(*argv: str) -> str:
    """Run a repo script with this interpreter, from the repo root;
    echo and return its stdout."""
    sys.stdout.flush()
    done = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    require(done.returncode == 0,
            f"{' '.join(argv)} exited {done.returncode}")
    return done.stdout


def same_bytes(make, what: str):
    """``make()`` twice: equal canonical bytes.  Returns the first."""
    first, second = make(), make()
    require(first.to_bytes() == second.to_bytes(),
            f"{what}: two runs produced different report bytes")
    return first


SERVE_CLI = ("serve-sim --points 1000 --queries 200 --requests 2000 "
             "--qps 50000 --max-batch 128 --max-wait-ms 1.0").split()


def gate_serve() -> str:
    """Every answer, cache hits included, is a direct search's."""
    text = run_cli(SERVE_CLI, "ServeReport:")
    # The same scenario again, built from the same argv by the CLI's
    # own builder: it must print the same report, and every answer must
    # be byte-identical to one direct search of the trace's queries.
    trace, engine = cli.serve_scenario(cli_args(SERVE_CLI))
    report = engine.replay(trace)
    require(report.summary() in text, "the in-process replay's summary "
            "is not the one serve-sim printed")
    queries = np.concatenate([req.queries for req in trace])
    direct = ganns_search(engine.graph, engine.points, queries,
                          engine.params)
    compared = collections.Counter()
    wrong = row = 0
    for req, outcome in zip(trace, report.outcomes):
        rows = slice(row, row + req.n_queries)
        row += req.n_queries
        if not outcome.served:
            continue
        compared[outcome.status.name] += 1
        wrong += not (np.array_equal(outcome.ids, direct.ids[rows])
                      and np.array_equal(outcome.dists, direct.dists[rows]))
    require(wrong == 0, f"{wrong} served answers diverge from direct "
            f"search")
    require(compared["CACHE_HIT"] > 0, "no cache hit was compared: the "
            "cache half of the oracle is vacuous")
    summary = next(line for line in text.splitlines()
                   if line.startswith("ServeReport:"))
    return (f"{summary}; compared {compared['SERVED']} searched and "
            f"{compared['CACHE_HIT']} cache hits: {wrong} "
            f"silently-wrong answers")


CHAOS_CLI = ("chaos-sim --points 1000 --queries 200 --requests 2000 "
             "--qps 100000 --max-batch 128 --max-wait-ms 0.5 "
             "--fault-plan aggressive --fault-seed 0").split()


def gate_chaos(argv=CHAOS_CLI) -> str:
    """Faults fired, and no served answer is silently wrong."""
    text = run_cli(argv, "scheduled faults delivered", "report digest")
    delivered = int(re.search(r"FaultReport: (\d+)/", text).group(1))
    # A smoke run where no fault armed exercises nothing.
    require(delivered > 0, "the chaos-sim run delivered zero faults")

    # The same scenario again, built from the same argv by the CLI's
    # own builder: every served answer must be byte-identical to a
    # direct search at the tier the request was served at.
    trace, _plan, engine = cli.chaos_scenario(cli_args(argv))
    report = engine.replay(trace)
    digest = report.digest()[:16]
    require(f"report digest {digest}" in text, f"the in-process replay's "
            f"digest {digest} is not the one chaos-sim printed")
    require(report.fault_report.n_injected == delivered,
            f"the in-process replay injected "
            f"{report.fault_report.n_injected} faults, not {delivered}")
    # chaos-sim requests carry one query each: row i answers request i.
    queries = np.concatenate([req.queries for req in trace])
    direct = {}
    compared = collections.Counter()
    wrong = 0
    for row, req in enumerate(trace):
        outcome = report.outcomes[req.request_id]
        if not outcome.served:
            continue
        tier = outcome.degraded_tier
        if tier not in direct:
            direct[tier] = ganns_search(
                engine.graph, engine.points, queries,
                engine.governor.params_for(tier, engine.params))
        compared[tier] += 1
        wrong += not (
            np.array_equal(outcome.ids[0], direct[tier].ids[row])
            and np.array_equal(outcome.dists[0], direct[tier].dists[row]))
    require(wrong == 0, f"{wrong} served answers diverge from direct "
            f"search at their tier")
    tiers = ", ".join(f"{n} at tier {tier}"
                      for tier, n in sorted(compared.items()))
    require(any(tier > 0 for tier in compared), f"no answer served below "
            f"tier 0 was compared ({tiers}): half the oracle is vacuous")
    return (f"{report.n_served} served ({report.n_degraded} degraded), "
            f"{report.n_failed} failed, {delivered} faults injected, "
            f"digest matches chaos-sim; compared {tiers}: {wrong} "
            f"silently-wrong answers")


TRACE_CLI = ("trace --points 1000 --queries 200 --requests 1000 "
             "--qps 20000 --max-batch 128 --max-wait-ms 0.5 "
             "--fault-plan aggressive --fault-seed 0 --seed 0").split()
FAULT_EVENT_NAMES = {"fault", "deadline_drop", "breaker_open", "degrade"}


def gate_trace() -> str:
    """The emitted trace is well-formed and Chrome-loadable."""
    with tempfile.TemporaryDirectory() as tmp:
        spans_path = Path(tmp, "trace.json")
        chrome_path = Path(tmp, "trace_chrome.json")
        run_cli(TRACE_CLI + ["--output", str(spans_path),
                             "--chrome-output", str(chrome_path)],
                "trace digest")
        spans_bytes = spans_path.read_bytes()
        chrome_bytes = chrome_path.read_bytes()

    # Parsing already rejects open spans; validate() is the production
    # well-formedness guard (events inside their span's interval).
    tracer = SpanTracer.from_json_bytes(spans_bytes)
    tracer.validate()
    roots = [root.name for root in tracer.roots()]
    require(roots == ["serve.replay"],
            f"expected one serve.replay root, got {roots}")
    require(tracer.find("request") and tracer.find("batch"),
            "missing request/batch spans: the replay traced nothing")
    # Events can only be stamped inside a recorded span, so each of
    # these is attached to a span by construction.
    n_incidents = sum(event.name in FAULT_EVENT_NAMES
                      for span in tracer.spans for event in span.events)
    require(n_incidents > 0, "no fault-tolerance span events: the chaos "
            "trace exercised nothing")
    # The exporter's own validator: matched B/E pairs per thread,
    # non-decreasing timestamps, instants inside open spans.
    events = parse_chrome_trace(chrome_bytes)
    n_begin = sum(event["ph"] == "B" for event in events)
    require(n_begin == len(tracer.spans), f"Chrome export has {n_begin} "
            f"B events for {len(tracer.spans)} spans")
    return (f"{len(tracer.spans)} spans, 0 open, well-formed; "
            f"{n_incidents} fault-tolerance events attached to spans; "
            f"{len(events)} Chrome events, loadable")


CLUSTER_CLI = ("cluster-sim --points 1000 --queries 200 --requests 2000 "
               "--qps 10000 --queries-per-request 10 "
               "--shards 10 --replicas 2 "
               "--fault-plan replica-loss --fault-seed 0 "
               "--no-governor").split()
CLUSTER_P99_BOUND_SECONDS = 0.25


def gate_cluster() -> str:
    """10x2 scatter-gather at 10x the serve gate's query volume:
    byte-identical replays, bounded p99, nothing silently wrong."""
    run_cli(CLUSTER_CLI, "ClusterReport:", "report digest")

    # The battery: the CLI line's topology, trace and fault plan on a
    # plain engine (no cache, retry, breaker or deadline), so every
    # request takes the full scatter-gather path.
    args = cli_args(CLUSTER_CLI)
    dataset = load_dataset(args.dataset, n_points=args.points,
                           n_queries=args.queries)
    exact = SearchParams(k=10, l_n=64)
    quantized = SearchParams(k=10, l_n=64, quant="int8")
    trace = synthetic_trace(
        dataset.queries, args.requests, mean_qps=args.qps,
        queries_per_request=args.queries_per_request, seed=0)
    n_queries = sum(req.n_queries for req in trace)
    require(n_queries >= 10 * cli_args(SERVE_CLI).requests,
            f"cluster volume {n_queries} is below 10x the serve gate's")
    plan = named_fault_plan(
        args.fault_plan, horizon_seconds=2.0 * args.requests / args.qps,
        seed=args.fault_seed, n_workers=args.shards * args.replicas)
    # Exact shards share one traversal over their stacked graphs; int8
    # tables are fitted per shard, so that replay searches shard by
    # shard.  Both must match the per-shard offline merge.
    summaries = []
    for params in (exact, quantized):
        engine = ClusterEngine(dataset.points, n_shards=args.shards,
                               n_replicas=args.replicas, params=params,
                               faults=plan)
        mode = params.quant or "exact"
        report = same_bytes(partial(engine.replay, trace),
                            f"{mode} cluster replay")
        report.verify_against_metrics()
        # Complete answers equal the offline per-shard merge;
        # incomplete ones are flagged (PARTIAL naming its missing
        # shards, or FAILED).
        n_wrong = count_wrong_answers(engine, report, trace,
                                      dataset.queries, params)
        require(report.n_served > 0,
                f"{mode}: no request was served completely")
        require(n_wrong == 0, f"{mode}: {n_wrong} answers diverge from "
                f"the offline per-shard merge or degrade silently")
        summaries.append(
            f"{mode}: p99 {report.p99_latency * 1e3:.3f} ms, "
            f"{report.n_failovers} failovers, {report.n_partial} partial, "
            f"{n_wrong} wrong answers")
        if params is exact:
            require(report.p99_latency <= CLUSTER_P99_BOUND_SECONDS,
                    f"p99 {report.p99_latency:.3f} s > "
                    f"{CLUSTER_P99_BOUND_SECONDS} s")
    return (f"{report.n_requests} requests ({report.answered_queries} "
            f"queries answered) on {report.n_shards}x{report.n_replicas}, "
            f"byte-identical replays; {'; '.join(summaries)}")


MUTATE_CLI = ("mutate-sim --points 200 --dims 16 --ops 24 --seed 0 "
              "--compact-every 6 --checkpoint-every 9 "
              "--fault-plan compaction-crash --fault-seed 0").split()
MUTATE_SEEDS = (0, 1, 2)


def gate_mutate() -> str:
    """Crash-chaos mutation workloads recover exactly, at every seed."""
    run_cli(MUTATE_CLI, "MutationReport:", "report digest")
    # The battery: the CLI line's workload and fault plan at each seed.
    args = cli_args(MUTATE_CLI)
    plan = named_fault_plan(args.fault_plan,
                            horizon_seconds=float(args.ops + 1),
                            seed=args.fault_seed)
    n_crashes = 0
    for seed in MUTATE_SEEDS:
        report = same_bytes(lambda: run_mutation_sim(
            n_points=args.points, n_dims=args.dims, n_ops=args.ops,
            seed=seed, compact_every=args.compact_every,
            checkpoint_every=args.checkpoint_every, fault_plan=plan,
            metrics=MetricsRegistry()), f"mutate seed {seed}")
        report.verify_against_metrics()
        print(f"seed {seed}: {len(report.ops)} ops, {report.n_crashes} "
              f"crashes, {report.n_recoveries} recoveries "
              f"({report.replayed_records} records replayed), "
              f"{report.n_searches} searches, {report.n_wrong_answers} "
              f"wrong answers, digest {report.digest()[:16]}")
        require(report.n_wrong_answers == 0, f"seed {seed}: tombstoned "
                f"ids leaked into search results")
        # Recovery is exact: the store the run leaves behind replays
        # to the digest the surviving index reported.
        replayed = recover(report.store).digest()
        require(replayed == report.final_digest,
                f"seed {seed}: clean-replay digest {replayed[:16]} != "
                f"surviving index digest {report.final_digest[:16]}")
        n_crashes += report.n_crashes
    require(n_crashes > 0,
            "no seed delivered a crash: the chaos recipe is inert")
    return (f"{len(MUTATE_SEEDS)} seeds, byte-identical reruns, "
            f"{n_crashes} crashes all recovered exactly, zero wrong "
            f"answers")


HEAL_CLI = "soak-sim --seed 0".split()
SOAK_SEEDS = (0, 1, 2)
MTTR_BOUND_SECONDS = 0.05


def _quarantine_sweep() -> str:
    """A digest-mismatched rebuild is never the admitted one: a healing
    replay with corruption cranked high enough that several attempts
    quarantine, then a walk over every repair record."""
    dataset = load_dataset("sift1m", n_points=400, n_queries=50)
    trace = synthetic_trace(dataset.queries, 200, mean_qps=20_000.0,
                            queries_per_request=2, seed=7)
    engine = ClusterEngine(
        dataset.points, n_shards=4, n_replicas=2,
        params=SearchParams(k=8, l_n=32),
        faults=named_fault_plan("soak", horizon_seconds=0.05, seed=7,
                                n_workers=8),
        heal=HealPolicy(corruption_probability=0.8,
                        max_rebuild_attempts=6,
                        mttr_bound_seconds=MTTR_BOUND_SECONDS))
    report = engine.replay(trace)
    report.verify_against_metrics()
    require(report.repairs, "the structural sweep induced no repairs")
    for rec in report.repairs:
        slot = f"repair s{rec.shard}r{rec.replica}"
        *earlier, last = rec.attempts
        require(not any(a.digest_matched for a in earlier),
                f"{slot}: rebuilt again after a digest-matched attempt")
        # Healed = admitted at the end of its one verified attempt;
        # abandoned = no verified attempt and never admitted.
        require(last.digest_matched == rec.healed,
                f"{slot}: healed={rec.healed} but its last rebuild has "
                f"digest_matched={last.digest_matched}")
        admitted = last.end_seconds if rec.healed else math.inf
        require(rec.admitted_seconds == admitted, f"{slot} admitted at "
                f"{rec.admitted_seconds!r}, expected {admitted!r}")
    n_quarantined = sum(rec.n_quarantined for rec in report.repairs)
    return (f"{len(report.repairs)} repairs, {n_quarantined} quarantined "
            f"attempts, none admitted unverified")


def gate_heal() -> str:
    """The whole-stack soak survives chaos: nothing wrong, every loss
    healed in bound, quarantined rebuilds never admitted."""
    run_cli(HEAL_CLI, "SoakReport:", "soak digest")
    n_quarantines = 0
    for seed in SOAK_SEEDS:
        soak = same_bytes(
            partial(run_soak_sim, seed=seed,
                    mttr_bound_seconds=MTTR_BOUND_SECONDS),
            f"soak seed {seed}")
        require(soak.n_wrong == 0, f"seed {seed}: {soak.n_wrong} "
                f"silently-wrong answers survived the soak")
        require(soak.n_unhealed == 0, f"seed {seed}: {soak.n_unhealed} "
                f"losses missed the {MTTR_BOUND_SECONDS} s MTTR bound")
        require(soak.n_repairs > 0, f"seed {seed}: the chaos plan induced "
                f"no repairs, so the healing path is not exercised")
        n_quarantines += soak.n_quarantines
        print(f"seed {seed}: byte-identical reruns, {soak.n_repairs} "
              f"repairs ({soak.n_quarantines} quarantined), max MTTR "
              f"{soak.max_mttr_seconds * 1e3:.3f} ms, 0 wrong answers")
    require(n_quarantines > 0, "no seed exercised the quarantine path")
    return (f"{len(SOAK_SEEDS)} seeds in bound, {n_quarantines} "
            f"quarantines; structural sweep: {_quarantine_sweep()}")


QUANT_MAX_RECALL_DELTA = 0.02


def _quant_serving() -> str:
    """A quantized replay publishes ``quant.*`` and reconciles with its
    registry; an exact replay of the same trace publishes none — a
    quantized result must never masquerade as an exact one."""
    points = gaussian_mixture(600, 32, seed=0).astype(np.float32)
    pool = gaussian_mixture(200, 32, seed=1).astype(np.float32)
    graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
    trace = synthetic_trace(pool, 120, mean_qps=50_000.0,
                            queries_per_request=4, seed=7)
    policy = BatchPolicy(max_batch=64, max_wait_seconds=0.002,
                         max_queue=4096)
    reports = {}
    for quant in ("pca", None):
        engine = ServeEngine(graph, points,
                             params=SearchParams(k=10, l_n=32, quant=quant),
                             policy=policy)
        reports[quant] = engine.replay(trace)
        reports[quant].verify_against_metrics()
        require(reports[quant].quant == quant, f"the quant={quant!r} "
                f"replay reports quant={reports[quant].quant!r}")
    published = reports["pca"].metrics.value("quant.batches", default=0.0)
    require(0 < published == reports["pca"].n_batches,
            f"quantized replay published quant.batches={published}, "
            f"expected {reports['pca'].n_batches}")
    require("quant.batches" not in reports[None].metrics,
            "exact replay published quant.* metrics")
    return "serve metrics reconciled"


def gate_quant() -> str:
    """The lossy tier keeps its honesty contract (docs/quantization.md):
    exact vs pca-staged search on one d=256 fixture, then the serving
    metrics.  Speed is not gated here: it is the benchmark's
    ``search_highdim_quant`` vs ``search_highdim`` ``throughput``."""
    n, dims, n_queries, k = 3000, 256, 400, 10
    points = gaussian_mixture(n, dims, seed=0).astype(np.float32)
    queries = gaussian_mixture(n_queries, dims, seed=1).astype(np.float32)
    graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
    truth = exact_knn(points, queries, k, graph.metric_name)
    exact = ganns_search(graph, points, queries, SearchParams(k=k, l_n=64))
    staged = SearchParams(k=k, l_n=64, quant="pca", rerank_factor=1)
    quant = ganns_search(graph, points, queries, staged)
    again = ganns_search(graph, points, queries, staged)
    require(quant.ids.tobytes() == again.ids.tobytes()
            and quant.dists.tobytes() == again.dists.tobytes(),
            "quantized search is not deterministic across runs")
    recall_exact = recall_at_k(exact.ids, truth)
    recall_quant = recall_at_k(quant.ids, truth)
    delta = recall_exact - recall_quant
    require(delta <= QUANT_MAX_RECALL_DELTA, f"recall@10 delta "
            f"{delta:+.4f} exceeds {QUANT_MAX_RECALL_DELTA} (exact "
            f"{recall_exact:.4f}, quant {recall_quant:.4f})")
    exact_bytes = float(points.dtype.itemsize * dims)
    quant_bytes = quantize_points(points, "pca",
                                  graph.metric_name).bytes_per_vector()
    require(quant_bytes < exact_bytes, f"quantized {quant_bytes:.0f} "
            f"B/vec is not below the exact {exact_bytes:.0f} B/vec")
    return (f"recall@10 delta {delta:+.4f}, {quant_bytes:.0f} B/vec "
            f"({exact_bytes / quant_bytes:.1f}x smaller), deterministic; "
            f"{_quant_serving()}")


BAKEOFF_JSON = "bakeoff_smoke.json"  # at the repo root; CI uploads it
BAKEOFF_MIN_RECALL = 0.8
BAKEOFF_HEADLINE_RECALL = 0.9  # nsw and cagra


def gate_bakeoff() -> str:
    """Every family clears its recall floor; cagra builds below nsw
    (docs/index_families.md)."""
    run_script("benchmarks/bench_bakeoff.py", "--quick",
               "--output", BAKEOFF_JSON)
    doc = json.loads((ROOT / BAKEOFF_JSON).read_text())
    require(doc.get("schema") == "repro.bench_bakeoff/v2",
            f"unexpected schema {doc.get('schema')!r}")
    cells = doc.get("cells", [])
    require(cells, "no bake-off cells")
    missing = {"nsw", "hnsw", "cagra"} - {cell["family"] for cell in cells}
    require(not missing, f"missing families: {sorted(missing)}")
    smoke = doc["datasets"][0]
    by_family = {c["family"]: c for c in cells if c["dataset"] == smoke}
    for family, cell in sorted(by_family.items()):
        print(f"{family:<6} recall@10 {cell['recall_at_10']:.3f}, "
              f"build {cell['construction_cycles']:.0f} cycles")
        floor = (BAKEOFF_HEADLINE_RECALL if family in ("nsw", "cagra")
                 else BAKEOFF_MIN_RECALL)
        require(cell["recall_at_10"] >= floor,
                f"{family} recall@10 {cell['recall_at_10']:.3f} on "
                f"{smoke} is below its {floor:.2f} floor")
    nsw = by_family["nsw"]["construction_cycles"]
    cagra = by_family["cagra"]["construction_cycles"]
    require(cagra < nsw, f"cagra construction ({cagra:.0f} cycles) is "
            f"not below nsw ({nsw:.0f} cycles) on {smoke}")
    for cell in cells:
        where = f"{cell['family']}/{cell['dataset']}"
        sizes = cell.get("vector_bytes", {})
        absent = {"float64", "float32", "fp16", "int8", "pca"} - set(sizes)
        require(not absent,
                f"{where} is missing footprint columns: {sorted(absent)}")
        fat = [mode for mode in ("fp16", "int8", "pca")
               if sizes[mode] >= sizes["float32"]]
        require(not fat, f"{where}: quantized representations not below "
                f"float32 ({', '.join(fat)})")
    return (f"{len(by_family)} families above their recall floors on "
            f"{smoke}; cagra {cagra:.0f} < nsw {nsw:.0f} build cycles")


def gate_bench() -> str:
    """The end-to-end ruler's smoke pass (benchmarks/e2e/README.md).
    Every traced seam must still resolve: a renamed one would read 0 in
    its per-layer rows instead of failing."""
    text = run_script("benchmarks/e2e/run.py", "--smoke", "--check")
    prefix = "# missing_layers: "
    missing = sorted({line[len(prefix):] for line in text.splitlines()
                      if line.startswith(prefix)})
    require(not missing, f"traced seams no longer resolve: {missing}")
    return "benchmarks/e2e/run.py --smoke --check passed"


def gate_examples() -> str:
    """Every example script runs to completion."""
    scripts = sorted((ROOT / "examples").glob("*.py"))
    for script in scripts:
        run_script(str(script.relative_to(ROOT)))
    return f"{len(scripts)} example scripts exited 0"


GATES = {"serve": gate_serve, "chaos": gate_chaos, "trace": gate_trace,
         "cluster": gate_cluster, "mutate": gate_mutate, "heal": gate_heal,
         "quant": gate_quant, "bakeoff": gate_bakeoff, "bench": gate_bench,
         "examples": gate_examples}


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else list(argv)
    if "--list" in names:
        print("\n".join(GATES))
        return 0
    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(f"unknown gate(s): {', '.join(unknown)}; known gates: "
              f"{', '.join(GATES)}", file=sys.stderr)
        return 2
    for name in names or GATES:
        print(f"== gate {name}", flush=True)
        start = time.perf_counter()
        try:
            summary = GATES[name]()
        except GateFailure as failure:
            print(f"FAIL {name}: {failure}", file=sys.stderr)
            return 1
        print(f"ok {name}: {summary} "
              f"[{time.perf_counter() - start:.1f} s host]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
