"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``datasets`` — list the Table I stand-ins and their properties.
- ``build``    — build an index over a stand-in dataset and save it.
- ``search``   — load a saved index, run held-out queries, report
  recall and simulated throughput.
- ``sweep``    — a miniature Figure 6: throughput-vs-recall curves for
  GANNS and SONG on one dataset.
- ``tune``     — find the fastest setting meeting a recall target.
- ``device``   — show the simulated device and cost-table calibration.
- ``serve-sim`` — replay a synthetic online query trace through the
  batched serving engine and print its ``ServeReport``.
- ``chaos-sim`` — replay a trace under a named fault plan with the
  full fault-tolerance stack (deadlines, retries, circuit breaker,
  graceful degradation) and print the merged serve/fault report.
- ``trace`` — a chaos replay with the observability layer armed: every
  request, batch, attempt and fault becomes a span on the simulated
  clock, written as byte-deterministic JSON (optionally also as a
  Chrome ``trace_event`` file for chrome://tracing).
- ``cluster-sim`` — replay a trace through the sharded multi-replica
  serving cluster (scatter-gather top-k, replica failover) and print
  its ``ClusterReport``.
- ``mutate-sim`` — run a streaming insert/delete/compact workload with
  crash-during-compaction chaos against the crash-safe mutable index
  and print its ``MutationReport``.
- ``soak-sim`` — run the whole-stack chaos soak: self-healing cluster,
  mutable-store snapshot serving, and quantized staged search under
  seeded replica-loss chaos, gated by zero-wrong-answer and MTTR
  oracles (exit 1 if the gate fails).

Any :class:`repro.errors.ReproError` a command raises is reported as a
one-line message on stderr with exit code 2 — never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__
from repro.errors import ReproError


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", help="Table I stand-in name, e.g. sift1m")
    parser.add_argument("--points", type=int, default=5000,
                        help="stand-in size (default 5000)")
    parser.add_argument("--queries", type=int, default=200,
                        help="held-out query count (default 200)")


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.bench.report import format_table
    from repro.datasets.catalog import DATASET_SPECS

    rows = [[spec.name, spec.kind, spec.n_dims,
             f"{spec.paper_points / 1e6:g}M", spec.metric,
             "hard" if spec.hard else ""]
            for spec in DATASET_SPECS.values()]
    print(format_table(
        ["name", "type", "dims", "paper size", "metric", ""], rows,
        title="Table I stand-ins (synthetic; sizes scale on load)"))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.index import GannsIndex
    from repro.core.params import BuildParams
    from repro.datasets.catalog import load_dataset

    dataset = load_dataset(args.dataset, n_points=args.points,
                           n_queries=args.queries)
    params = BuildParams(d_min=args.d_min, d_max=args.d_max,
                         n_blocks=args.blocks)
    index = GannsIndex.build(dataset.points, graph_type=args.graph_type,
                             strategy=args.strategy,
                             metric=dataset.metric_name, params=params,
                             search_kernel=args.kernel)
    report = index.build_report
    print(f"built {report.algorithm} over {dataset.n_points} points: "
          f"simulated {report.seconds * 1e3:.1f} ms")
    from repro.bench.report import format_phase_bars
    print(format_phase_bars(report.phase_seconds))
    index.save(args.output)
    print(f"saved index to {args.output}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.core.index import GannsIndex
    from repro.datasets.catalog import load_dataset
    from repro.metrics.recall import recall_at_k

    index = GannsIndex.load(args.index)
    dataset = load_dataset(args.dataset, n_points=len(index.points),
                           n_queries=args.queries)
    report = index.search_report(dataset.queries, k=args.k,
                                 algorithm=args.algorithm, l_n=args.l_n,
                                 e=args.e)
    recall = recall_at_k(report.ids, dataset.ground_truth(args.k))
    print(f"{args.algorithm}: recall@{args.k} = {recall:.3f}, "
          f"{report.queries_per_second():,.0f} queries/s (simulated)")
    for phase, share in sorted(report.breakdown().items()):
        print(f"  {phase}: {share:.1%}")
    return 0


def _sweep_graph(args: argparse.Namespace):
    """The dataset and its GGraphCon graph for ``sweep`` and ``tune``."""
    from repro.core.construction import build_nsw_gpu
    from repro.core.params import BuildParams
    from repro.datasets.catalog import load_dataset

    dataset = load_dataset(args.dataset, n_points=args.points,
                           n_queries=args.queries)
    graph = build_nsw_gpu(dataset.points,
                          BuildParams(d_min=args.d_min, d_max=args.d_max),
                          metric=dataset.metric_name).graph
    return dataset, graph


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.report import format_table
    from repro.bench.runner import sweep
    from repro.bench.workloads import DEFAULT_CONFIG

    dataset, graph = _sweep_graph(args)
    ganns = sweep(graph, dataset, args.k, "ganns",
                  DEFAULT_CONFIG.ganns_settings)
    song = sweep(graph, dataset, args.k, "song", DEFAULT_CONFIG.song_settings)
    rows = ([["ganns", f"l_n={p.setting[0]} e={p.setting[1]}",
              p.recall, p.qps] for p in ganns]
            + [["song", f"pq={p.setting[0]}", p.recall, p.qps]
               for p in song])
    print(format_table(["algo", "setting", "recall", "queries/s"], rows,
                       title=f"{dataset.name}: throughput vs recall "
                             f"(k={args.k})"))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.tuner import tune_search

    dataset, graph = _sweep_graph(args)
    result = tune_search(graph, dataset.points, dataset.queries,
                         target_recall=args.target, k=args.k,
                         algorithm=args.algorithm)
    status = "met" if result.target_met else "NOT met (best effort)"
    print(f"target recall {args.target}: {status}")
    print(f"chosen {result.algorithm} setting {result.setting}: "
          f"recall {result.recall:.3f}, "
          f"{result.qps:,.0f} queries/s (simulated)")
    print("evaluations:")
    for setting, recall, qps in result.evaluations:
        print(f"  {setting}: recall {recall:.3f}, {qps:,.0f} q/s")
    return 0


def _serve_fixture(args: argparse.Namespace):
    """Dataset, graph, params, policy, cache, trace shared by the
    serving commands."""
    from repro.core.backend import get_backend
    from repro.core.params import SearchParams
    from repro.datasets.catalog import load_dataset
    from repro.serve import BatchPolicy, ResultCache, synthetic_trace

    dataset = load_dataset(args.dataset, n_points=args.points,
                           n_queries=args.queries)
    [graph] = get_backend("nsw").serving_graphs(
        (dataset.points,), d_min=args.d_min, d_max=args.d_max)
    params = SearchParams(k=args.k, l_n=args.l_n, e=args.e)
    policy = BatchPolicy(max_batch=args.max_batch,
                         max_wait_seconds=args.max_wait_ms * 1e-3,
                         max_queue=args.queue_cap)
    cache = (ResultCache(capacity=args.cache_size)
             if args.cache_size > 0 else None)
    trace = synthetic_trace(dataset.queries, args.requests,
                            mean_qps=args.qps,
                            repeat_fraction=args.repeat_fraction,
                            seed=args.seed)
    print(f"replaying {args.requests} requests over {dataset.name} "
          f"({dataset.n_points} points, pool of {dataset.n_queries} "
          f"distinct queries) at ~{args.qps:,.0f} req/s")
    print(f"  policy: max_batch={policy.max_batch}, "
          f"max_wait={args.max_wait_ms:g} ms, "
          f"queue_cap={policy.max_queue}, "
          f"cache={args.cache_size}")
    return dataset, graph, params, policy, cache, trace


def serve_scenario(args: argparse.Namespace):
    """Trace and engine of the replay that ``serve-sim`` and the serve
    gate (``scripts/gates.py``) run."""
    from repro.serve import ServeEngine

    dataset, graph, params, policy, cache, trace = _serve_fixture(args)
    engine = ServeEngine(graph, dataset.points, params, policy=policy,
                         cache=cache)
    return trace, engine


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    trace, engine = serve_scenario(args)
    print(engine.replay(trace).summary())
    return 0


def _fault_tolerance(args: argparse.Namespace, params) -> dict:
    """The retry / breaker / governor / deadline keyword arguments the
    ``--retries`` ... ``--deadline-ms`` flags describe; ``ServeEngine``
    and ``ClusterEngine`` take the same four."""
    from repro.faults import AdmissionGovernor, BreakerPolicy, RetryPolicy

    return dict(
        retry=RetryPolicy(max_retries=args.retries,
                          base_seconds=args.backoff_ms * 1e-3,
                          cap_seconds=args.backoff_cap_ms * 1e-3),
        breaker=BreakerPolicy(
            failure_threshold=args.breaker_threshold,
            cooldown_seconds=args.breaker_cooldown_ms * 1e-3),
        governor=(None if args.no_governor
                  else AdmissionGovernor.default_for(params)),
        default_deadline_seconds=(args.deadline_ms * 1e-3
                                  if args.deadline_ms > 0 else None))


def chaos_scenario(args: argparse.Namespace):
    """Trace, fault plan and fully armed engine of the replay that
    ``chaos-sim``, ``trace`` and the chaos gate (``scripts/gates.py``) run."""
    from repro.faults import named_fault_plan
    from repro.serve import ServeEngine

    dataset, graph, params, policy, cache, trace = _serve_fixture(args)
    # Cover the whole trace (plus quiescence tail) with the plan.
    horizon = 2.0 * args.requests / args.qps
    plan = named_fault_plan(args.fault_plan, horizon_seconds=horizon,
                            seed=args.fault_seed)
    engine = ServeEngine(
        graph, dataset.points, params, policy=policy, cache=cache,
        faults=plan, **_fault_tolerance(args, params))
    return trace, plan, engine


def _cmd_chaos_sim(args: argparse.Namespace) -> int:
    trace, plan, engine = chaos_scenario(args)
    print(f"  chaos: plan={args.fault_plan} "
          f"({len(plan)} scheduled events, seed={args.fault_seed}), "
          f"retries={args.retries}, "
          f"breaker={args.breaker_threshold}x/"
          f"{args.breaker_cooldown_ms:g} ms, "
          f"governor={'off' if args.no_governor else 'on'}, "
          f"deadline={args.deadline_ms:g} ms")
    report = engine.replay(trace)
    print(report.summary())
    print(f"  report digest {report.digest()[:16]} "
          f"(replay-deterministic)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.observability import (MetricsRegistry, SpanTracer,
                                     export_chrome_trace_bytes,
                                     parse_chrome_trace)

    trace, plan, engine = chaos_scenario(args)
    print(f"  chaos: plan={args.fault_plan} "
          f"({len(plan)} scheduled events, seed={args.fault_seed})")
    tracer = SpanTracer()
    metrics = MetricsRegistry()
    report = engine.replay(trace, tracer=tracer, metrics=metrics)
    tracer.finish()
    tracer.validate()
    report.verify_against_metrics()
    payload = tracer.to_json_bytes()
    Path(args.output).write_bytes(payload)
    print(f"wrote {args.output} ({len(payload):,} bytes, "
          f"{len(tracer.spans)} spans)")
    if args.chrome_output:
        chrome = export_chrome_trace_bytes(tracer)
        parse_chrome_trace(chrome)  # exporter self-check before writing
        Path(args.chrome_output).write_bytes(chrome)
        print(f"wrote {args.chrome_output} ({len(chrome):,} bytes; "
              f"load via chrome://tracing or https://ui.perfetto.dev)")
    print(report.summary())
    print(tracer.tree_summary())
    print("metrics:")
    print(metrics.summary())
    print(f"  trace digest {tracer.digest()[:16]} "
          f"(byte-deterministic)")
    return 0


def _cmd_cluster_sim(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterEngine, RouterPolicy
    from repro.core.params import SearchParams
    from repro.datasets.catalog import load_dataset
    from repro.faults import named_fault_plan
    from repro.observability import SpanTracer
    from repro.serve import BatchPolicy, synthetic_trace

    dataset = load_dataset(args.dataset, n_points=args.points,
                           n_queries=args.queries)
    params = SearchParams(k=args.k, l_n=args.l_n, e=args.e)
    policy = BatchPolicy(max_batch=args.max_batch,
                         max_wait_seconds=args.max_wait_ms * 1e-3,
                         max_queue=args.queue_cap)
    trace = synthetic_trace(dataset.queries, args.requests,
                            mean_qps=args.qps,
                            repeat_fraction=args.repeat_fraction,
                            queries_per_request=args.queries_per_request,
                            seed=args.seed)
    horizon = 2.0 * args.requests / args.qps
    plan = named_fault_plan(args.fault_plan, horizon_seconds=horizon,
                            seed=args.fault_seed,
                            n_workers=args.shards * args.replicas)
    engine = ClusterEngine(
        dataset.points, n_shards=args.shards, n_replicas=args.replicas,
        params=params, d_min=args.d_min, d_max=args.d_max,
        metric=dataset.metric_name, policy=policy,
        cache_capacity=args.cache_size, faults=plan,
        **_fault_tolerance(args, params),
        router_policy=RouterPolicy(
            heartbeat_seconds=args.heartbeat_ms * 1e-3,
            failover_penalty_seconds=args.failover_penalty_ms * 1e-3))
    print(f"replaying {args.requests} requests "
          f"(x{args.queries_per_request} queries) over {dataset.name} "
          f"({dataset.n_points} points) on {args.shards} shards x "
          f"{args.replicas} replicas")
    print(f"  chaos: plan={args.fault_plan} "
          f"({len(plan)} scheduled events, seed={args.fault_seed}), "
          f"heartbeat={args.heartbeat_ms:g} ms, "
          f"governor={'off' if args.no_governor else 'on'}")
    tracer = SpanTracer()
    report = engine.replay(trace, tracer=tracer)
    tracer.finish()
    tracer.validate()
    report.verify_against_metrics()
    print(report.summary())
    print(f"  report digest {report.digest()[:16]} "
          f"(replay-deterministic; metrics verified)")
    return 0


def _cmd_mutate_sim(args: argparse.Namespace) -> int:
    from repro.faults.plan import named_fault_plan
    from repro.mutable import run_mutation_sim
    from repro.observability import MetricsRegistry, SpanTracer

    # One op per simulated second, plus recovery slack.
    horizon = float(args.ops + 1)
    plan = named_fault_plan(args.fault_plan, horizon_seconds=horizon,
                            seed=args.fault_seed)
    print(f"running {args.ops} mutation ops over a {args.points}-point "
          f"seed corpus (dims={args.dims}, seed={args.seed})")
    print(f"  chaos: plan={args.fault_plan} "
          f"({len(plan)} scheduled events, seed={args.fault_seed}), "
          f"compact every {args.compact_every}, "
          f"checkpoint every {args.checkpoint_every}")
    tracer = SpanTracer()
    metrics = MetricsRegistry()
    report = run_mutation_sim(
        n_points=args.points, n_dims=args.dims, n_ops=args.ops,
        seed=args.seed, batch_size=args.batch, k=args.k, l_n=args.l_n,
        compact_every=args.compact_every,
        checkpoint_every=args.checkpoint_every, fault_plan=plan,
        tracer=tracer, metrics=metrics)
    tracer.finish()
    tracer.validate()
    report.verify_against_metrics()
    print(report.summary())
    print(f"  report digest {report.digest()[:16]} "
          f"(replay-deterministic; metrics verified)")
    return 0


def _cmd_soak_sim(args: argparse.Namespace) -> int:
    from repro.heal import run_soak_sim

    print(f"soaking the stack: seed={args.seed}, "
          f"{args.shards} shards x {args.replicas} replicas over "
          f"{args.points} points, {args.requests} requests/phase, "
          f"corruption={args.corruption:g}, "
          f"MTTR bound {args.mttr_bound_ms:g} ms")
    report = run_soak_sim(
        seed=args.seed, n_points=args.points,
        n_requests=args.requests, n_shards=args.shards,
        n_replicas=args.replicas,
        mttr_bound_seconds=args.mttr_bound_ms * 1e-3,
        corruption_probability=args.corruption)
    print(report.summary())
    print(f"  soak digest {report.digest()[:16]} "
          f"(replay-deterministic; every phase metrics-verified)")
    return 0 if report.passed else 1


def _cmd_device(_args: argparse.Namespace) -> int:
    from repro.gpusim.costs import DEFAULT_COSTS
    from repro.gpusim.device import QUADRO_P5000

    device = QUADRO_P5000
    print(f"{device.name}")
    print(f"  {device.num_sms} SMs x {device.cores_per_sm} cores "
          f"@ {device.clock_ghz} GHz ({device.total_cores} cores)")
    print(f"  shared memory {device.shared_mem_per_block_bytes // 1024} KB"
          f"/block, registers "
          f"{device.register_file_per_sm_bytes // 1024} KB/SM")
    print(f"  PCIe {device.pcie_bandwidth_gbps} GB/s")
    print(f"  concurrency at 32 threads/block: "
          f"{device.concurrent_blocks(32)} blocks")
    print("cost table (cycles):")
    for field_name, value in DEFAULT_COSTS.__dict__.items():
        print(f"  {field_name}: {value:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GANNS reproduction: GPU proximity-graph ANN search "
                    "and construction on a simulated device.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list Table I stand-ins")

    from repro.core.backend import backend_families

    build = sub.add_parser("build", help="build and save an index")
    _add_dataset_arguments(build)
    build.add_argument("--output", "-o", default="index.npz")
    # Validated against the backend registry at build time (a typed
    # ReproError -> exit 2), not by argparse, so newly registered
    # families need no CLI change.
    build.add_argument("--graph-type", default="nsw",
                       help="index family; registered: "
                            f"{', '.join(backend_families())}")
    build.add_argument("--strategy",
                       choices=("ggraphcon", "naive-parallel", "serial"),
                       default="ggraphcon")
    build.add_argument("--kernel", choices=("ganns", "song"),
                       default="ganns")
    build.add_argument("--d-min", type=int, default=16)
    build.add_argument("--d-max", type=int, default=32)
    build.add_argument("--blocks", type=int, default=None,
                       help="GGraphCon thread blocks / groups (default: "
                            "follows the corpus, BuildParams.blocks_for)")

    search = sub.add_parser("search", help="search a saved index")
    _add_dataset_arguments(search)
    search.add_argument("--index", "-i", default="index.npz")
    search.add_argument("--algorithm", choices=("ganns", "song", "beam"),
                        default="ganns")
    search.add_argument("-k", type=int, default=10)
    search.add_argument("--l-n", type=int, default=64, dest="l_n")
    search.add_argument("-e", type=int, default=None)

    sweep = sub.add_parser("sweep",
                           help="mini Figure 6 on one dataset")
    _add_dataset_arguments(sweep)
    sweep.add_argument("-k", type=int, default=10)
    sweep.add_argument("--d-min", type=int, default=16)
    sweep.add_argument("--d-max", type=int, default=32)

    tune = sub.add_parser("tune",
                          help="fastest setting for a recall target")
    _add_dataset_arguments(tune)
    tune.add_argument("--target", type=float, default=0.9)
    tune.add_argument("-k", type=int, default=10)
    tune.add_argument("--algorithm", choices=("ganns", "song"),
                      default="ganns")
    tune.add_argument("--d-min", type=int, default=16)
    tune.add_argument("--d-max", type=int, default=32)

    sub.add_parser("device", help="show the simulated device")

    def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("dataset", nargs="?", default="sift1m",
                            help="Table I stand-in name (default sift1m)")
        parser.add_argument("--points", type=int, default=2000,
                            help="stand-in size (default 2000)")
        parser.add_argument("--queries", type=int, default=500,
                            help="distinct query pool size (default 500)")
        parser.add_argument("--requests", type=int, default=10_000,
                            help="trace length (default 10000)")
        parser.add_argument("--qps", type=float, default=50_000.0,
                            help="mean arrival rate, requests/s "
                                 "(default 50k)")
        parser.add_argument("--repeat-fraction", type=float, default=0.3,
                            help="share of hot-set repeats (default 0.3)")
        parser.add_argument("--max-batch", type=int, default=256)
        parser.add_argument("--max-wait-ms", type=float, default=1.0,
                            help="batching window in ms (default 1.0)")
        parser.add_argument("--queue-cap", type=int, default=8192,
                            help="admission bound in queries "
                                 "(default 8192)")
        parser.add_argument("--cache-size", type=int, default=4096,
                            help="result cache entries; 0 disables")
        parser.add_argument("-k", type=int, default=10)
        parser.add_argument("--l-n", type=int, default=64, dest="l_n")
        parser.add_argument("-e", type=int, default=None)
        parser.add_argument("--d-min", type=int, default=8)
        parser.add_argument("--d-max", type=int, default=16)
        parser.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve-sim",
        help="replay an online query trace through the serving engine")
    _add_serving_arguments(serve)

    from repro.faults.plan import fault_plan_names

    def _add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--fault-plan", choices=fault_plan_names(),
                            default="aggressive",
                            help="named chaos recipe "
                                 "(default aggressive)")
        parser.add_argument("--fault-seed", type=int, default=0,
                            help="fault plan seed (default 0)")
        parser.add_argument("--retries", type=int, default=2,
                            help="retry attempts per failed dispatch "
                                 "(default 2)")
        parser.add_argument("--backoff-ms", type=float, default=0.2,
                            help="base retry backoff in ms "
                                 "(default 0.2)")
        parser.add_argument("--backoff-cap-ms", type=float, default=2.0,
                            help="retry backoff cap in ms "
                                 "(default 2.0)")
        parser.add_argument("--breaker-threshold", type=int, default=3,
                            help="consecutive failures tripping the "
                                 "breaker (default 3)")
        parser.add_argument("--breaker-cooldown-ms", type=float,
                            default=2.0,
                            help="breaker open time in ms (default 2.0)")
        parser.add_argument("--deadline-ms", type=float, default=20.0,
                            help="per-request deadline in ms; 0 "
                                 "disables (default 20)")
        parser.add_argument("--no-governor", action="store_true",
                            help="disable graceful degradation "
                                 "(reject-only baseline)")

    chaos = sub.add_parser(
        "chaos-sim",
        help="replay a trace under an injected fault plan with the "
             "fault-tolerance stack engaged")
    _add_serving_arguments(chaos)
    _add_chaos_arguments(chaos)

    trace = sub.add_parser(
        "trace",
        help="replay a chaos trace with the observability layer armed "
             "and write a byte-deterministic span trace")
    _add_serving_arguments(trace)
    _add_chaos_arguments(trace)
    trace.add_argument("--output", default="trace.json",
                       help="span trace output path "
                            "(default trace.json)")
    trace.add_argument("--chrome-output", default=None,
                       help="also write a Chrome trace_event file "
                            "loadable in chrome://tracing")

    cluster = sub.add_parser(
        "cluster-sim",
        help="replay a trace through the sharded multi-replica "
             "serving cluster with scatter-gather top-k")
    _add_serving_arguments(cluster)
    _add_chaos_arguments(cluster)
    cluster.add_argument("--shards", type=int, default=10,
                         help="index shard count (default 10)")
    cluster.add_argument("--replicas", type=int, default=2,
                         help="serving replicas per shard (default 2)")
    cluster.add_argument("--queries-per-request", type=int, default=1,
                         help="queries batched per request (default 1)")
    cluster.add_argument("--heartbeat-ms", type=float, default=1.0,
                         help="replica death detection window in ms "
                              "(default 1.0)")
    cluster.add_argument("--failover-penalty-ms", type=float,
                         default=0.2,
                         help="per-bounce failover penalty in ms "
                              "(default 0.2)")

    mutate = sub.add_parser(
        "mutate-sim",
        help="run a streaming insert/delete/compact workload with "
             "crash chaos against the crash-safe mutable index")
    mutate.add_argument("--points", type=int, default=200,
                        help="seed corpus size (default 200)")
    mutate.add_argument("--dims", type=int, default=16,
                        help="point dimensionality (default 16)")
    mutate.add_argument("--ops", type=int, default=24,
                        help="scheduled operations (default 24)")
    mutate.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    mutate.add_argument("--batch", type=int, default=8,
                        help="max points per insert batch (default 8)")
    mutate.add_argument("-k", type=int, default=5)
    mutate.add_argument("--l-n", type=int, default=32, dest="l_n")
    mutate.add_argument("--compact-every", type=int, default=6,
                        help="compaction period in ops (default 6)")
    mutate.add_argument("--checkpoint-every", type=int, default=9,
                        help="checkpoint period in ops (default 9)")
    mutate.add_argument("--fault-plan", choices=fault_plan_names(),
                        default="compaction-crash",
                        help="named chaos recipe "
                             "(default compaction-crash)")
    mutate.add_argument("--fault-seed", type=int, default=0,
                        help="fault plan seed (default 0)")

    soak = sub.add_parser(
        "soak-sim",
        help="run the whole-stack chaos soak: healing cluster, "
             "mutable store, and quantized paths under seeded chaos "
             "with zero-wrong-answer and MTTR oracles")
    soak.add_argument("--seed", type=int, default=0,
                      help="master soak seed (default 0)")
    soak.add_argument("--points", type=int, default=500,
                      help="cluster corpus size (default 500)")
    soak.add_argument("--requests", type=int, default=300,
                      help="requests in the cluster/quant phases "
                           "(default 300)")
    soak.add_argument("--shards", type=int, default=4,
                      help="shard count (default 4)")
    soak.add_argument("--replicas", type=int, default=2,
                      help="replicas per shard (default 2)")
    soak.add_argument("--mttr-bound-ms", type=float, default=50.0,
                      help="MTTR bound every healed repair must meet "
                           "in ms (default 50)")
    soak.add_argument("--corruption", type=float, default=0.2,
                      help="per-rebuild corruption probability "
                           "(default 0.2; exercises quarantine)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`repro.errors.ReproError`) are reported as a
    single line on stderr with exit code 2 — a misconfigured run should
    read like a usage problem, not a crash.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "build": _cmd_build,
        "search": _cmd_search,
        "sweep": _cmd_sweep,
        "tune": _cmd_tune,
        "device": _cmd_device,
        "serve-sim": _cmd_serve_sim,
        "chaos-sim": _cmd_chaos_sim,
        "trace": _cmd_trace,
        "cluster-sim": _cmd_cluster_sim,
        "mutate-sim": _cmd_mutate_sim,
        "soak-sim": _cmd_soak_sim,
    }
    try:
        return handlers[args.command](args)
    except ReproError as err:
        print(f"repro {args.command}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
