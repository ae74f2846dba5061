#!/usr/bin/env python3
"""End-to-end benchmark of the GANNS reproduction: the repo's ruler.

One run measures one workload for ``--seconds`` seconds and prints, as
the last line of stdout, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (see ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload serve_replay --seed 7 \\
        --seconds 6 --trace 0

Given several workloads (default: all), ``--runs N`` or no ``--trace``,
it becomes the suite driver: every (workload, seed, trace) job runs in a
fresh subprocess, exactly as the acceptance driver runs it, and the
collected document goes to ``--output`` for ``compare.py``::

    python3 benchmarks/e2e/run.py --runs 10 --trace 0 --output a.json
    python3 benchmarks/e2e/run.py --smoke --check        # < 30 s gate

Timing method: every round is bracketed by the calibration kernels of
``calibrate.py`` and host seconds are converted to reference-seconds;
``gc`` is off inside rounds and collected between them; a metric's value
is the median over the run's rounds.
"""

from __future__ import annotations

import os
import sys

# Before numpy / repro are imported: one BLAS thread, fast tier.  The
# tier is chosen by environment only (no ``backend=`` keyword anywhere),
# so the harness outlives the switch.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_BACKEND"] = "fast"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
from calibrate import slowdown  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro.bench_e2e/v1"
MIN_SETUPS, MAX_SETUPS, CHEAP_SETUP_S = 3, 15, 1.0


def pin_allocator() -> bool:
    """Keep freed memory in the process heap (glibc ``mallopt``).

    With glibc's defaults the large NumPy temporaries of the CAGRA build
    and of the d=960 rerank are handed back to the kernel and faulted in
    again: the *same* 200-point CAGRA build then alternates between
    0.9 s and 3.0 s, and every eighth staged search call takes 3x.
    That is the allocator, not the program, and no ruler can resolve
    10 % under it — so, like the BLAS thread count, it is pinned:
    no mmap below 1 GiB, never trim, grow the heap 256 MiB at a time.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        return all(libc.mallopt(param, value) == 1 for param, value in (
            (-3, 1 << 30),          # M_MMAP_THRESHOLD
            (-1, (1 << 31) - 1),    # M_TRIM_THRESHOLD
            (-2, 256 << 20)))       # M_TOP_PAD
    except (OSError, AttributeError):
        return False


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One run of one workload (in-process)
# ----------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


@contextlib.contextmanager
def _phase(recorder, phase):
    """Trace a whole phase (set-up, verify) as one operation, if tracing."""
    if recorder is None:
        yield
        return
    with layers.tracing(recorder), recorder.operation(phase, phase, 0):
        yield


def _timed_setup(workload, seed, smoke, cal):
    """Set up several times; returns the last fixtures and the
    reference-seconds of every repetition."""
    samples = []
    began = time.perf_counter()
    while True:
        fixtures = None  # drop the previous repetition before timing
        gc.collect()
        before = cal.run()
        start = time.perf_counter()
        fixtures = workload.setup(seed, smoke)
        wall = time.perf_counter() - start
        samples.append(wall / slowdown(before, cal.run(),
                                       workload.mem_share))
        # Cheap setups (a dataset, a few ms) repeat until the median
        # stands on more than three samples.
        if smoke or len(samples) >= MAX_SETUPS or (
                len(samples) >= MIN_SETUPS
                and time.perf_counter() - began >= CHEAP_SETUP_S):
            return fixtures, samples


def _bare_kernel_seconds(recorder, cal, round_slowdown, mem_share):
    """Re-run the last traced round's ``ganns_search`` calls untraced.

    These are the denominators of the two ``overhead_ratio`` metrics:
    the identical batches, through the bare kernel.  The machine may
    have drifted since the round ran, so the seconds are rescaled by the
    two calibrations to the speed the round ran at.
    """
    from repro import ganns_search
    totals = {}
    before = cal.run()
    for args, kwargs, root in recorder.kernel_calls:
        if not root:
            continue
        start = time.perf_counter()
        ganns_search(*args, **kwargs)
        totals[root] = totals.get(root, 0.0) \
            + time.perf_counter() - start
    scale = round_slowdown / slowdown(before, cal.run(), mem_share)
    return {"bare." + root: seconds * scale
            for root, seconds in totals.items()}


def _tracer_overhead(workload, fixtures):
    """serve_replay only: one replay with the engine's own SpanTracer."""
    from workloads import ServeReplay
    if not isinstance(workload, ServeReplay):
        return {}
    try:
        from repro.observability import SpanTracer
    except ImportError:
        return {}

    def replay(**kwargs):
        engine = workload.make_engine(fixtures)
        start = time.perf_counter()
        engine.replay(fixtures["trace"], **kwargs)
        return time.perf_counter() - start

    plain = replay()
    tracer = SpanTracer()
    traced = replay(tracer=tracer)
    return {"observability.tracer_overhead_ratio": traced / plain,
            "observability.spans": len(tracer.spans)}


def run_one(name, seed, seconds, trace, smoke, trace_output=None):
    """Measure one workload; returns the run document."""
    from workloads import WORKLOADS, Clock

    workload = WORKLOADS[name]
    recorder = layers.Recorder() if trace else None
    cal = calibrate.Calibrator(passes=1 if smoke else calibrate.PASSES)
    cal.run()  # warm

    if trace:
        # A traced run reports no setup_s: one set-up, under the trace.
        setup_samples = []
        with _phase(recorder, "setup"):
            fixtures = workload.setup(seed, smoke)
    else:
        fixtures, setup_samples = _timed_setup(workload, seed, smoke, cal)
    workload.run_round(fixtures, Clock())  # warm-up: caches, arenas

    rounds = []
    began = time.perf_counter()
    calib_before = cal.run()
    while True:
        index = len(rounds)
        traced = bool(trace) and index % 2 == 1
        clock = Clock(recorder if traced else None, index)
        gc.collect()
        gc.disable()
        try:
            if traced:
                recorder.clear_captures()
            with (layers.tracing(recorder) if traced
                  else contextlib.nullcontext()):
                start = time.perf_counter()
                out = workload.run_round(fixtures, clock)
                wall = time.perf_counter() - start
        finally:
            gc.enable()
        calib_after = cal.run()
        rounds.append({"traced": traced, "wall_s": wall,
                       "calib_cpu_s": 0.5 * (calib_before[0]
                                             + calib_after[0]),
                       "calib_mem_s": 0.5 * (calib_before[1]
                                             + calib_after[1]),
                       "slowdown": slowdown(calib_before, calib_after,
                                            workload.mem_share),
                       "samples": clock.samples, "out": out})
        calib_before = calib_after
        elapsed = time.perf_counter() - began
        enough = len(rounds) >= 2
        mean_round = elapsed / len(rounds)
        if enough and (smoke or elapsed + 0.5 * mean_round >= seconds):
            break

    extras = {}
    if trace:
        extras.update(_bare_kernel_seconds(
            recorder, cal,
            next(r["slowdown"] for r in reversed(rounds) if r["traced"]),
            workload.mem_share))
        extras.update(_tracer_overhead(workload, fixtures))

    # -- correctness ---------------------------------------------------
    first = rounds[0]["out"]
    with _phase(recorder, "verify"):
        verdict = workload.verify(fixtures, first)
    same = sum(r["out"]["digest"] == first["digest"] for r in rounds[1:])
    verdict.check(True, "answers differ between rounds",
                  n=len(rounds) - 1, n_failed=len(rounds) - 1 - same)

    # -- metrics -------------------------------------------------------
    plain = [r for r in rounds if not r["traced"]]
    detail = {"setup_rs": setup_samples,
              "rounds": [{key: r[key] for key in (
                  "traced", "wall_s", "calib_cpu_s", "calib_mem_s",
                  "slowdown")} for r in rounds]}
    if not trace:
        rates, op_ms, raw_rates = [], [], []
        for rnd in plain:
            head = [s for s in rnd["samples"] if s[3]]
            items = sum(s[1] for s in head)
            busy = sum(s[2] for s in head)
            rates.append(items * rnd["slowdown"] / busy)
            raw_rates.append(items / busy)
            op_ms.extend(1e3 * s[2] / rnd["slowdown"] for s in head)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "throughput": (statistics.median(rates), "1/s"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "recall_at_10": (verdict.recall, "ratio"),
            "sim_seconds": (verdict.sim_seconds, "sim_s"),
        }
        detail.update({"throughput_rounds": rates,
                       "throughput_raw_rounds": raw_rates,
                       "op_samples": len(op_ms)})
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        defects = recorder.check_forest()
        verdict.check(not defects, "malformed span forest: "
                      + "; ".join(defects[:3]))
        coverage = recorder.coverage("round")
        verdict.check(coverage >= 0.9,
                      f"named spans cover {coverage:.2f} of traced time")
        extras.update(workload.layer_extras(fixtures,
                                            traced_rounds[-1]["out"]))
        extras.update({
            "host.wall_s": statistics.median(
                r["wall_s"] for r in plain),
            "host.calib_cpu_s": statistics.median(
                r["calib_cpu_s"] for r in rounds),
            "host.calib_mem_s": statistics.median(
                r["calib_mem_s"] for r in rounds),
            "host.trace_overhead_ratio":
                statistics.median(r["wall_s"] for r in traced_rounds)
                / statistics.median(r["wall_s"] for r in plain),
            "host.rss_peak_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "host.span_coverage": coverage,
        })
        metrics = layers.layer_metrics(
            recorder, [i for i, r in enumerate(rounds) if r["traced"]],
            extras)
        detail["missing_layers"] = recorder.missing
        if trace_output:
            with open(trace_output, "w") as handle:
                json.dump({"workload": name, "seed": seed,
                           **recorder.to_json()}, handle)

    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "smoke": smoke,
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted, "failed": verdict.failed,
        "notes": verdict.notes,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
        "sizes": fixtures["sizes"],
        "detail": detail,
    }


# ----------------------------------------------------------------------
# Fingerprint: a number is never read without its denominator
# ----------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy as np
    import repro
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": _git_commit(), "repro": repro.__version__,
        "repro_path": str(Path(repro.__file__).resolve().parent),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "backend": os.environ["REPRO_BACKEND"],
        "allocator": os.environ["BENCH_E2E_ALLOCATOR"],
        "cpu": _cpu_model(), "nproc": os.cpu_count(),
        "calib_nominal_s": {"cpu": calibrate.CPU_NOMINAL_S,
                            "mem": calibrate.MEM_NOMINAL_S},
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def print_run(doc) -> None:
    """Every metric by name with its unit, then the contract line."""
    kind = "per-layer" if doc["trace"] else "end-to-end"
    print(f"# {doc['workload']} seed={doc['seed']} {kind} "
          f"sizes={json.dumps(doc['sizes'])}")
    rounds = doc["detail"]["rounds"]
    print(f"#   rounds={len(rounds)} host.wall_s="
          + ",".join(f"{r['wall_s']:.3f}" for r in rounds)
          + " slowdown="
          + ",".join(f"{r['slowdown']:.3f}" for r in rounds))
    if "throughput_rounds" in doc["detail"]:
        q1, q2, q3 = _quartiles(doc["detail"]["throughput_rounds"])
        raw = statistics.median(doc["detail"]["throughput_raw_rounds"])
        print(f"#   throughput quartiles over rounds: {q1:.2f} / {q2:.2f}"
              f" / {q3:.2f} (reference), host median {raw:.2f} (raw)")
    for name, metric in doc["metrics"].items():
        if doc["trace"] and metric["value"] == 0:
            continue
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if doc["detail"].get("missing_layers"):
        print("# missing_layers: "
              + ", ".join(doc["detail"]["missing_layers"]))
    for note in doc["notes"]:
        print(f"# FAILED CHECK: {note}")
    print(json.dumps({key: doc[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def check_names(docs, spec, selected) -> list:
    """``--check``: printed names are exactly the declared ones."""
    problems = []
    declared = {w["name"] for w in spec["workloads"]}
    from workloads import WORKLOADS
    if set(WORKLOADS) != declared:
        problems.append(f"workloads differ: code {sorted(WORKLOADS)} vs "
                        f"BENCHMARK.json {sorted(declared)}")
    for doc in docs:
        want = {m["name"]: m["unit"] for m in
                spec["per_layer" if doc["trace"] else "end_to_end"]}
        got = {k: v["unit"] for k, v in doc["metrics"].items()}
        where = f"{doc['workload']} trace={doc['trace']}"
        for name in sorted(set(want) - set(got)):
            problems.append(f"{where}: missing metric {name}")
        for name in sorted(set(got) - set(want)):
            problems.append(f"{where}: undeclared metric {name}")
        for name in sorted(set(got) & set(want)):
            if got[name] != want[name]:
                problems.append(f"{where}: {name} unit {got[name]!r} "
                                f"!= declared {want[name]!r}")
    ran = {doc["workload"] for doc in docs}
    for name in sorted(set(selected) - ran):
        problems.append(f"workload {name} produced no result")
    return problems


# ----------------------------------------------------------------------
# Suite driver: one subprocess per job, like the acceptance driver
# ----------------------------------------------------------------------

def run_suite(jobs, args) -> list:
    """Run every job; a measured job gets a process of its own.

    Smoke jobs share this process: they only prove that every workload
    runs and names its metrics, and sixteen interpreter start-ups would
    not fit the 30 s gate.
    """
    docs = []
    spans = {}
    scratch_root = ROOT / ".bench_e2e_tmp"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        for number, (name, seed, trace) in enumerate(jobs):
            print(f"## job {number + 1}/{len(jobs)}: {name} seed={seed} "
                  f"trace={trace}", flush=True)
            span_path = Path(scratch) / f"spans{number}.json"
            wants_spans = bool(trace and args.trace_output)
            if args.smoke:
                docs.append(run_one(name, seed, args.seconds, trace, True,
                                    span_path if wants_spans else None))
                print_run(docs[-1])
            else:
                out_path = Path(scratch) / f"job{number}.json"
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace),
                           "--output", str(out_path)]
                if wants_spans:
                    command += ["--trace-output", str(span_path)]
                done = subprocess.run(command, cwd=ROOT, timeout=900)
                if done.returncode not in (0, 1) or not out_path.exists():
                    raise SystemExit(f"{name} seed={seed} trace={trace} "
                                     f"crashed (exit {done.returncode})")
                with open(out_path) as handle:
                    docs.extend(json.load(handle)["runs"])
            if span_path.exists():
                with open(span_path) as handle:
                    spans[f"{name}/{seed}"] = json.load(handle)
    if args.trace_output:
        with open(args.trace_output, "w") as handle:
            json.dump({"schema": SCHEMA, "traces": spans}, handle)
    return docs


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 end-to-end, 1 per-layer (default both)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, two rounds")
    parser.add_argument("--check", action="store_true",
                        help="fail unless names match BENCHMARK.json")
    parser.add_argument("--output", help="write the result document")
    parser.add_argument("--trace-output", help="write the spans")
    args = parser.parse_args(argv)

    os.environ["BENCH_E2E_ALLOCATOR"] = (
        "glibc-pinned" if pin_allocator() else "default")
    # A ``repro`` already importable wins (PYTHONPATH pointed at another
    # commit's src/ is how an A/B is run); otherwise this checkout's.
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import repro  # noqa: F401
        except ImportError as err:
            print(f"run.py: cannot import repro ({err}); expected it on "
                  f"PYTHONPATH or under {ROOT / 'src'}", file=sys.stderr)
            return 2

    selected = args.workload or names
    traces = [args.trace] if args.trace is not None else [0, 1]
    jobs = [(name, args.seed + run, trace) for name in selected
            for run in range(args.runs) for trace in traces]
    if len(jobs) == 1:
        name, seed, trace = jobs[0]
        docs = [run_one(name, seed, args.seconds, trace, args.smoke,
                        args.trace_output)]
        print_run(docs[0])
    else:
        docs = run_suite(jobs, args)

    failed = [d for d in docs if not d["correct"]]
    problems = check_names(docs, spec, selected) if args.check else []
    for problem in problems:
        print(f"# CHECK: {problem}", file=sys.stderr)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump({"schema": SCHEMA, "fingerprint": fingerprint(),
                       "runs": docs}, handle, indent=1)
            handle.write("\n")
    if len(jobs) > 1:
        print(f"## {len(docs)} runs, {len(failed)} with failed checks, "
              f"{len(problems)} name problems")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
