#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

The protocol ``benchmarks/e2e/README.md`` asks of a PR that claims a
gain, as one command::

    python3 scripts/bench_ab.py --workload search_lowdim --pairs 10
    make bench-ab WORKLOADS="search_lowdim serve_replay" PAIRS=6

Both sides run this checkout's ``benchmarks/e2e/run.py``; only the
``src`` tree on ``PYTHONPATH`` differs.  ``--parent`` defaults to
``git archive HEAD src`` unpacked into a temporary directory (so run it
before committing the change, or pass the tree to compare against),
``--change`` to this checkout.  Each side must be a checkout holding
``src/repro`` (``run.py`` would otherwise import this checkout's own
``src``): any other tree is refused before a run, and the first run of
each side prints the ``repro`` path it imported.  Pair *i* runs both sides at seed
``--seed + i``, each run a process of its own, the parent first on even
pairs and the change first on odd ones.  The runs of each side are merged into one result document,
``compare.py`` judges the two, and every row gains one column:
``every run`` — whether each run of the change beats each run of the
parent, the condition under which ``compare.py`` can never answer
``unresolved``.  The exit status is ``compare.py``'s.

``--layers`` (``make bench-ab LAYERS=1``) then runs one ``--trace 1``
pass per side and workload at ``--seed`` and prints, side by side, the
per-layer rows that differ by more than 5 % — which layer moved is the
command's output, not prose.  One pass each: orientation for the pairs
above it, never a claim of its own.

``--record PATH`` (``make bench-ab RECORD=1``, which records into the
committed ``BENCH_e2e.json``) appends the judged pair set to a
trajectory file: the ``--label``, the seeds, both sides' fingerprints
and failed-check shares, and per workload x end-to-end metric both
sides' per-run values, medians and quartiles, the verdict and the
``every run`` column.  Entries are only ever appended.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))
import compare  # noqa: E402  (benchmarks/e2e/compare.py)


def archive_head_src(target: Path) -> Path:
    """Unpack ``git archive HEAD src`` under ``target``."""
    blob = subprocess.run(["git", "archive", "HEAD", "src"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    # The archive is this repository's own; the filter only silences
    # the interpreters that warn when none is named.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(target, **safe)
    return target


def checked_tree(side: str, tree: Path) -> Path:
    """``tree``, resolved, if it holds ``src/repro``; otherwise exit
    naming the path.  ``run.py`` falls back to this checkout's own
    ``src`` when ``PYTHONPATH`` holds no ``repro``, so a wrong tree
    would silently measure this checkout on that side."""
    tree = tree.resolve()
    if not (tree / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench_ab: --{side} {tree} holds no "
                         f"src/repro/__init__.py; pass a checkout (the "
                         f"directory above src), not src itself")
    return tree


def imported_repro(side: str, tree: Path, doc: dict) -> str:
    """The ``repro`` path a run imported, or exit if it is not
    ``tree``'s own."""
    path = doc["fingerprint"]["repro_path"]
    if Path(path).resolve() != tree / "src" / "repro":
        raise SystemExit(f"bench_ab: the {side} run imported repro from "
                         f"{path}, not from {tree / 'src' / 'repro'}")
    return path


def run_once(tree: Path, workload: str, seed: int, output: Path,
             trace: int = 0) -> dict:
    """One ``--runs 1 --trace <trace>`` run against ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    output.unlink(missing_ok=True)  # never read a previous run's document
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", workload,
         "--seed", str(seed), "--runs", "1", "--trace", str(trace),
         "--output", str(output)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    if done.returncode not in (0, 1) or not output.exists():
        raise SystemExit(f"bench_ab: {workload} seed={seed} on {tree} "
                         f"crashed (exit {done.returncode})")
    with open(output) as handle:
        return json.load(handle)


def merge(docs: list) -> dict:
    """One result document holding the runs of many."""
    return {"schema": docs[0]["schema"],
            "fingerprint": docs[0]["fingerprint"],
            "runs": [run for doc in docs for run in doc["runs"]]}


def wins_every_run(parent: list, change: list, better: str) -> bool:
    """Does each change value beat each parent value?"""
    if better == "higher":
        return min(change) > max(parent)
    return max(change) < min(parent)


#: ``--layers`` prints a per-layer row when the sides differ by more.
LAYER_TOLERANCE = 0.05


def print_layers(workload: str, parent: dict, change: dict) -> None:
    """The per-layer rows of two ``--trace 1`` runs that differ."""
    print(f"## {workload} layers: one --trace 1 pass per side, rows "
          f"that differ by more than {LAYER_TOLERANCE:.0%}")
    print(f"{'layer':<44}{'unit':<8}{'parent':>14}{'change':>14}  ratio")
    for name, cell in parent["metrics"].items():
        before = cell["value"]
        after = change["metrics"][name]["value"]
        if abs(after - before) <= LAYER_TOLERANCE * abs(before):
            continue
        ratio = f"{after / before:.2f}x" if before else "new"
        print(f"{name:<44}{cell['unit']:<8}{before:>14.6g}{after:>14.6g}"
              f"  {ratio}")


def judged_rows(spec: dict, parent: dict, change: dict) -> list:
    """One record per workload x end-to-end metric both sides ran."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            runs = {"parent": parent.get(workload, {}).get(name),
                    "change": change.get(workload, {}).get(name)}
            if not all(runs.values()):
                continue
            worse_by, verdict = compare.judge(
                runs["parent"], runs["change"], better == "higher",
                metric["bound"])
            row = {"workload": workload, "metric": name,
                   "unit": metric["unit"], "better": better,
                   "bound": metric["bound"], "worse_by": worse_by,
                   "verdict": verdict,
                   "every_run": wins_every_run(runs["parent"],
                                               runs["change"], better)}
            for side, values in runs.items():
                median, q1, q3, _ = compare.summary(values)
                row[side] = {"runs": values, "median": median,
                             "q1": q1, "q3": q3}
            rows.append(row)
    return rows


def record(path: Path, entry: dict) -> None:
    """Append ``entry`` to the trajectory file at ``path``."""
    trajectory = {"schema": 1, "entries": []}
    if path.exists():
        with open(path) as handle:
            trajectory = json.load(handle)
    trajectory["entries"].append(entry)
    with open(path, "w") as handle:
        json.dump(trajectory, handle, indent=1)
        handle.write("\n")


def failed_share(docs: list) -> float:
    """Failed checks over attempted checks, across a side's runs."""
    runs = [run for doc in docs for run in doc["runs"]]
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted \
        else 0.0


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="tree whose src/ is the parent "
                             "(default: git archive HEAD)")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="tree whose src/ is the change "
                             "(default: this checkout)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--layers", action="store_true",
                        help="after the pairs, one --trace 1 pass per "
                             "side: print the per-layer rows that differ")
    parser.add_argument("--record", type=Path,
                        help="append the judged pair set to this "
                             "trajectory file (e.g. BENCH_e2e.json)")
    parser.add_argument("--label", default="unlabelled",
                        help="what the change is, for --record")
    args = parser.parse_args(argv)
    workloads = args.workload or names

    with tempfile.TemporaryDirectory(prefix="bench_ab_") as scratch:
        scratch = Path(scratch)
        trees = {"parent": args.parent or archive_head_src(
                     scratch / "parent"),
                 "change": args.change}
        trees = {side: checked_tree(side, tree)
                 for side, tree in trees.items()}
        docs = {"parent": [], "change": []}
        for workload in workloads:
            for pair in range(args.pairs):
                order = (("parent", "change") if pair % 2 == 0
                         else ("change", "parent"))
                for side in order:
                    doc = run_once(trees[side], workload,
                                   args.seed + pair,
                                   scratch / f"{side}_run.json")
                    path = imported_repro(side, trees[side], doc)
                    if not docs[side]:
                        print(f"## {side} imports repro from {path}",
                              flush=True)
                    docs[side].append(doc)
                    run = doc["runs"][0]
                    print(f"## {workload} seed={args.seed + pair} {side}: "
                          + "  ".join(f"{k}={v['value']:.4g}" for k, v in
                                      run["metrics"].items())
                          + ("" if run["correct"] else "  CHECKS FAILED"),
                          flush=True)
        layers = {}
        if args.layers:
            for workload in workloads:
                layers[workload] = [
                    run_once(trees[side], workload, args.seed,
                             scratch / f"{side}_layers.json",
                             trace=1)["runs"][0]
                    for side in ("parent", "change")]
        paths = {side: scratch / f"{side}.json" for side in docs}
        for side, path in paths.items():
            with open(path, "w") as handle:
                json.dump(merge(docs[side]), handle)
        compared = subprocess.run(
            [sys.executable, str(E2E / "compare.py"),
             str(paths["parent"]), str(paths["change"])],
            cwd=ROOT, capture_output=True, text=True)
        # compare.py's own reader: {workload: {metric: [value per run]}}.
        parent, change = (compare.load(paths[side])[1]
                          for side in ("parent", "change"))

    if args.record:
        fingerprints = {side: {key: value for key, value in
                               docs[side][0]["fingerprint"].items()
                               if key != "repro_path"}
                        for side in docs}
        record(args.record, {
            "label": args.label,
            "seeds": [args.seed + pair for pair in range(args.pairs)],
            "fingerprint": fingerprints,
            "failed_share": {side: failed_share(docs[side])
                             for side in docs},
            "rows": judged_rows(spec, parent, change)})

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for line in compared.stdout.splitlines():
        cells = line.split()
        if line.startswith("workload"):
            line += "  every run"
        elif len(cells) > 1 and cells[1] in parent.get(cells[0], {}) \
                and cells[1] in change.get(cells[0], {}):
            workload, metric = cells[:2]
            line += "  " + ("yes" if wins_every_run(
                parent[workload][metric], change[workload][metric],
                better[metric]) else "no")
        print(line)
    for workload, sides in layers.items():
        print_layers(workload, *sides)
    sys.stderr.write(compared.stderr)
    return compared.returncode


if __name__ == "__main__":
    sys.exit(main())
