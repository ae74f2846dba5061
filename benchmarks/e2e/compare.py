#!/usr/bin/env python3
"""Compare two result documents of ``run.py --output``.

    python3 benchmarks/e2e/compare.py parent.json change.json

For every workload x end-to-end metric it prints both medians with their
quartiles (``statistics.quantiles(values, n=4)`` over the runs, the
acceptance driver's rule), the change in the metric's *worse* direction
as a share of the parent's median, and the bound from ``BENCHMARK.json``:

- ``worse``       the change's median is worse by more than the bound;
- ``unresolved``  either side's spread (Q3 - Q1 over the median) is wider
                  than the bound, and the change does not beat the parent
                  in every run — the ruler cannot tell;
- ``ok``          otherwise.

Exits 1 if any row is ``worse``.  Produce the inputs with the same
``--runs``, ``--seed`` and ``--seconds`` on both sides, alternating the
sides when measuring a claimed gain.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path):
    """``{workload: {metric: [value per run]}}`` of the untraced runs."""
    with open(path) as handle:
        doc = json.load(handle)
    table = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue
        metrics = table.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return doc, table


def summary(values):
    """``(median, q1, q3, spread)``; a single run has no spread."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def judge(parent, change, higher_is_better, bound):
    p_med, _, _, p_spread = summary(parent)
    c_med, _, _, c_spread = summary(change)
    sign = -1.0 if higher_is_better else 1.0
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        return worse_by, "worse"
    always_better = (min(change) > max(parent) if higher_is_better
                     else max(change) < min(parent))
    if max(p_spread, c_spread) > bound and not always_better:
        return worse_by, "unresolved"
    return worse_by, "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    (doc_a, parent), (doc_b, change) = load(argv[0]), load(argv[1])
    for label, doc in (("parent", doc_a), ("change", doc_b)):
        fp = doc["fingerprint"]
        print(f"# {label}: commit {fp['commit'][:12]} numpy {fp['numpy']} "
              f"{fp['cpu']} x{fp['nproc']} allocator {fp['allocator']}")
    print(f"{'workload':<22}{'metric':<14}{'parent median [q1..q3]':<42}"
          f"{'change median [q1..q3]':<42}{'worse by':>9}{'bound':>7}  "
          f"verdict")
    n_worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent or workload not in change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = parent[workload].get(name)
            b = change[workload].get(name)
            if not a or not b:
                print(f"{workload:<22}{name:<14}missing on one side")
                n_worse += 1
                continue
            worse_by, verdict = judge(a, b, metric["better"] == "higher",
                                      metric["bound"])
            n_worse += verdict == "worse"
            cells = []
            for values in (a, b):
                median, q1, q3, _ = summary(values)
                cells.append(f"{median:.4g} [{q1:.4g}..{q3:.4g}] "
                             f"n={len(values)}")
            print(f"{workload:<22}{name:<14}{cells[0]:<42}{cells[1]:<42}"
                  f"{worse_by:>+9.1%}{metric['bound']:>7.0%}  {verdict}")
    return 1 if n_worse else 0


if __name__ == "__main__":
    sys.exit(main())
