#!/usr/bin/env python
"""Cross-family index bake-off (Table: recall / cycles / memory per family).

Builds every registered index family (``nsw``, ``hnsw``, ``knn``,
``cagra``, ...) over the same dataset stand-ins and reports, per
(dataset, family) cell:

- **recall@10** against exact ground truth,
- **search cycles** (simulated-kernel cycle total over the query batch),
- **construction cycles** (the build's simulated seconds converted back
  through the device clock),
- **graph memory bytes**,
- **vector footprint** — bytes per vector of the raw float64/float32
  representations next to the quantized tables (fp16, int8, pca; built
  by :func:`~repro.perf.quant.quantize_points`, the tables the staged
  search traverses for every family — see ``docs/quantization.md``).

Every family is searched by the same GANNS kernel and priced by the
same cost model, so the comparison is apples-to-apples across
families.  The headline contract — checked by
``scripts/gates.py bakeoff`` in CI — is that CAGRA's fixed-degree
construction lands below NSW's construction cycles while both hold
recall@10 >= 0.9.

    python benchmarks/bench_bakeoff.py --quick --output bakeoff.json
    python scripts/gates.py bakeoff    # the quick grid + its floors
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import GannsIndex, load_dataset, recall_at_k
from repro.core import BuildParams, backend_families
from repro.gpusim import DEFAULT_COSTS, QUADRO_P5000
from repro.perf.quant import quantize_points

SCHEMA = "repro.bench_bakeoff/v2"

#: Quantized representations reported in the footprint columns.
QUANT_MODES = ("fp16", "int8", "pca")

#: Families benchmarked by default: every registered one.
FAMILIES = backend_families()

#: (name, n_points, n_queries) stand-ins; quick mode keeps only the first.
DATASETS = [
    ("sift1m", 500, 100),
    ("nytimes", 900, 150),
]


def _vector_footprint(index):
    """Bytes/vector of the raw and quantized point representations.

    The quantized figures amortize side tables (PCA basis, int8 scale
    rows, cached norms) over the point count, so they are honest
    storage costs, not just code widths.
    """
    n_dims = index.points.shape[1]
    footprint = {
        "float64": float(8 * n_dims),
        "float32": float(4 * n_dims),
    }
    for mode in QUANT_MODES:
        table = quantize_points(index.points, mode, index.metric)
        footprint[mode] = table.bytes_per_vector()
    return footprint


def _bakeoff_cell(dataset, family, k=10, l_n=64, seed=7):
    """Build + search one (dataset, family) cell; returns its metrics."""
    params = BuildParams(d_min=8, d_max=16, seed=seed)
    index = GannsIndex.build(dataset.points, graph_type=family,
                             params=params)
    report = index.search_report(dataset.queries, k=k, l_n=l_n)
    recall = recall_at_k(report.ids, dataset.ground_truth(k))
    search_cycles = float(report.tracker.total_cycles())
    return {
        "dataset": dataset.name,
        "family": family,
        "n_points": int(dataset.n_points),
        "n_queries": int(dataset.n_queries),
        "recall_at_10": float(recall),
        "search_cycles": search_cycles,
        "search_cycles_per_query": search_cycles / dataset.n_queries,
        # The build's makespan cycles: its simulated seconds through the
        # inverse of the kernel clock conversion.
        "construction_cycles": (float(index.build_report.seconds)
                                * QUADRO_P5000.clock_hz
                                / DEFAULT_COSTS.time_scale),
        "memory_bytes": int(index.graph.memory_bytes()),
        "vector_bytes": _vector_footprint(index),
    }


def run_bakeoff(quick, families=FAMILIES):
    """Run the grid; returns the JSON document."""
    datasets = DATASETS[:1] if quick else DATASETS
    cells = []
    for name, n_points, n_queries in datasets:
        dataset = load_dataset(name, n_points=n_points,
                               n_queries=n_queries)
        for family in families:
            cells.append(_bakeoff_cell(dataset, family))
    return {
        "schema": SCHEMA,
        "quick": quick,
        "families": list(families),
        "datasets": [name for name, _, _ in datasets],
        "cells": cells,
    }


def print_table(doc):
    """Render the per-family comparison table."""
    header = (f"{'dataset':<12} {'family':<8} {'recall@10':>9} "
              f"{'search cyc':>12} {'build cyc':>12} {'mem KiB':>9} "
              f"{'f32 B/v':>8} {'fp16':>6} {'int8':>6} {'pca':>6}")
    print(header)
    print("-" * len(header))
    for cell in doc["cells"]:
        vb = cell["vector_bytes"]
        print(f"{cell['dataset']:<12} {cell['family']:<8} "
              f"{cell['recall_at_10']:>9.3f} "
              f"{cell['search_cycles']:>12.0f} "
              f"{cell['construction_cycles']:>12.0f} "
              f"{cell['memory_bytes'] / 1024:>9.1f} "
              f"{vb['float32']:>8.0f} {vb['fp16']:>6.0f} "
              f"{vb['int8']:>6.0f} {vb['pca']:>6.0f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run only the CI smoke dataset")
    parser.add_argument("--families", nargs="*", default=None,
                        help="subset of families (default: all registered)")
    parser.add_argument("--output", default="BENCH_bakeoff.json",
                        help="where to write the JSON document")
    args = parser.parse_args(argv)

    families = tuple(args.families) if args.families else FAMILIES
    doc = run_bakeoff(quick=args.quick, families=families)
    with open(args.output, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")

    print_table(doc)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
