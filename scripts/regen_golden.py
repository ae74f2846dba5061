"""Regenerate committed golden artifacts under ``tests/data/``.

Golden files pin byte-for-byte determinism claims; regenerating one is
a *conscious* act that must be called out in the commit message.  Each
artifact has its own flag so an intentional format change regenerates
exactly the goldens it invalidates:

    PYTHONPATH=src python scripts/regen_golden.py --trace

``--trace`` rewrites ``tests/data/trace_golden.json.gz`` — the frozen
chaos-serving scenario of ``tests/test_trace_golden.py``, gzip-packed
with ``mtime=0`` so the archive bytes themselves are reproducible.
``--cluster-trace`` rewrites ``tests/data/cluster_trace_golden.json.gz``
— the frozen sharded-cluster scenario of
``tests/test_cluster_trace_golden.py``, same packing.
``--mutate-trace`` rewrites ``tests/data/mutate_trace_golden.json.gz``
— the frozen chaos-mutation scenario of
``tests/test_mutate_trace_golden.py``, same packing.
``--cagra`` rewrites ``tests/data/cagra_golden.npz`` — the frozen
CAGRA build digest + GANNS search results of
``tests/test_cagra_golden.py``.
``--construction`` rewrites ``tests/data/construction_golden.json`` —
graph digests, simulated seconds and phase seconds of the frozen
GGraphCon scenarios of ``tests/test_perf_equivalence.py``
(``TestConstructionEquivalence``): the GPU-clock rows (``nsw_*``,
``hnsw``, ``insert_exclude_mask``, ``gserial_*``) and the CPU-clock
rows (``multicore_*``).  A change to one clock's
pricing rule must move only that clock's rows.
(The GANNS search golden has its own legacy path:
``PYTHONPATH=src python tests/test_golden_determinism.py
--regenerate``.)
"""

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def regen_trace() -> None:
    from tests.test_trace_golden import (
        GOLDEN_PATH,
        compute_golden_trace,
        write_golden,
    )
    payload = compute_golden_trace()
    write_golden(payload)
    print(f"wrote {GOLDEN_PATH} ({len(payload):,} bytes uncompressed)")


def regen_cluster_trace() -> None:
    from tests.test_cluster_trace_golden import (
        GOLDEN_PATH,
        compute_golden_cluster_trace,
        write_golden,
    )
    payload = compute_golden_cluster_trace()
    write_golden(payload)
    print(f"wrote {GOLDEN_PATH} ({len(payload):,} bytes uncompressed)")


def regen_mutate_trace() -> None:
    from tests.test_mutate_trace_golden import (
        GOLDEN_PATH,
        compute_golden_mutation,
        write_golden,
    )
    payload = compute_golden_mutation()
    write_golden(payload)
    print(f"wrote {GOLDEN_PATH} ({len(payload):,} bytes uncompressed)")


def regen_cagra() -> None:
    from tests.test_cagra_golden import (
        GOLDEN_PATH,
        compute_golden,
        write_golden,
    )
    graph, ids, dists = compute_golden()
    write_golden(graph, ids, dists)
    print(f"wrote {GOLDEN_PATH}")


def regen_construction() -> None:
    from tests.test_perf_equivalence import (
        CONSTRUCTION_GOLDEN_PATH,
        compute_construction_golden,
        write_construction_golden,
    )
    golden = compute_construction_golden()
    write_construction_golden(golden)
    print(f"wrote {CONSTRUCTION_GOLDEN_PATH} ({len(golden)} scenarios)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate committed golden artifacts")
    parser.add_argument("--trace", action="store_true",
                        help="regenerate tests/data/trace_golden.json.gz")
    parser.add_argument("--cluster-trace", action="store_true",
                        help="regenerate "
                             "tests/data/cluster_trace_golden.json.gz")
    parser.add_argument("--mutate-trace", action="store_true",
                        help="regenerate "
                             "tests/data/mutate_trace_golden.json.gz")
    parser.add_argument("--cagra", action="store_true",
                        help="regenerate tests/data/cagra_golden.npz")
    parser.add_argument("--construction", action="store_true",
                        help="regenerate "
                             "tests/data/construction_golden.json")
    args = parser.parse_args(argv)
    if not (args.trace or args.cluster_trace or args.mutate_trace
            or args.cagra or args.construction):
        parser.error("nothing selected; pass --trace, --cluster-trace, "
                     "--mutate-trace, --cagra and/or --construction")
    if args.trace:
        regen_trace()
    if args.cluster_trace:
        regen_cluster_trace()
    if args.mutate_trace:
        regen_mutate_trace()
    if args.cagra:
        regen_cagra()
    if args.construction:
        regen_construction()
    return 0


if __name__ == "__main__":
    sys.exit(main())
