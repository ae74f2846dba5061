"""Recommendation retrieval: maximum inner-product search.

Recommendation and advertising — applications the paper's introduction
cites for GPU ANN — rank items by the *inner product* of user and item
latent factors.  Inner product is not a metric, but proximity-graph
search only needs a comparable score, so ``metric="ip"`` (negative
inner product) is built in across the whole stack.

This example builds an item index from matrix-factorization-style
embeddings, serves top-k recommendations for a batch of users with
GANNS, and verifies against exact MIPS.  It also demonstrates the
multicore GGraphCon build (Section IV-B's portability remark)
building the same index on CPU cores.

Run it with::

    python examples/recommendation_mips.py
"""

from __future__ import annotations

import numpy as np

from repro import BuildParams, SearchParams, ganns_search, recall_at_k
from repro.baselines.nsw_cpu import build_nsw_cpu, build_nsw_multicore
from repro.datasets.ground_truth import exact_knn


def make_embeddings(n_items: int, n_users: int, latent_dim: int,
                    ambient_dim: int, seed: int = 0):
    """Latent-factor embeddings: low-rank structure + popularity skew."""
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(latent_dim, ambient_dim))
    items = rng.normal(size=(n_items, latent_dim)) @ basis
    # Popular items have larger norms (the MIPS hub effect).
    popularity = rng.pareto(2.5, size=n_items) + 1.0
    items *= popularity[:, None] / popularity.mean()
    users = rng.normal(size=(n_users, latent_dim)) @ basis
    return items.astype(np.float32), users.astype(np.float32)


def main() -> None:
    items, users = make_embeddings(n_items=5000, n_users=300,
                                   latent_dim=12, ambient_dim=48)
    print(f"catalog: {len(items)} items x {items.shape[1]} dims; "
          f"{len(users)} user queries; objective: top-10 inner product")

    # Exact MIPS ground truth (brute force).
    ground_truth = exact_knn(items, users, 10, metric="ip")

    # Build the item graph under the IP "distance".
    params = BuildParams(d_min=16, d_max=32, n_blocks=64)
    graph = build_nsw_cpu(items, params.d_min, params.d_max,
                          metric="ip").graph

    print(f"\n{'l_n/e':>12} {'recall@10':>10} {'queries/s':>12}")
    for l_n, e in ((64, 32), (64, 64), (128, 128), (256, 256)):
        report = ganns_search(graph, items, users,
                              SearchParams(k=10, l_n=l_n, e=e))
        recall = recall_at_k(report.ids, ground_truth)
        print(f"{f'{l_n}/{e}':>12} {recall:>10.3f} "
              f"{report.queries_per_second():>12,.0f}")

    # Same construction on a 26-core CPU (the paper's Section IV-B
    # remark: GGraphCon is substrate-independent).
    multicore = build_nsw_multicore(items, params, n_cores=26, metric="ip")
    report = ganns_search(multicore.graph, items, users,
                          SearchParams(k=10, l_n=128))
    print(f"\nmulticore GGraphCon (26 cores): built in "
          f"{multicore.seconds:.2f} modeled seconds, recall@10 = "
          f"{recall_at_k(report.ids, ground_truth):.3f}")

    # Show one user's recommendations with their scores.
    ids, dists = report.ids[0], -report.dists[0]
    print(f"user 0 top-5 items: {ids[:5].tolist()} "
          f"(inner products {np.round(dists[:5], 3).tolist()})")


if __name__ == "__main__":
    main()
