"""Backend conformance: one battery every registered index family passes.

This suite is the contract behind ``register_backend``: a new family is
tested *by registration* — it appears in
:func:`repro.core.backend.backend_families` and every test here runs
against it, parametrized over the registry rather than a hand-kept
list.  Per family, on a small fixed-seed synthetic dataset:

- **build determinism** — same seed twice gives a byte-identical graph
  digest;
- **persistence** — ``save``/``load`` round-trips the graph digest and
  the search results;
- **structure** — the (bottom-layer) graph passes
  :func:`validate_graph` and clears the family's reachability floor;
- **recall** — recall@10 clears the family's declared floor;
- **cost-model reconciliation** — a search's tracker total is the sum
  of its phase lanes and crosses the observability bridge with zero
  drift, and the build's cycles invert its simulated seconds;
- **exactness at saturation** — with ``l_n >= n`` over a fully
  reachable graph, GANNS search *is* brute force (families that permit
  disconnection opt out via their profile).

Thresholds come from :data:`PROFILES`, one :class:`ConformanceProfile`
per family, so a family can be honest about weaker guarantees (the plain
KNN digraph) without weakening anyone else's contract.
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest

from repro import GannsIndex
from repro.core import backend_families
from repro.core.params import BuildParams
from repro.datasets.ground_truth import exact_knn
from repro.datasets.synthetic import gaussian_mixture
from repro.graphs import HierarchicalGraph, validate_graph
from repro.graphs.stats import graph_digest
from repro.metrics.distance import get_metric
from repro.gpusim import DEFAULT_COSTS, QUADRO_P5000
from repro.gpusim.kernel import KernelLaunch
from repro.perf.quant import QUANT_MODES
from repro.metrics import recall_at_k
from repro.observability import MetricsRegistry
from repro.observability.bridge import (
    KERNEL_CYCLES_PREFIX,
    publish_tracker_totals,
)
from tests.oracles.graph_measures import reachable_fraction

N_POINTS = 220
N_QUERIES = 32
N_DIMS = 16
K = 10
L_N = 64
#: Smallest power of two >= N_POINTS: the search pool covers the graph.
SATURATING_L_N = 256
SEED = 7

FAMILIES = backend_families()


@dataclass(frozen=True)
class ConformanceProfile:
    """Per-family thresholds for this suite.

    Attributes:
        recall_floor: Minimum recall@10 on the suite's small synthetic
            dataset at the standard ``l_n``.
        reachable_floor: Minimum fraction of vertices reachable from the
            search entry (KNN graphs may legitimately be disconnected).
        exact_at_saturation: Whether search with ``l_n >= n`` must
            return exactly the brute-force answer whenever the graph is
            fully connected.
        quant_recall_delta: Maximum recall@10 the staged quantized
            search may lose versus the exact search on the suite's
            dataset, for each quantization mode — the family's honest
            lossiness bound.
    """

    recall_floor: float = 0.9
    reachable_floor: float = 0.95
    exact_at_saturation: bool = True
    quant_recall_delta: float = 0.05


#: Thresholds per family; a family registered without an entry is held
#: to the defaults.  A pure KNN digraph may be disconnected: it gets
#: honest but lower floors and skips the exact-at-saturation contract,
#: and its weaker structure amplifies traversal perturbations, so its
#: quantized-recall bound is looser.
PROFILES = {
    "nsw": ConformanceProfile(recall_floor=0.9, reachable_floor=0.98),
    "hnsw": ConformanceProfile(recall_floor=0.9, reachable_floor=0.98),
    "knn": ConformanceProfile(recall_floor=0.7, reachable_floor=0.6,
                              exact_at_saturation=False,
                              quant_recall_delta=0.1),
    "cagra": ConformanceProfile(recall_floor=0.9, reachable_floor=0.98),
}

#: Every registered metric, inner product included.
METRIC_NAMES = ("euclidean", "cosine", "ip")

#: One build per family, shared across the battery (builds dominate
#: this suite's wall clock; every test below is read-only on these).
_CACHE = {}


def _dataset():
    points = gaussian_mixture(N_POINTS, N_DIMS, n_clusters=6,
                              cluster_std=0.3, intrinsic_dim=6, seed=41)
    queries = gaussian_mixture(N_QUERIES, N_DIMS, n_clusters=6,
                               cluster_std=0.3, intrinsic_dim=6, seed=42)
    return points, queries


def _build(family):
    points, _ = _dataset()
    params = BuildParams(d_min=8, d_max=16, seed=SEED)
    return GannsIndex.build(points, graph_type=family, params=params)


def _built(family):
    if family not in _CACHE:
        _CACHE[family] = _build(family)
    return _CACHE[family]


def _bottom(graph):
    return graph.bottom if isinstance(graph, HierarchicalGraph) else graph


@pytest.mark.parametrize("family", FAMILIES)
class TestBackendConformance:
    def test_build_is_deterministic(self, family):
        digest_a = graph_digest(_built(family).graph)
        digest_b = graph_digest(_build(family).graph)
        assert digest_a == digest_b, (
            f"family {family!r}: same seed produced different graphs"
        )

    def test_save_load_round_trip(self, family):
        index = _built(family)
        _, queries = _dataset()
        before_ids, before_dists = index.search(queries, k=K, l_n=L_N)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"{family}.npz")
            index.save(path)
            loaded = GannsIndex.load(path)
        assert loaded.graph_type == family
        assert graph_digest(loaded.graph) == graph_digest(index.graph)
        after_ids, after_dists = loaded.search(queries, k=K, l_n=L_N)
        assert after_ids.tobytes() == before_ids.tobytes()
        assert after_dists.tobytes() == before_dists.tobytes()

    def test_graph_validates_and_is_reachable(self, family):
        index = _built(family)
        profile = PROFILES.get(family, ConformanceProfile())
        flat = _bottom(index.graph)
        validate_graph(flat)
        reachable = reachable_fraction(flat)
        assert reachable >= profile.reachable_floor, (
            f"family {family!r}: only {reachable:.3f} of vertices "
            f"reachable (floor {profile.reachable_floor})"
        )

    def test_recall_clears_family_floor(self, family):
        index = _built(family)
        profile = PROFILES.get(family, ConformanceProfile())
        points, queries = _dataset()
        ids, _ = index.search(queries, k=K, l_n=L_N)
        recall = recall_at_k(ids, exact_knn(points, queries, K))
        assert recall >= profile.recall_floor, (
            f"family {family!r}: recall@{K} {recall:.3f} below floor "
            f"{profile.recall_floor}"
        )

    def test_cost_model_reconciles(self, family):
        index = _built(family)
        _, queries = _dataset()
        report = index.search_report(queries, k=K, l_n=L_N)

        # Search cycles are the tracker total, which is exactly the sum
        # of its per-phase lanes.
        cycles = report.tracker.total_cycles()
        assert cycles == pytest.approx(
            sum(report.tracker.phase_totals().values()), rel=1e-12)
        assert cycles > 0

        # Publishing through the observability bridge drifts by zero:
        # the counters re-add to the same total.
        registry = MetricsRegistry()
        publish_tracker_totals(registry, report.tracker)
        total_key = KERNEL_CYCLES_PREFIX.rstrip(".") + "_total"
        assert registry.value(total_key) == pytest.approx(cycles, rel=1e-12)

        # The bake-off's construction cycles invert the kernel clock.
        build = index.build_report
        cycles = (build.seconds * QUADRO_P5000.clock_hz
                  / DEFAULT_COSTS.time_scale)
        seconds = KernelLaunch(QUADRO_P5000).cycles_to_seconds(cycles)
        assert seconds == pytest.approx(build.seconds, rel=1e-12)
        assert index.graph.memory_bytes() > 0

    def test_quantized_recall_within_family_floor(self, family):
        """Staged search holds recall for every quantization mode.

        The quantized traversal is lossy, so instead of id equality the
        profile declares ``quant_recall_delta`` — how much recall@10
        the family may lose to compressed traversal + exact rerank on
        this fixture.  Quantized results must also be deterministic and
        report exact (full-precision) distances for the ids they pick.
        """
        index = _built(family)
        profile = PROFILES.get(family, ConformanceProfile())
        points, queries = _dataset()
        exact_ids, _ = index.search(queries, k=K, l_n=L_N)
        truth = exact_knn(points, queries, K)
        exact_recall = recall_at_k(exact_ids, truth)
        for mode in QUANT_MODES:
            ids, dists = index.search(queries, k=K, l_n=L_N, quant=mode)
            again_ids, again_dists = index.search(queries, k=K, l_n=L_N,
                                                  quant=mode)
            assert ids.tobytes() == again_ids.tobytes(), (
                f"family {family!r}: quant={mode} ids not deterministic"
            )
            assert dists.tobytes() == again_dists.tobytes(), (
                f"family {family!r}: quant={mode} dists not "
                f"deterministic"
            )
            recall = recall_at_k(ids, truth)
            assert recall >= exact_recall - profile.quant_recall_delta, (
                f"family {family!r}: quant={mode} recall@{K} "
                f"{recall:.3f} fell more than "
                f"{profile.quant_recall_delta} below exact "
                f"{exact_recall:.3f}"
            )

    @pytest.mark.parametrize("metric", METRIC_NAMES)
    def test_every_metric_builds_validates_and_searches(self, family,
                                                         metric):
        """Each family builds under each metric, stores the metric's own
        distances, and answers an exact and an int8 staged search with
        the metric's own distances of the ids it returns."""
        points, queries = _dataset()
        points, queries = points[:120], queries[:8]
        index = GannsIndex.build(
            points, graph_type=family, metric=metric,
            params=BuildParams(d_min=8, d_max=16, seed=SEED))
        validate_graph(_bottom(index.graph), points=index.points,
                       check_distances=True)
        for quant in (None, "int8"):
            ids, dists = index.search(queries, k=K, l_n=L_N, quant=quant)
            assert ids.shape == (len(queries), K)
            for row, query in enumerate(queries):
                expected = get_metric(metric).one_to_many(
                    query, points[ids[row]])
                assert np.allclose(dists[row], expected), (family, quant)

    def test_exact_at_saturating_pool(self, family):
        index = _built(family)
        profile = PROFILES.get(family, ConformanceProfile())
        flat = _bottom(index.graph)
        if not (profile.exact_at_saturation
                and reachable_fraction(flat) == 1.0):
            pytest.skip(f"family {family!r} does not pin exactness at "
                        f"saturation")
        points, queries = _dataset()
        ids, _ = index.search(queries, k=K, l_n=SATURATING_L_N)
        truth = exact_knn(points, queries, K)
        assert recall_at_k(ids, truth) == 1.0, (
            f"family {family!r}: saturating search (l_n={SATURATING_L_N} "
            f">= n={N_POINTS}) must equal brute force"
        )


def test_new_families_are_covered_by_registration():
    """The suite parametrizes over the live registry, not a frozen list."""
    assert set(FAMILIES) >= {"nsw", "hnsw", "knn", "cagra"}
    assert FAMILIES == backend_families()
