"""Bulk NN-Descent / CAGRA construction against its per-vertex oracle.

``repro.core.knng`` and ``repro.core.cagra`` run every stage over the
whole vertex set and evaluate one distance per distinct (vertex,
candidate) pair; ``tests/oracles/knng_pervertex.py`` loops over vertices
and evaluates every candidate slot.  The two must agree on every graph
byte and every simulated second, and the bulk form must not gather the
slot-wide, dimension-wide tensor the loop form was written around.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cagra import build_cagra_gpu, rank_prune, reverse_merge
from repro.core.knng import build_knn_graph_gpu
from repro.core.params import BuildParams

from tests.oracles.knng_pervertex import (
    build_cagra_oracle,
    build_knn_graph_oracle,
    rank_prune_oracle,
    reverse_merge_oracle,
)


@st.composite
def corpora(draw):
    """``(points, k)``: n in [k + 1, 120], tie-heavy shapes included."""
    k = draw(st.integers(1, 10))
    # n == k + 1: every row already holds every other vertex.
    n = draw(st.one_of(st.just(k + 1), st.integers(k + 1, 120)))
    n_dims = draw(st.sampled_from([1, 2, 3, 8, 17, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    points = rng.normal(size=(n, n_dims)).astype(
        draw(st.sampled_from([np.float32, np.float64])))
    shape = draw(st.sampled_from(
        ["cloud", "duplicates", "lattice", "constant"]))
    if shape == "duplicates":
        points[rng.integers(0, n, size=n // 2)] = points[0]
    elif shape == "lattice":  # few distinct distances, zero vectors
        points = np.round(points)
    elif shape == "constant":  # all distances equal: ties broken by id
        points[:] = points[0]
    return points, k


def assert_same_report(got, want):
    assert np.array_equal(got.graph.neighbor_ids, want.graph.neighbor_ids)
    assert np.array_equal(got.graph.neighbor_dists,
                          want.graph.neighbor_dists)
    assert np.array_equal(got.graph.degrees, want.graph.degrees)
    assert got.details == want.details
    assert got.seconds == want.seconds
    assert got.phase_seconds == want.phase_seconds
    assert got.category_seconds == want.category_seconds


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), metric=st.sampled_from(["euclidean", "cosine"]),
       seed=st.integers(0, 2**16), max_iterations=st.integers(0, 4),
       degree=st.integers(1, 10))
def test_bulk_construction_equals_the_per_vertex_oracle(
        corpus, metric, seed, max_iterations, degree):
    points, k = corpus
    params = BuildParams(seed=seed)
    assert_same_report(
        build_knn_graph_gpu(points, k, params, metric=metric,
                            max_iterations=max_iterations),
        build_knn_graph_oracle(points, k, params, metric=metric,
                               max_iterations=max_iterations))
    assert_same_report(
        build_cagra_gpu(points, params, metric=metric, graph_degree=degree,
                        knn_iterations=max_iterations),
        build_cagra_oracle(points, params, metric=metric,
                           graph_degree=degree,
                           knn_iterations=max_iterations))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), width=st.integers(1, 12),
       degree=st.integers(1, 8), seed=st.integers(0, 2**16),
       metric=st.sampled_from(["euclidean", "cosine"]))
def test_ragged_rows_equal_the_per_vertex_oracle(n, width, degree, seed,
                                                 metric):
    """Rows the builders never produce: padding, duplicates, few edges."""
    rng = np.random.default_rng(seed)
    points = np.round(rng.normal(size=(n, 4)), 1)
    cand_ids = rng.integers(-1, n, size=(n, width))
    cand_dists = np.where(cand_ids < 0, np.inf,
                          np.round(rng.random(size=(n, width)), 1))
    got_ids, got_dists = rank_prune(cand_ids, cand_dists, points, degree,
                                    metric=metric)
    assert got_ids.shape == got_dists.shape == (n, degree)
    for v in range(n):
        want_ids, want_dists = rank_prune_oracle(
            cand_ids[v], cand_dists[v], points, degree, metric=metric)
        assert np.array_equal(got_ids[v, :len(want_ids)], want_ids)
        assert np.array_equal(got_dists[v, :len(want_ids)], want_dists)
        assert (got_ids[v, len(want_ids):] == -1).all()

    # reverse_merge reads front-packed (dist, id)-sorted forward rows:
    # exactly what rank_prune returns.
    merged = reverse_merge(got_ids, got_dists, degree)
    wanted = reverse_merge_oracle(got_ids, got_dists, degree)
    assert np.array_equal(merged[0], wanted[0])
    assert np.array_equal(merged[1], wanted[1])


def _peak_mib(n_dims):
    """tracemalloc peak (NumPy reports its buffers there) of one build."""
    points = np.random.default_rng(0).normal(size=(200, n_dims))
    tracemalloc.start()
    try:
        build_knn_graph_gpu(points, 24, BuildParams(), max_iterations=2)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_join_never_gathers_the_slot_wide_tensor():
    # 200 vertices x 4k² = 2,304 slots x 128 dims of float64 is 450 MiB
    # (the per-vertex form's peak); the 39,800 distinct pairs gathered
    # unchunked would still be 39 MiB.  The bulk form peaks near 9 MiB,
    # almost all of it the (n, 4k²) candidate-id matrix.
    peak = _peak_mib(128)
    assert peak < 32
    # ... so no dimension-wide temporary scales with the slot or pair
    # count: four times the dimensions adds the float64 points (0.6 MiB)
    # and nothing else.
    assert _peak_mib(512) < peak + 4
