"""Shared fixtures: small deterministic datasets and pre-built graphs.

Session-scoped so the dozens of search tests share one graph build.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.datasets.catalog import load_dataset
from repro.datasets.synthetic import gaussian_mixture

# A failing draw prints its ``@reproduce_failure`` blob, so it can be
# replayed from a CI log.  Nothing else departs from Hypothesis's
# defaults: draws stay random, not derandomized.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def small_points():
    """800 points, 24 dims, clustered — enough for meaningful recall."""
    return gaussian_mixture(800, 24, n_clusters=8, cluster_std=0.3,
                            intrinsic_dim=8, seed=3)


@pytest.fixture(scope="session")
def small_queries():
    """40 held-out queries from the same distribution."""
    return gaussian_mixture(40, 24, n_clusters=8, cluster_std=0.3,
                            intrinsic_dim=8, seed=4)


@pytest.fixture(scope="session")
def small_dataset():
    """A tiny SIFT-like catalog dataset with cached ground truth."""
    return load_dataset("sift1m", n_points=1000, n_queries=30)


@pytest.fixture(scope="session")
def small_graph(small_points):
    """Sequential-CPU NSW graph over ``small_points`` (d_min=8, d_max=16)."""
    return build_nsw_cpu(small_points, d_min=8, d_max=16).graph


@pytest.fixture(scope="session")
def cosine_points():
    """Unit-norm points for cosine-metric tests."""
    from tests.oracles.synthetic import hypersphere_shell
    return hypersphere_shell(600, 20, n_clusters=10, concentration=6.0,
                             intrinsic_dim=8, seed=5)


@pytest.fixture(scope="session")
def cosine_graph(cosine_points):
    """Cosine-metric NSW graph over ``cosine_points``."""
    return build_nsw_cpu(cosine_points, d_min=8, d_max=16,
                         metric="cosine").graph


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def searched_rows(monkeypatch):
    """Every query row a replay (or ``stream_batches``) hands to
    ``ganns_search``, as bytes, one list per host call."""
    from repro.core import pipeline
    calls = []
    real = pipeline.ganns_search

    def recording(graph, points, queries, *args, **kwargs):
        calls.append([row.tobytes() for row in queries])
        return real(graph, points, queries, *args, **kwargs)

    monkeypatch.setattr(pipeline, "ganns_search", recording)
    return calls


@pytest.fixture()
def traversed(monkeypatch):
    """``(graph, n_lanes)`` of every ``_traverse`` call, whoever asked."""
    from repro.perf import engine
    calls = []
    real = engine._traverse

    def counting(graph, *args, **kwargs):
        calls.append((graph, len(kwargs["out_ids"])))
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(engine, "_traverse", counting)
    return calls
