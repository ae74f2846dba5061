"""Deterministic synthetic query traces for serving simulations.

A trace models what a production front-end sees: Poisson arrivals (i.i.d.
exponential inter-arrival gaps at a target rate) over a query population
with a *hot set* — a small fraction of queries that account for a large
share of traffic, which is what makes a result cache worth its memory.
Everything is driven by one seed, so a trace is fully reproducible.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.params import as_count, as_finite
from repro.errors import ServeError
from repro.serve.request import QueryRequest


def synthetic_trace(query_pool: np.ndarray, n_requests: int,
                    mean_qps: float = 50_000.0,
                    repeat_fraction: float = 0.3,
                    hot_fraction: float = 0.02,
                    queries_per_request: int = 1,
                    seed: int = 0) -> Tuple[QueryRequest, ...]:
    """Generate an arrival-ordered request trace over a query pool.

    Args:
        query_pool: ``(p, d)`` matrix of candidate query vectors.
        n_requests: Number of requests to generate.
        mean_qps: Mean arrival rate (requests per simulated second);
            gaps are exponential, so bursts and lulls both occur.
        repeat_fraction: Probability that a request draws from the hot
            set instead of the whole pool — the cache-hit knob.
        hot_fraction: Fraction of the pool forming the hot set (at
            least one query).
        queries_per_request: Query vectors bundled per request.
        seed: RNG seed; identical arguments give identical traces.

    Returns:
        A tuple of :class:`QueryRequest` with non-decreasing arrivals
        and ``request_id`` equal to the trace position.
    """
    query_pool = np.asarray(query_pool)
    if query_pool.ndim != 2 or len(query_pool) == 0:
        raise ServeError(
            f"query_pool must be a non-empty 2-D matrix, got shape "
            f"{query_pool.shape}"
        )
    as_count(n_requests, "n_requests", 1, ServeError)
    as_count(queries_per_request, "queries_per_request", 1, ServeError)
    if as_finite(mean_qps, "mean_qps", ServeError) <= 0:
        raise ServeError(f"mean_qps must be positive, got {mean_qps}")
    if not 0.0 <= repeat_fraction <= 1.0:
        raise ServeError(
            f"repeat_fraction must lie in [0, 1], got {repeat_fraction}"
        )
    if not 0.0 < hot_fraction <= 1.0:
        raise ServeError(
            f"hot_fraction must lie in (0, 1], got {hot_fraction}"
        )

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / mean_qps, size=n_requests))
    hot_size = max(1, int(round(hot_fraction * len(query_pool))))
    from_hot = rng.random(n_requests) < repeat_fraction
    hot_picks = rng.integers(0, hot_size,
                             size=(n_requests, queries_per_request))
    cold_picks = rng.integers(0, len(query_pool),
                              size=(n_requests, queries_per_request))
    picks = np.where(from_hot[:, None], hot_picks, cold_picks)

    return tuple(
        QueryRequest(request_id=i,
                     queries=query_pool[picks[i]].copy(),
                     arrival_seconds=float(arrivals[i]))
        for i in range(n_requests)
    )
