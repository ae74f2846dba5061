"""Cross-family serving equivalence: NSW and CAGRA behind one engine.

The serving layer must be family-agnostic: replaying the *same* trace
through a :class:`ServeEngine` over an NSW graph and over a CAGRA graph
(same corpus, same search parameters) must

* demux each family's results exactly as a direct ``ganns_search`` over
  that family's graph would (the engine adds batching, never answers),
* reconcile with the metrics registry with zero drift for *both*
  families (:meth:`ServeReport.verify_against_metrics`), and
* never cross-serve cached results between families: a
  :class:`ResultCache` serves the one engine that took it, so the second
  family's engine is refused the first one's cache at construction.
"""

import numpy as np
import pytest

from repro import GannsIndex
from repro.core.ganns import ganns_search
from repro.core.params import BuildParams, SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ServeError
from repro.serve import (
    BatchPolicy,
    QueryRequest,
    RequestStatus,
    ResultCache,
    ServeEngine,
)

PARAMS = SearchParams(k=5, l_n=32)
POLICY = BatchPolicy(max_batch=8, max_wait_seconds=1e-3, max_queue=128)
FAMILIES = ("nsw", "cagra")

_POINTS = gaussian_mixture(200, 12, n_clusters=5, cluster_std=0.35,
                           intrinsic_dim=5, seed=61)
_QUERIES = gaussian_mixture(24, 12, n_clusters=5, cluster_std=0.35,
                            intrinsic_dim=5, seed=62)

_GRAPHS = {
    family: GannsIndex.build(_POINTS, graph_type=family,
                             params=BuildParams(d_min=8, d_max=16,
                                                seed=3)).graph
    for family in FAMILIES
}


def _trace(queries, spacing=1e-4):
    return [QueryRequest(request_id=i, queries=queries[i:i + 1],
                         arrival_seconds=i * spacing)
            for i in range(len(queries))]


def _engine(family, cache=None):
    return ServeEngine(_GRAPHS[family], _POINTS, PARAMS, policy=POLICY,
                       cache=cache)


class TestPerFamilyExactness:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_replay_matches_direct_search(self, family):
        report = _engine(family).replay(_trace(_QUERIES))
        direct = ganns_search(_GRAPHS[family], _POINTS, _QUERIES, PARAMS)
        assert report.n_served == len(_QUERIES)
        for i, outcome in enumerate(report.outcomes):
            assert np.array_equal(outcome.ids[0], direct.ids[i])
            assert np.array_equal(outcome.dists[0], direct.dists[i])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_metrics_reconcile_with_zero_drift(self, family):
        report = _engine(family).replay(_trace(_QUERIES))
        assert report.metrics is not None
        report.verify_against_metrics()


class TestFamiliesNeverCrossServe:
    def test_second_family_is_refused_a_shared_cache(self):
        # Same corpus, same queries, same params: the nsw engine's cache
        # holds nsw answers, so the cagra engine may not take it.
        cache = ResultCache(capacity=256)
        nsw = _engine("nsw", cache=cache)
        with pytest.raises(ServeError, match="another ServeEngine"):
            _engine("cagra", cache=cache)
        assert cache.owner is nsw

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_family_hits_its_own_answers(self, family):
        repeated = np.concatenate([_QUERIES[:8], _QUERIES[:8]])
        report = _engine(family, cache=ResultCache(capacity=256)).replay(
            _trace(repeated, spacing=5e-3))
        statuses = [o.status for o in report.outcomes]
        assert statuses[:8] == [RequestStatus.SERVED] * 8
        assert statuses[8:] == [RequestStatus.CACHE_HIT] * 8
        for first, second in zip(report.outcomes[:8],
                                 report.outcomes[8:]):
            assert np.array_equal(first.ids, second.ids)
            assert np.array_equal(first.dists, second.dists)
