"""Tests for search/build parameter validation."""

import functools
import json
import math
import pathlib
import re

import numpy as np
import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.cluster import ClusterEngine, ConsistentHashRing, RouterPolicy
from repro.core.construction import build_nsw_gpu, build_nsw_gpu_parts
from repro.core.hnsw import build_hnsw_gpu
from repro.core.naive import build_nsw_naive_parallel
from repro.core.params import (MAX_BLOCKS, POINTS_PER_GROUP, BuildParams,
                               SearchParams)
from repro.core.pipeline import stream_batches
from repro.datasets.catalog import load_dataset
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import (ClusterError, ConfigurationError,
                          ConstructionError, DatasetError, HealError,
                          SearchError, ServeError)
from repro.faults import AdmissionGovernor, BreakerPolicy, RetryPolicy
from repro.faults.plan import named_fault_plan
from repro.gpusim.memory import NetworkModel
from repro.graphs.stats import graph_digest
from repro.heal import HealPolicy
from repro.mutable import MutableIndex, recover
from repro.mutable.wal import decode_params, encode_params
from repro.serve import BatchPolicy, ResultCache, synthetic_trace

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
CONSTRUCTION_GOLDEN = (pathlib.Path(__file__).resolve().parent / "data"
                       / "construction_golden.json")


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert p.k == 10
        assert p.l_n == 64
        assert p.explore_budget == 64
        assert p.n_threads == 32

    def test_explicit_e(self):
        assert SearchParams(e=16).explore_budget == 16

    @pytest.mark.parametrize("l_n", [32, 64, 128, 256])
    def test_paper_pool_lengths_accepted(self, l_n):
        assert SearchParams(l_n=l_n).l_n == l_n

    def test_non_pow2_pool_rejected_with_hint(self):
        with pytest.raises(ConfigurationError, match="64"):
            SearchParams(l_n=48)

    def test_k_above_pool_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot exceed"):
            SearchParams(k=100, l_n=64)

    def test_e_bounds(self):
        with pytest.raises(ConfigurationError, match="e must lie"):
            SearchParams(e=0)
        with pytest.raises(ConfigurationError, match="e must lie"):
            SearchParams(l_n=32, e=33)

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            SearchParams(k=0)

    def test_bad_threads(self):
        with pytest.raises(ConfigurationError, match="n_threads"):
            SearchParams(n_threads=-1)

    def test_with_overrides_revalidates(self):
        p = SearchParams()
        with pytest.raises(ConfigurationError):
            p.with_overrides(l_n=48)
        assert p.with_overrides(k=5).k == 5


class TestBuildParams:
    def test_paper_defaults(self):
        p = BuildParams()
        assert p.d_min == 16
        assert p.d_max == 32
        assert p.effective_ef == 32

    def test_effective_search_l_n_pow2(self):
        p = BuildParams(d_min=16, d_max=32)
        assert p.effective_search_l_n == 32
        p = BuildParams(d_min=16, d_max=32, ef_construction=48)
        assert p.effective_search_l_n == 64

    def test_explicit_search_l_n(self):
        assert BuildParams(search_l_n=128).effective_search_l_n == 128
        with pytest.raises(ConfigurationError, match="power of two"):
            BuildParams(search_l_n=100)

    def test_dmin_above_dmax_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot exceed"):
            BuildParams(d_min=64, d_max=32)

    def test_ef_below_dmin_rejected(self):
        with pytest.raises(ConfigurationError, match="ef_construction"):
            BuildParams(d_min=16, ef_construction=8)

    def test_bad_blocks_rejected(self):
        with pytest.raises(ConfigurationError, match="n_blocks"):
            BuildParams(n_blocks=0)

    def test_with_overrides(self):
        p = BuildParams().with_overrides(n_blocks=50)
        assert p.n_blocks == 50


def _report_bytes(report):
    return (graph_digest(report.graph), report.seconds,
            report.phase_seconds, report.category_seconds, report.details)


class TestGridRule:
    """``BuildParams.blocks_for``: the default grid follows the corpus,
    an explicit ``n_blocks`` is used as given."""

    @pytest.mark.parametrize("n,blocks", [
        (1, 1), (9, 1), (10, 1), (19, 1), (20, 2), (1000, 100),
        (2000, 200), (7999, 799), (8000, MAX_BLOCKS), (8009, MAX_BLOCKS),
        (1_000_000, MAX_BLOCKS)])
    def test_default_resolves_by_n(self, n, blocks):
        assert BuildParams().n_blocks is None
        assert BuildParams().blocks_for(n) == blocks
        assert blocks == min(max(n // POINTS_PER_GROUP, 1), MAX_BLOCKS)

    @pytest.mark.parametrize("n", [1, 9, 1000, 8000, 1_000_000])
    @pytest.mark.parametrize("n_blocks", [1, 7, 800, 5000])
    def test_explicit_value_is_returned_as_is(self, n, n_blocks):
        assert BuildParams(n_blocks=n_blocks).blocks_for(n) == n_blocks

    def test_explicit_800_keeps_the_old_default_bytes(self):
        """800 blocks over 1,000 points is the build the default used to
        be; its golden entry is that build's bytes."""
        with open(CONSTRUCTION_GOLDEN) as handle:
            expected = json.load(handle)["nsw_blocks_800"]
        report = build_nsw_gpu(gaussian_mixture(1000, 8, seed=11),
                               BuildParams(d_min=4, d_max=8, n_blocks=800))
        assert graph_digest(report.graph) == expected["graph_digest"]
        assert report.seconds == expected["seconds"]
        assert report.details["n_groups"] == 800

    @pytest.mark.parametrize("n,groups", [(1, 1), (9, 1), (35, 3),
                                          (1000, 100)])
    def test_default_build_uses_the_resolved_grid(self, n, groups):
        report = build_nsw_gpu(gaussian_mixture(n, 4, seed=2),
                               BuildParams(d_min=2, d_max=4))
        assert report.details["n_groups"] == groups

    def test_parts_resolve_their_own_grid(self):
        points = gaussian_mixture(420, 4, seed=5)
        parts = (points[:31], points[31:300], points[300:])
        params = BuildParams(d_min=3, d_max=6)
        reports = build_nsw_gpu_parts(parts, params)
        assert [r.details["n_groups"] for r in reports] == [3, 26, 12]
        for part, report in zip(parts, reports):
            assert _report_bytes(report) == _report_bytes(
                build_nsw_gpu(part, params))

    @pytest.mark.parametrize("n", [300, 1099])
    def test_hnsw_default_equals_its_resolved_grid(self, n):
        """HNSW splits the resolved grid across its layers by size, so a
        default build and one given ``blocks_for(n)`` are the same build
        (``GraphCache`` keys both by the resolved count)."""
        points = gaussian_mixture(n, 4, seed=6)
        params = BuildParams(d_min=3, d_max=6)
        explicit = params.with_overrides(n_blocks=params.blocks_for(n))
        assert _report_bytes(build_hnsw_gpu(points, params)) == \
            _report_bytes(build_hnsw_gpu(points, explicit))

    def test_a_default_grid_round_trips_through_the_wal(self):
        params = BuildParams(d_min=4, d_max=8, seed=2)
        assert decode_params(json.loads(json.dumps(
            encode_params(params)))) == params
        old = {**encode_params(params), "n_blocks": 8}
        assert decode_params(old).n_blocks == 8
        points = gaussian_mixture(140, 6, seed=4)
        index = MutableIndex.build(points[:100], params)
        index.insert(points[100:130], now=1.0)
        index.checkpoint(now=2.0)
        index.insert(points[130:], now=3.0)
        recovered = recover(index.store)
        assert recovered.build_params == params
        assert recovered.build_params.n_blocks is None
        assert recovered.digest() == index.digest()

    def test_no_consumer_reads_the_field(self):
        """Every grid is resolved by ``blocks_for``; no code outside
        ``params.py`` reads ``params.n_blocks``."""
        reads = []
        for path in SRC.rglob("*.py"):
            if path.name == "params.py":
                continue
            for line in path.read_text().splitlines():
                if re.search(r"params\.n_blocks\b", line):
                    reads.append(f"{path.name}: {line.strip()}")
        assert reads == []


def _cluster(**kwargs):
    """A two-shard cluster; its degrees reach ``BuildParams`` per shard."""
    return ClusterEngine(gaussian_mixture(60, 4, seed=3), n_shards=2,
                         n_replicas=1, **kwargs)


#: Every integer field of the parameter bundles, and the cluster's
#: degrees, which become ``BuildParams`` fields.
INTEGER_FIELDS = (
    [(SearchParams, name) for name in ("k", "l_n", "e", "n_threads",
                                       "rerank_factor")]
    + [(BuildParams, name) for name in ("d_min", "d_max", "n_blocks",
                                        "n_threads", "ef_construction",
                                        "search_l_n", "seed")]
    + [(_cluster, "d_min"), (_cluster, "d_max")])


class TestIntegerFields:
    @pytest.mark.parametrize("bad", [10.5, True])
    @pytest.mark.parametrize(
        "make,name", INTEGER_FIELDS,
        ids=[f"{make.__name__.strip('_')}.{name}"
             for make, name in INTEGER_FIELDS])
    def test_floats_and_bools_are_refused(self, make, name, bad):
        with pytest.raises(ConfigurationError,
                           match=f"^{name} must be an integer, got {bad!r}$"):
            make(**{name: bad})

    def test_numpy_integers_and_none_are_accepted(self):
        search = SearchParams(k=np.int64(10), l_n=np.int32(64),
                              e=np.int64(32), n_threads=np.uint8(16))
        assert search.explore_budget == 32
        build = BuildParams(d_min=np.int64(8), d_max=np.int32(16),
                            n_blocks=np.int64(100), seed=np.uint32(3),
                            ef_construction=None, search_l_n=None)
        assert build.effective_ef == 16


def _stream(**kwargs):
    points = gaussian_mixture(40, 4, seed=3)
    graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
    return stream_batches(graph, points, points[:5], SearchParams(k=2),
                          **kwargs)


#: Integer arguments of entry points outside the parameter bundles:
#: ``(make, field, error class)``.  Each goes through ``as_count``.
ENTRY_POINT_COUNTS = [
    (functools.partial(load_dataset, "sift1m"), "n_points", DatasetError),
    (functools.partial(load_dataset, "sift1m", n_points=50), "n_queries",
     DatasetError),
    (functools.partial(build_nsw_naive_parallel,
                       gaussian_mixture(40, 4, seed=3),
                       BuildParams(d_min=4, d_max=8, n_blocks=4)),
     "batch_size", ConstructionError),
    (_stream, "batch_size", SearchError),
    (ConsistentHashRing, "n_shards", ClusterError),
]


class TestEntryPointCounts:
    @pytest.mark.parametrize("bad", [2.5, True])
    @pytest.mark.parametrize(
        "make,name,error", ENTRY_POINT_COUNTS,
        ids=[f"{getattr(make, 'func', make).__name__.strip('_')}.{name}"
             for make, name, _ in ENTRY_POINT_COUNTS])
    def test_floats_and_bools_are_refused(self, make, name, error, bad):
        with pytest.raises(error,
                           match=f"^{name} must be an integer, got {bad!r}$"):
            make(**{name: bad})


def _trace(**kwargs):
    return synthetic_trace(gaussian_mixture(8, 4, seed=3),
                           **{"n_requests": 10, **kwargs})


#: Counts and durations at the serving boundary: ``(make, field, bad
#: value, error class, message)``.  Each field goes through ``as_count``
#: or ``as_finite`` and raises its module's own error.
SERVING_FIELDS = [
    (BatchPolicy, "max_batch", 10.5, ConfigurationError, "an integer"),
    (BatchPolicy, "max_batch", True, ConfigurationError, "an integer"),
    (BatchPolicy, "max_queue", 64.5, ConfigurationError, "an integer"),
    (BatchPolicy, "max_wait_seconds", math.nan, ConfigurationError,
     "a finite number"),
    (BatchPolicy, "max_wait_seconds", math.inf, ConfigurationError,
     "a finite number"),
    (ResultCache, "capacity", 10.5, ConfigurationError, "an integer"),
    (HealPolicy, "max_rebuild_attempts", 2.5, HealError, "an integer"),
    (HealPolicy, "mttr_bound_seconds", math.nan, HealError,
     "a finite number"),
    (RetryPolicy, "max_retries", 2.5, ConfigurationError, "an integer"),
    (RetryPolicy, "max_retries", True, ConfigurationError, "an integer"),
    (RetryPolicy, "base_seconds", math.nan, ConfigurationError,
     "a finite number"),
    (BreakerPolicy, "failure_threshold", 2.5, ConfigurationError,
     "an integer"),
    (BreakerPolicy, "cooldown_seconds", math.nan, ConfigurationError,
     "a finite number"),
    (RouterPolicy, "heartbeat_seconds", math.nan, ClusterError,
     "a finite number"),
    (NetworkModel, "bandwidth_gbps", math.nan, ConstructionError,
     "a finite number"),
    (AdmissionGovernor, "tiers", ((32.9, 16), (16, 8)), ConfigurationError,
     "an integer"),
    (_trace, "n_requests", 10.5, ServeError, "an integer"),
    (_trace, "queries_per_request", 2.5, ServeError, "an integer"),
    (functools.partial(named_fault_plan, "replica-loss", 1.0),
     "n_workers", 2.5, ConfigurationError, "an integer"),
    (functools.partial(named_fault_plan, "replica-loss", 1.0),
     "n_workers", -3, ConfigurationError, ">= 0"),
]


class TestServingFields:
    @pytest.mark.parametrize(
        "make,name,bad,error,message", SERVING_FIELDS,
        ids=[f"{name}={bad!r}" for _, name, bad, _, _ in SERVING_FIELDS])
    def test_bad_value_raises_the_module_error(self, make, name, bad,
                                               error, message):
        with pytest.raises(error, match=f"{name} must be {message}"):
            make(**{name: bad})

    def test_untargeted_plan_stays_valid(self):
        plan = named_fault_plan("replica-loss", 1.0, n_workers=0)
        assert all(e.target == -1 for e in plan.events
                   if e.kind == "worker_loss")
