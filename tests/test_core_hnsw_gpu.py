"""Tests for GPU HNSW construction (the Section IV-D extension)."""

import numpy as np
import pytest

from repro.core.hnsw import build_hnsw_gpu, recover_original_ids
from repro.core.params import BuildParams
from repro.errors import ConstructionError
from repro.graphs.adjacency import HierarchicalGraph
from repro.graphs.validation import validate_graph

PARAMS = BuildParams(d_min=6, d_max=12, n_blocks=8, seed=1)


class TestStructure:
    @pytest.fixture(scope="class")
    def built(self, small_points):
        return build_hnsw_gpu(small_points[:400], PARAMS)

    def test_hierarchical_output(self, built):
        assert isinstance(built.graph, HierarchicalGraph)
        assert built.graph.layer_sizes[0] == 400
        assert built.graph.n_layers >= 2

    def test_layers_validate(self, built):
        for layer in built.graph.layers:
            validate_graph(layer)

    def test_order_is_permutation(self, built):
        assert sorted(built.order.tolist()) == list(range(400))

    def test_prefix_addressing(self, built):
        """Upper layers only reference ids inside their prefix — the ID
        shuffle's whole point."""
        for idx in range(1, built.graph.n_layers):
            layer = built.graph.layers[idx]
            size = built.graph.layer_sizes[idx]
            live = layer.neighbor_ids[layer.neighbor_ids >= 0]
            if live.size:
                assert live.max() < size

    def test_seconds_accumulate_layers(self, built):
        assert built.seconds > 0
        layer0_phases = [k for k in built.phase_seconds if
                         k.startswith("layer0:")]
        assert layer0_phases

    def test_details(self, built):
        assert built.details["n_layers"] == built.graph.n_layers
        assert built.algorithm == "ggraphcon-hnsw-ganns"


class TestSearchQuality:
    def test_end_to_end_recall(self, small_points, small_queries):
        from repro.core.ganns import ganns_search
        from repro.core.params import SearchParams
        from tests.oracles.hnsw_descent import hnsw_entry_descent
        from repro.datasets.ground_truth import exact_knn
        from repro.metrics.recall import recall_at_k

        points = small_points[:400]
        built = build_hnsw_gpu(points, BuildParams(d_min=8, d_max=16,
                                                   n_blocks=8, seed=1))
        shuffled = points[built.order]
        entries = np.array([
            hnsw_entry_descent(built.graph, shuffled, q)[0]
            for q in small_queries
        ])
        report = ganns_search(built.graph.bottom, shuffled, small_queries,
                              SearchParams(k=10, l_n=64), entry=entries)
        original = recover_original_ids(report.ids, built.order)
        gt = exact_knn(points, small_queries, 10)
        assert recall_at_k(original, gt) > 0.8

    def test_kernel_choice_changes_time_not_graph_shape(self, small_points):
        points = small_points[:250]
        ganns = build_hnsw_gpu(points, PARAMS, search_kernel="ganns")
        song = build_hnsw_gpu(points, PARAMS, search_kernel="song")
        assert song.seconds > ganns.seconds
        assert ganns.graph.layer_sizes == song.graph.layer_sizes


class TestRecoverOriginalIds:
    def test_mapping(self):
        order = np.array([5, 2, 9])
        ids = np.array([[0, 2, 1], [-1, 0, 0]])
        out = recover_original_ids(ids, order)
        assert np.array_equal(out, [[5, 9, 2], [-1, 5, 5]])

    def test_padding_preserved(self):
        order = np.array([1, 0])
        out = recover_original_ids(np.array([-1, -1]), order)
        assert (out == -1).all()


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            build_hnsw_gpu(np.zeros((0, 4)), PARAMS)
