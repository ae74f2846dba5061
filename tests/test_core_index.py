"""Tests for the high-level GannsIndex API."""

import os
import struct
import subprocess
import sys
import zipfile
import zlib

import numpy as np
import pytest

import repro
from repro.baselines.beam import beam_search_lanes
from repro.core.hnsw import recover_original_ids
from repro.core.index import GannsIndex
from repro.core.params import BuildParams
from repro.core.backend import backend_families
from repro.errors import ConfigurationError, ConstructionError, SearchError

PARAMS = BuildParams(d_min=6, d_max=12, n_blocks=8)


@pytest.fixture(scope="module")
def points():
    from repro.datasets.synthetic import gaussian_mixture
    return gaussian_mixture(500, 16, n_clusters=8, cluster_std=0.3,
                            intrinsic_dim=8, seed=11)


@pytest.fixture(scope="module")
def queries():
    from repro.datasets.synthetic import gaussian_mixture
    return gaussian_mixture(25, 16, n_clusters=8, cluster_std=0.3,
                            intrinsic_dim=8, seed=12)


@pytest.fixture(scope="module")
def ground_truth(points, queries):
    from repro.datasets.ground_truth import exact_knn
    return exact_knn(points, queries, 10)


class TestBuild:
    def test_nsw_default(self, points, queries, ground_truth):
        index = GannsIndex.build(points, params=PARAMS)
        assert index.graph_type == "nsw"
        recall = index.evaluate_recall(queries, ground_truth, k=10, l_n=64)
        assert recall > 0.8

    @pytest.mark.parametrize("strategy", ["naive-parallel", "serial"])
    def test_nsw_other_strategies(self, points, strategy):
        index = GannsIndex.build(points, strategy=strategy, params=PARAMS)
        assert index.build_report.algorithm.startswith(
            {"naive-parallel": "gnaiveparallel",
             "serial": "gserial"}[strategy])

    def test_hnsw(self, points, queries, ground_truth):
        index = GannsIndex.build(points, graph_type="hnsw", params=PARAMS)
        assert index.order is not None
        recall = index.evaluate_recall(queries, ground_truth, k=10, l_n=64)
        assert recall > 0.7

    def test_knn_graph(self, points):
        index = GannsIndex.build(points, graph_type="knn", knn_k=8,
                                 params=PARAMS)
        assert (index.graph.degrees == 8).all()

    def test_unknown_graph_type(self, points):
        with pytest.raises(ConfigurationError, match="graph_type"):
            GannsIndex.build(points, graph_type="rtree")

    def test_unknown_strategy(self, points):
        with pytest.raises(ConfigurationError, match="strategy"):
            GannsIndex.build(points, strategy="quantum")

    def test_hnsw_rejects_other_strategies(self, points):
        with pytest.raises(ConfigurationError, match="ggraphcon"):
            GannsIndex.build(points, graph_type="hnsw", strategy="serial")

    @pytest.mark.parametrize("family", ["knn", "cagra"])
    @pytest.mark.parametrize("option, value", [
        ("strategy", "naive-parallel"),
        ("search_kernel", "song"),
    ])
    def test_nn_descent_families_refuse_options_they_ignore(
            self, points, family, option, value):
        # Both used to build their NN-Descent graph and drop the option.
        with pytest.raises(ConfigurationError, match=option):
            GannsIndex.build(points[:60], family, params=PARAMS,
                             **{option: value})

    @pytest.mark.parametrize("family", backend_families())
    def test_misspelt_build_option_raises(self, points, family):
        # "cagra" used to swallow unknown keywords and build at defaults.
        with pytest.raises(TypeError, match="graph_degre"):
            GannsIndex.build(points[:60], family, params=PARAMS,
                             graph_degre=4)

    @pytest.mark.parametrize("family", backend_families())
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, points, family, poison):
        # "nsw" used to build over NaN distances silently; "cagra" failed
        # late with an unrelated "row distances must be sorted" GraphError.
        bad = points[:60].copy()
        bad[17, 3] = poison
        with pytest.raises(ConstructionError, match="row 17"):
            GannsIndex.build(bad, family, params=PARAMS)

    def test_from_graph(self, points):
        """The constructor wraps an externally built graph."""
        from repro.baselines.nsw_cpu import build_nsw_cpu
        graph = build_nsw_cpu(points, 8, 16).graph
        index = GannsIndex(points, graph, "nsw", "euclidean")
        ids, dists = index.search(points[:3], k=5, l_n=64)
        assert np.array_equal(ids[:, 0], np.arange(3))
        assert np.allclose(dists[:, 0], 0.0, atol=1e-9)


class TestSearch:
    @pytest.fixture(scope="class")
    def index(self, points):
        return GannsIndex.build(points, params=PARAMS)

    def test_search_shapes(self, index, queries):
        ids, dists = index.search(queries, k=7)
        assert ids.shape == (25, 7)
        assert dists.shape == (25, 7)

    def test_all_algorithms_agree_on_easy_queries(self, index, points):
        for algorithm in ("ganns", "song", "beam"):
            ids, _ = index.search(points[:4], k=3, algorithm=algorithm,
                                  l_n=64)
            assert np.array_equal(ids[:, 0], np.arange(4)), algorithm

    def test_search_report_has_tracker(self, index, queries):
        report = index.search_report(queries, k=5, l_n=64)
        assert report.tracker.total_cycles() > 0
        assert report.queries_per_second() > 0

    def test_default_l_n_scales_with_k(self, index, queries):
        report = index.search_report(queries, k=25)
        assert report.ids.shape[1] == 25

    def test_unknown_algorithm(self, index, queries):
        with pytest.raises(SearchError, match="algorithm"):
            index.search(queries, k=5, algorithm="faiss")

    def test_e_budget_knob(self, index, queries, ground_truth):
        low = index.evaluate_recall(queries, ground_truth, k=10,
                                    l_n=64, e=8)
        high = index.evaluate_recall(queries, ground_truth, k=10,
                                     l_n=64, e=64)
        assert high >= low


class TestHnswIdMapping:
    def test_ids_are_original_ids(self, points):
        index = GannsIndex.build(points, graph_type="hnsw", params=PARAMS)
        # Self-queries must return the original row numbers.
        ids, _ = index.search(points[:6], k=3, l_n=64)
        assert np.array_equal(ids[:, 0], np.arange(6))


class TestBeamAlgorithm:
    """``algorithm="beam"`` is Algorithm 1 once per query: each query
    enters at its own entry (HNSW: its own descent) and the report
    carries the distances, iterations and distance count it computed."""

    @pytest.fixture(scope="class", params=["nsw", "hnsw"])
    def index(self, request, points):
        return GannsIndex.build(points, graph_type=request.param,
                                params=PARAMS)

    @staticmethod
    def _per_query(index, queries, ef):
        entries = np.broadcast_to(index._entries(queries), len(queries))
        return entries, [beam_search_lanes(index._flat_graph(),
                                           index.points, query[None, :], 10,
                                           ef, int(entry))
                         for query, entry in zip(queries, entries)]

    @pytest.mark.parametrize("ef", [10, 32])
    def test_every_query_searches_from_its_own_entry(self, index, queries,
                                                     ef):
        report = index.search_report(queries, k=10, algorithm="beam",
                                     l_n=32, e=ef)
        entries, results = self._per_query(index, queries, ef)
        want = np.concatenate([result.ids for result in results])
        if index.order is not None:
            want = recover_original_ids(want, index.order)
            assert len(set(entries.tolist())) > 1
        assert np.array_equal(report.ids, want)

    def test_reports_what_the_search_computed(self, index, queries):
        report = index.search_report(queries, k=10, algorithm="beam",
                                     l_n=32)
        _, results = self._per_query(index, queries, 32)
        assert report.dists.tobytes() == np.concatenate(
            [result.dists for result in results]).tobytes()
        assert np.array_equal(report.iterations, np.concatenate(
            [result.n_iterations for result in results]))
        assert report.n_distance_computations == sum(
            int(result.n_distance_computations[0]) for result in results)
        assert (report.iterations > 0).all()


class TestPersistence:
    def test_flat_round_trip(self, points, queries, tmp_path):
        index = GannsIndex.build(points, params=PARAMS)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = GannsIndex.load(path)
        a, _ = index.search(queries, k=5, l_n=64)
        b, _ = loaded.search(queries, k=5, l_n=64)
        assert np.array_equal(a, b)

    def test_hierarchical_round_trip(self, points, queries, tmp_path):
        index = GannsIndex.build(points, graph_type="hnsw", params=PARAMS)
        path = tmp_path / "hindex.npz"
        index.save(path)
        loaded = GannsIndex.load(path)
        assert loaded.graph.n_layers == index.graph.n_layers
        a, _ = index.search(queries, k=5, l_n=64)
        b, _ = loaded.search(queries, k=5, l_n=64)
        assert np.array_equal(a, b)

    def test_unknown_metric_is_refused_at_load(self, points, tmp_path):
        # It used to load, and fail only at the first search.
        index = GannsIndex.build(points[:200], params=PARAMS)
        path = tmp_path / "index.npz"
        index.save(path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["metric"] = np.array("bogus")
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="unknown metric"):
            GannsIndex.load(path)

    def test_ip_index_searches_in_a_fresh_process(self, points, queries,
                                                  tmp_path):
        """``ip`` is built in: a new interpreter loads and searches a
        saved inner-product index with no set-up call."""
        index = GannsIndex.build(points[:200], metric="ip", params=PARAMS)
        path = tmp_path / "ip.npz"
        index.save(path)
        np.save(tmp_path / "queries.npy", queries)
        ids, _ = index.search(queries, k=5, l_n=64)
        script = (
            "import sys, numpy as np\n"
            "from repro import GannsIndex\n"
            "index = GannsIndex.load(sys.argv[1])\n"
            "ids, _ = index.search(np.load(sys.argv[2]), k=5, l_n=64)\n"
            "np.save(sys.argv[3], ids)\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, str(path),
             str(tmp_path / "queries.npy"), str(tmp_path / "ids.npy")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert np.array_equal(np.load(tmp_path / "ids.npy"), ids)

    def test_version_check(self, points, tmp_path):
        index = GannsIndex.build(points, params=PARAMS)
        path = tmp_path / "index.npz"
        index.save(path)
        # Corrupt the version.
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["format_version"] = np.array(999)
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="format version"):
            GannsIndex.load(path)

    @pytest.mark.parametrize("graph_type", ["nsw", "hnsw"])
    @pytest.mark.parametrize("corruption, cause", [
        ("truncated", zipfile.BadZipFile),
        ("bit_flipped", zipfile.BadZipFile),      # caught by the CRC
        ("bit_flipped_early", zlib.error),        # caught by inflate
        ("empty", EOFError),
        ("key_missing", KeyError),
        ("not_a_zip", ValueError),                # NumPy reads it as pickle
    ])
    def test_corrupt_archive_is_a_typed_error(self, points, tmp_path,
                                              graph_type, corruption,
                                              cause):
        """A damaged file surfaces as the ``ConfigurationError`` the
        version check raises, naming the path — never the zip / zlib /
        NumPy exception underneath."""
        index = GannsIndex.build(points[:200], graph_type=graph_type,
                                 params=PARAMS)
        path = tmp_path / "index.npz"
        index.save(path)
        blob = bytearray(path.read_bytes())
        if corruption == "truncated":
            path.write_bytes(blob[:len(blob) // 2])
        elif corruption.startswith("bit_flipped"):
            with zipfile.ZipFile(path) as archive:
                member = archive.getinfo("points.npy")
            n_name, n_extra = struct.unpack_from(
                "<HH", blob, member.header_offset + 26)
            stream = member.header_offset + 30 + n_name + n_extra
            if corruption == "bit_flipped":
                blob[stream + member.compress_size // 2] ^= 0x10
            else:
                blob[stream + 5] ^= 0xFF
            path.write_bytes(blob)
        elif corruption == "empty":
            path.write_bytes(b"")
        elif corruption == "not_a_zip":
            path.write_bytes(b"not an index archive\n")
        else:
            with np.load(path, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files
                          if name != "points"}
            np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigurationError, match="index.npz") as raised:
            GannsIndex.load(path)
        assert "truncated or corrupt" in str(raised.value)
        assert isinstance(raised.value.__cause__, cause)

    @pytest.mark.parametrize("name, cause", [
        ("missing.npz", FileNotFoundError),
        ("a_directory", IsADirectoryError),
    ])
    def test_unreadable_path_is_a_typed_error(self, tmp_path, name, cause):
        """A path that cannot be opened is the same ``ConfigurationError``
        naming the path, never the ``OSError`` from ``numpy.load``."""
        path = tmp_path / name
        if cause is IsADirectoryError:
            path.mkdir()
        with pytest.raises(ConfigurationError, match=name) as raised:
            GannsIndex.load(path)
        assert "cannot be read" in str(raised.value)
        assert isinstance(raised.value.__cause__, cause)
