"""Cross-module integration flows: catalog dataset -> build -> search ->
recall/timing, exercised the way the benchmark suite uses the library."""

import pytest

from repro import (
    BuildParams,
    GannsIndex,
    SearchParams,
    SongParams,
    build_nsw_cpu,
    build_nsw_gpu,
    ganns_search,
    load_dataset,
    recall_at_k,
    song_search,
)
from repro.bench.runner import CurvePoint, qps_at_recall, sweep
from repro.core.tuner import tune_search


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("sift1m", n_points=1500, n_queries=60)


@pytest.fixture(scope="module")
def graph(dataset):
    params = BuildParams(d_min=8, d_max=16, n_blocks=16)
    return build_nsw_gpu(dataset.points, params).graph


class TestSearchPipeline:
    def test_ganns_beats_song_throughput_at_same_recall(self, dataset,
                                                        graph):
        """The paper's central claim, end to end on a catalog stand-in."""
        gt = dataset.ground_truth(10)
        ganns = ganns_search(graph, dataset.points, dataset.queries,
                             SearchParams(k=10, l_n=64))
        song = song_search(graph, dataset.points, dataset.queries,
                           SongParams(k=10, pq_bound=64))
        r_ganns = recall_at_k(ganns.ids, gt)
        r_song = recall_at_k(song.ids, gt)
        assert r_ganns == pytest.approx(r_song, abs=0.05)
        assert (ganns.queries_per_second()
                > 1.5 * song.queries_per_second())

    def test_song_structure_share_in_paper_band(self, dataset, graph):
        song = song_search(graph, dataset.points, dataset.queries[:50],
                           SongParams(k=10, pq_bound=64))
        assert song.structure_fraction() > 0.5

    def test_ganns_structure_share_below_song(self, dataset, graph):
        ganns = ganns_search(graph, dataset.points, dataset.queries[:50],
                             SearchParams(k=10, l_n=64))
        song = song_search(graph, dataset.points, dataset.queries[:50],
                           SongParams(k=10, pq_bound=64))
        assert ganns.structure_fraction() < song.structure_fraction()


class TestSweepHelpers:
    def test_sweep_curves_monotone_in_budget(self, dataset, graph):
        curve = sweep(graph, dataset, 10, "ganns",
                      [(32, 16), (64, 64), (128, 128)])
        recalls = [p.recall for p in curve]
        assert recalls == sorted(recalls)
        qps = [p.qps for p in curve]
        assert qps == sorted(qps, reverse=True)

    def test_song_sweep(self, dataset, graph):
        curve = sweep(graph, dataset, 10, "song", [(16,), (64,)])
        assert curve[1].recall >= curve[0].recall

    @pytest.mark.parametrize("algorithm,setting", [
        ("ganns", (64, 32)), ("song", (48,))])
    def test_tuner_and_sweep_agree_at_a_shared_setting(self, dataset, graph,
                                                       algorithm, setting):
        """One evaluator: the tuner and a sweep score a setting alike."""
        tuned = tune_search(graph, dataset.points, dataset.queries,
                            target_recall=0.01, k=10, algorithm=algorithm,
                            grid=[setting])
        (point,) = sweep(graph, dataset, 10, algorithm, [setting])
        assert tuned.setting == point.setting == setting
        assert (tuned.recall, tuned.qps) == (point.recall, point.qps)

    def test_qps_at_recall_interpolates(self):
        curve = [CurvePoint(0.5, 1000.0, (1,)),
                 CurvePoint(0.9, 100.0, (2,))]
        mid = qps_at_recall(curve, 0.7)
        assert 100.0 < mid < 1000.0
        assert qps_at_recall(curve, 0.3) == 1000.0
        assert qps_at_recall(curve, 0.99) == 100.0


class TestIndexOnCatalogData:
    def test_cosine_catalog_dataset(self):
        ds = load_dataset("nytimes", n_points=1000, n_queries=40)
        index = GannsIndex.build(
            ds.points, metric="cosine",
            params=BuildParams(d_min=8, d_max=16, n_blocks=16))
        recall = index.evaluate_recall(ds.queries, ds.ground_truth(10),
                                       k=10, l_n=128)
        assert recall > 0.6

    def test_dimensionality_sweep_dataset_view(self, dataset):
        """Figure 9's mechanism: truncating dimensions keeps the pipeline
        working and speeds up the simulated search."""
        truncated = dataset.truncate_dims(32)
        params = BuildParams(d_min=8, d_max=16, n_blocks=16)
        graph = build_nsw_gpu(truncated.points, params).graph
        full_graph = build_nsw_gpu(dataset.points, params).graph
        narrow = ganns_search(graph, truncated.points, truncated.queries,
                              SearchParams(k=10, l_n=64))
        wide = ganns_search(full_graph, dataset.points, dataset.queries,
                            SearchParams(k=10, l_n=64))
        assert (narrow.queries_per_second() > wide.queries_per_second())
