"""``scripts/bench_ab.py --record``: the judged pair set becomes one
appended entry of the trajectory file, judged by ``compare.py``'s own
rule.  No benchmark runs here; the tables are made up."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location(
        "bench_ab", os.path.join(ROOT, "scripts", "bench_ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {"workloads": [{"name": "build"}, {"name": "serve_replay"}],
        "end_to_end": [
            {"name": "throughput", "unit": "1/s", "better": "higher",
             "bound": 0.25},
            {"name": "setup_s", "unit": "s", "better": "lower",
             "bound": 0.25}]}


def test_rows_carry_runs_quartiles_verdict_and_every_run(bench_ab):
    parent = {"build": {"throughput": [10.0, 11.0, 12.0, 13.0],
                        "setup_s": [1.0, 1.0, 1.0, 1.0]}}
    change = {"build": {"throughput": [20.0, 21.0, 22.0, 23.0],
                        "setup_s": [2.0, 2.0, 2.0, 2.0]}}
    rows = bench_ab.judged_rows(SPEC, parent, change)
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("build", "throughput"), ("build", "setup_s")]
    faster, slower = rows
    assert faster["parent"]["runs"] == [10.0, 11.0, 12.0, 13.0]
    assert faster["change"]["median"] == 21.5
    assert faster["parent"]["q1"] <= 11.5 <= faster["parent"]["q3"]
    assert (faster["verdict"], faster["every_run"]) == ("ok", True)
    assert (slower["verdict"], slower["every_run"]) == ("worse", False)
    assert slower["worse_by"] == pytest.approx(1.0)


def test_record_appends_entries(bench_ab, tmp_path):
    path = tmp_path / "BENCH_e2e.json"
    bench_ab.record(path, {"label": "first", "rows": []})
    bench_ab.record(path, {"label": "second", "rows": []})
    with open(path) as handle:
        trajectory = json.load(handle)
    assert trajectory["schema"] == 1
    assert [e["label"] for e in trajectory["entries"]] == ["first",
                                                           "second"]


def test_failed_share(bench_ab):
    docs = [{"runs": [{"attempted": 3, "failed": 0}]},
            {"runs": [{"attempted": 5, "failed": 2}]}]
    assert bench_ab.failed_share(docs) == 0.25
    assert bench_ab.failed_share([{"runs": []}]) == 0.0
