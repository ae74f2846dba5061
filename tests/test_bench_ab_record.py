"""``scripts/bench_ab.py``: ``--record`` appends the judged pair set as
one entry of the trajectory file, judged by ``compare.py``'s own rule,
and a side whose tree holds no ``src/repro`` is refused before any run.
No benchmark runs here; the tables are made up."""

import importlib.util
import json
import os
import re
from pathlib import Path

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


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("tree", ["empty", "src"])
def test_a_tree_without_src_repro_is_refused_before_any_run(
        bench_ab, tmp_path, monkeypatch, side, tree):
    """``run.py`` imports this checkout's ``src`` when the side's tree
    holds none, so both sides would measure the same code."""
    bad = tmp_path if tree == "empty" else Path(ROOT, "src")

    def no_run(*args, **kwargs):
        raise AssertionError("a workload ran")

    monkeypatch.setattr(bench_ab, "run_once", no_run)
    argv = [f"--{side}", str(bad), "--workload", "build", "--pairs", "1"]
    if side == "change":
        argv += ["--parent", ROOT]
    with pytest.raises(SystemExit, match=re.escape(str(bad.resolve()))):
        bench_ab.main(argv)


def test_a_run_that_imported_another_repro_is_refused(bench_ab, tmp_path):
    tree = Path(ROOT).resolve()
    own = {"fingerprint": {"repro_path": str(tree / "src" / "repro")}}
    assert bench_ab.imported_repro("change", tree, own) == \
        own["fingerprint"]["repro_path"]
    other = {"fingerprint": {"repro_path": str(tmp_path / "repro")}}
    with pytest.raises(SystemExit, match="imported repro from"):
        bench_ab.imported_repro("parent", tree, other)
