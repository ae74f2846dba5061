"""The gate harness (``scripts/gates.py``) and the places that name
its gates — CI, the Makefile, the docs — cannot drift apart.

None of these tests runs a gate's real scenario; the chaos tests use a
120-request miniature of it.
"""

import importlib.util
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _read(path):
    with open(os.path.join(ROOT, path)) as handle:
        return handle.read()


@pytest.fixture(scope="module")
def gates():
    spec = importlib.util.spec_from_file_location(
        "gates", os.path.join(ROOT, "scripts", "gates.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunner:
    def test_list_prints_the_table_keys(self, gates, capsys):
        assert gates.main(["--list"]) == 0
        assert capsys.readouterr().out.split() == list(gates.GATES)

    def test_unknown_name_exits_2_and_names_the_known_gates(
            self, gates, capsys, monkeypatch):
        monkeypatch.setattr(gates, "GATES", {
            "serve": lambda: pytest.fail("ran a gate")})
        assert gates.main(["serve", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err and "serve" in err

    def test_failure_exits_1_and_stops(self, gates, capsys, monkeypatch):
        ran = []

        def missed():
            ran.append("missed")
            gates.require(False, "the bar was missed")

        monkeypatch.setattr(gates, "GATES", {
            "fine": lambda: ran.append("fine") or "all good",
            "missed": missed,
            "later": lambda: ran.append("later")})
        assert gates.main([]) == 1
        assert ran == ["fine", "missed"]
        captured = capsys.readouterr()
        assert "ok fine: all good" in captured.out
        assert "FAIL missed: the bar was missed" in captured.err

    def test_every_named_gate_holding_exits_0(self, gates, monkeypatch):
        monkeypatch.setattr(gates, "GATES", {
            "a": lambda: "ok", "b": lambda: pytest.fail("not named")})
        assert gates.main(["a"]) == 0


class TestRunCli:
    def test_returns_and_echoes_stdout(self, gates, capsys):
        text = gates.run_cli(["datasets"], "sift1m")
        assert "sift1m" in text
        assert capsys.readouterr().out == text

    def test_missing_marker_fails(self, gates):
        with pytest.raises(gates.GateFailure, match="report digest"):
            gates.run_cli(["datasets"], "sift1m", "report digest")

    def test_nonzero_exit_code_fails(self, gates):
        with pytest.raises(gates.GateFailure, match="exited 2"):
            gates.run_cli(["mutate-sim", "--batch", "0"])

    def test_same_bytes_compares_two_runs(self, gates):
        class Report:
            def __init__(self, payload):
                self.payload = payload

            def to_bytes(self):
                return self.payload

        runs = iter([Report(b"a"), Report(b"a"), Report(b"a"),
                     Report(b"b")])
        assert gates.same_bytes(lambda: next(runs), "x").payload == b"a"
        with pytest.raises(gates.GateFailure, match="different report"):
            gates.same_bytes(lambda: next(runs), "x")


class TestChaosGateCannotGoVacuous:
    """The parent's checker replayed a drifted copy of the scenario
    that served nothing below tier 0, so the degraded half of its
    oracle never compared an answer."""

    MINI = ["chaos-sim", "--points", "200", "--queries", "40",
            "--fault-plan", "aggressive", "--fault-seed", "0"]

    def test_fails_when_no_degraded_answer_is_compared(self, gates):
        # Faults fire (4 of 7) but the governor never degrades.
        with pytest.raises(gates.GateFailure, match="below tier 0"):
            gates.gate_chaos(self.MINI + ["--requests", "120",
                                          "--qps", "20000"])

    def test_passes_on_the_cli_scenario_it_just_ran(self, gates):
        summary = gates.gate_chaos(self.MINI + ["--requests", "200",
                                                "--qps", "5000"])
        assert "digest matches chaos-sim" in summary
        assert "at tier 2" in summary and "0 silently-wrong" in summary


class TestNamesAgree:
    def test_ci_runs_exactly_the_table(self, gates):
        ci = _read(".github/workflows/ci.yml")
        (step,) = re.findall(r"run: python scripts/gates\.py ([a-z ]+)$",
                             ci, flags=re.M)
        (matrix,) = re.findall(r"gate: \[([a-z, ]+)\]", ci)
        named = step.split() + matrix.split(", ")
        assert sorted(named) == sorted(gates.GATES)
        assert "run: python scripts/gates.py ${{ matrix.gate }}" in ci

    def test_makefile_has_one_pattern_rule(self):
        makefile = _read("Makefile")
        assert "%-smoke:\n\t$(PYTHON) scripts/gates.py $*\n" in makefile
        assert re.findall(r"^[\w%-]*smoke:", makefile, flags=re.M) == [
            "%-smoke:"]

    def test_no_reference_to_a_deleted_checker_remains(self):
        paths = ["Makefile", os.path.join("benchmarks", "bench_bakeoff.py")]
        for top in ("scripts", ".github", "docs", "src"):
            for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
                paths.extend(
                    os.path.relpath(os.path.join(dirpath, name), ROOT)
                    for name in files
                    if name.endswith((".py", ".md", ".yml")))
        assert len(paths) > 100
        stale = [path for path in paths
                 if re.search(r"check_\w+_smoke", _read(path))]
        assert not stale, stale
