"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_build_defaults(self):
        args = build_parser().parse_args(["build", "sift1m"])
        assert args.graph_type == "nsw"
        assert args.strategy == "ggraphcon"
        assert args.d_max == 32

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_datasets_lists_all_ten(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("sift1m", "gist", "nytimes", "glove200", "uq_v",
                     "msong", "notre", "ukbench", "deep", "sift10m"):
            assert name in out

    def test_device_shows_calibration(self, capsys):
        assert main(["device"]) == 0
        out = capsys.readouterr().out
        assert "Quadro P5000" in out
        assert "time_scale" in out

    def test_build_and_search_round_trip(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        index_path = str(tmp_path / "idx.npz")
        code = main(["build", "sift1m", "--points", "600",
                     "--queries", "20", "--d-min", "6", "--d-max", "12",
                     "--blocks", "8", "-o", index_path])
        assert code == 0
        assert os.path.exists(index_path)
        out = capsys.readouterr().out
        assert "ggraphcon-ganns" in out

        code = main(["search", "sift1m", "--points", "600",
                     "--queries", "20", "-i", index_path, "-k", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall@5" in out
        assert "queries/s" in out

    def test_tune(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["tune", "sift1m", "--points", "700",
                     "--queries", "20", "--target", "0.5",
                     "--d-min", "8", "--d-max", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "target recall 0.5" in out
        assert "chosen ganns setting" in out

    def test_build_hnsw(self, tmp_path, capsys):
        index_path = str(tmp_path / "hidx.npz")
        code = main(["build", "sift1m", "--points", "500",
                     "--queries", "10", "--graph-type", "hnsw",
                     "--d-min", "6", "--d-max", "12", "--blocks", "4",
                     "-o", index_path])
        assert code == 0
        assert os.path.exists(index_path)


class TestErrorHandling:
    """Library errors surface as one stderr line and exit code 2."""

    def test_serve_sim_bad_l_n_exits_2_with_one_line(self, capsys):
        code = main(["serve-sim", "sift1m", "--points", "400",
                     "--queries", "30", "--requests", "100",
                     "--l-n", "63"])  # not a power of two
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve-sim: error:")
        assert len(err.strip().splitlines()) == 1

    def test_serve_sim_bad_dataset_exits_2(self, capsys):
        code = main(["serve-sim", "no-such-dataset", "--requests", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro serve-sim: error:" in err

    def test_chaos_sim_bad_breaker_threshold_exits_2(self, capsys):
        code = main(["chaos-sim", "sift1m", "--points", "400",
                     "--queries", "30", "--requests", "100",
                     "--breaker-threshold", "0"])
        assert code == 2
        assert "repro chaos-sim: error:" in capsys.readouterr().err

    def test_search_without_an_index_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "index.npz")
        code = main(["search", "sift1m", "--points", "2000", "--queries",
                     "50", "--algorithm", "beam", "-i", missing])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro search: error:")
        assert missing in err and "cannot be read" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_fault_plan_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos-sim", "--fault-plan",
                                       "apocalypse"])


class TestChaosSim:
    def test_chaos_sim_smoke(self, capsys):
        code = main(["chaos-sim", "sift1m", "--points", "600",
                     "--queries", "80", "--requests", "1500",
                     "--qps", "100000", "--max-batch", "128",
                     "--max-wait-ms", "0.5", "-k", "5", "--l-n", "32",
                     "--d-min", "6", "--d-max", "12",
                     "--fault-plan", "aggressive", "--fault-seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: plan=aggressive" in out
        assert "FaultReport" in out
        assert "scheduled faults delivered" in out
        assert "report digest" in out

    def test_chaos_sim_digest_is_replay_deterministic(self, capsys):
        argv = ["chaos-sim", "sift1m", "--points", "500",
                "--queries", "50", "--requests", "600",
                "--qps", "100000", "--max-batch", "128",
                "--max-wait-ms", "0.5", "-k", "5", "--l-n", "32",
                "--d-min", "6", "--d-max", "12",
                "--fault-plan", "mild", "--fault-seed", "7"]
        digests = []
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            (line,) = [ln for ln in out.splitlines()
                       if "report digest" in ln]
            digests.append(line.split()[2])
        assert digests[0] == digests[1]

    def test_chaos_sim_parser_defaults(self):
        args = build_parser().parse_args(["chaos-sim"])
        assert args.fault_plan == "aggressive"
        assert args.retries == 2
        assert args.deadline_ms > 0
        assert not args.no_governor


class TestMutateSim:
    def test_mutate_sim_smoke(self, capsys):
        code = main(["mutate-sim", "--points", "150", "--dims", "8",
                     "--ops", "12", "--seed", "0",
                     "--compact-every", "4", "--checkpoint-every", "6",
                     "--fault-plan", "compaction-crash",
                     "--fault-seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: plan=compaction-crash" in out
        assert "MutationReport" in out
        assert "wrong answers" in out
        assert "report digest" in out

    def test_mutate_sim_digest_is_replay_deterministic(self, capsys):
        argv = ["mutate-sim", "--points", "150", "--dims", "8",
                "--ops", "10", "--seed", "3",
                "--fault-plan", "compaction-crash", "--fault-seed", "1"]
        digests = []
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            (line,) = [ln for ln in out.splitlines()
                       if "report digest" in ln]
            digests.append(line.split()[2])
        assert digests[0] == digests[1]

    def test_mutate_sim_parser_defaults(self):
        args = build_parser().parse_args(["mutate-sim"])
        assert args.fault_plan == "compaction-crash"
        assert args.ops == 24
        assert args.compact_every == 6
        assert args.checkpoint_every == 9

    def test_mutate_sim_bad_l_n_exits_2(self, capsys):
        code = main(["mutate-sim", "--points", "100", "--ops", "4",
                     "--l-n", "63"])
        assert code == 2
        assert "repro mutate-sim: error:" in capsys.readouterr().err


class TestTrace:
    def test_trace_writes_valid_deterministic_files(self, tmp_path,
                                                    capsys):
        from repro.observability import SpanTracer, parse_chrome_trace

        trace_path = tmp_path / "trace.json"
        chrome_path = tmp_path / "chrome.json"
        argv = ["trace", "sift1m", "--points", "500",
                "--queries", "50", "--requests", "400",
                "--qps", "20000", "--max-batch", "64",
                "--max-wait-ms", "0.5", "-k", "5", "--l-n", "32",
                "--d-min", "6", "--d-max", "12",
                "--fault-plan", "aggressive", "--fault-seed", "0",
                "--output", str(trace_path),
                "--chrome-output", str(chrome_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "trace digest" in out
        assert "spans on" in out

        tracer = SpanTracer.from_json_bytes(trace_path.read_bytes())
        tracer.validate()
        assert tracer.roots()[0].name == "serve.replay"
        parse_chrome_trace(chrome_path.read_bytes())

        first = trace_path.read_bytes()
        assert main(argv) == 0
        capsys.readouterr()
        assert trace_path.read_bytes() == first

    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.fault_plan == "aggressive"
        assert args.output == "trace.json"
        assert args.chrome_output is None
