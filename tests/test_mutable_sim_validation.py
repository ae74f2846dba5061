"""``run_mutation_sim`` rejects workload knobs it cannot honour.

At the parent ``--batch 0`` died inside NumPy (``ValueError: high <=
0``, exit 1), a negative period matched every op (``(step + 1) % -1 ==
0``) and silently replaced the workload with compactions or
checkpoints, and a negative op count ran nothing.
"""

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.mutable import run_mutation_sim


class TestCliRejectsBadKnobs:
    @pytest.mark.parametrize("flag, value, name", [
        ("--batch", "0", "batch_size"),
        ("--batch", "-3", "batch_size"),
        ("--compact-every", "-1", "compact_every"),
        ("--checkpoint-every", "-1", "checkpoint_every"),
    ])
    def test_one_line_error_and_exit_2(self, capsys, flag, value, name):
        code = main(["mutate-sim", "--points", "60", "--ops", "6",
                     flag, value])
        assert code == 2
        captured = capsys.readouterr()
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("repro mutate-sim: error:")
        assert name in line and value in line
        assert "report digest" not in captured.out


class TestFunctionRejectsBadKnobs:
    @pytest.mark.parametrize("knobs", [
        {"n_ops": -1}, {"batch_size": 0}, {"compact_every": -2},
        {"checkpoint_every": -1},
    ])
    def test_raises_configuration_error(self, knobs):
        (name,) = knobs
        with pytest.raises(ConfigurationError, match=name):
            run_mutation_sim(n_points=60, **knobs)

    def test_zero_still_means_never_and_nothing(self):
        report = run_mutation_sim(n_points=60, n_ops=5, compact_every=0,
                                  checkpoint_every=0)
        assert {op.kind for op in report.ops} <= {"insert", "delete",
                                                  "search"}
        assert len(report.ops) == 5
        assert run_mutation_sim(n_points=60, n_ops=0).ops == []
