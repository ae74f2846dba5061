"""The whole-stack soak harness: small but honest.

Runs :func:`repro.heal.soak.run_soak_sim` at reduced scale and asserts
the gate's load-bearing properties: byte-identical reruns, zero
oracle violations, every induced replica loss healed within the MTTR
bound, and a canonical report encoding whose digest changes when the
seed does.
"""

import pytest

from repro.errors import HealError
from repro.heal import SoakReport, run_soak_sim

#: One shared small soak (the suite's wall clock lives here).
_CACHE = {}


def _soak(seed=0):
    if seed not in _CACHE:
        _CACHE[seed] = run_soak_sim(
            seed=seed, n_points=300, n_requests=120, n_shards=3,
            n_replicas=2)
    return _CACHE[seed]


def test_soak_passes_the_gate():
    report = _soak()
    assert isinstance(report, SoakReport)
    assert [p.name for p in report.phases] == \
        ["cluster", "mutable", "quant"]
    assert report.n_wrong == 0
    assert report.n_unhealed == 0
    assert report.n_repairs > 0
    assert report.passed


def test_soak_is_byte_deterministic():
    report = _soak()
    again = run_soak_sim(seed=0, n_points=300, n_requests=120,
                         n_shards=3, n_replicas=2)
    assert report.to_bytes() == again.to_bytes()
    assert report.digest() == again.digest()


def test_soak_digest_tracks_the_seed():
    assert _soak(0).digest() != _soak(1).digest()


def test_phase_lines_round_into_report_bytes():
    report = _soak()
    encoded = report.to_bytes().decode("utf-8")
    for phase in report.phases:
        assert phase.to_line() in encoded
    assert f"seed={report.seed}" in encoded


def test_summary_shows_the_verdict():
    report = _soak()
    text = report.summary()
    assert "SoakReport:" in text
    assert "PASS" in text


def test_soak_rejects_bad_sizes():
    with pytest.raises(HealError):
        run_soak_sim(seed=0, n_requests=0)
