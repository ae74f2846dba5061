"""Figure 13 — construction time vs d_max (GloVe200, UKBench).

The paper varies d_max from 32 to 128 (with d_min = d_max / 2) and finds
the construction time of both GGraphCon variants grows gently and almost
linearly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.report import format_table

D_MAX_VALUES = (32, 64, 96, 128)


@pytest.mark.parametrize("name", ["glove200", "ukbench"])
def test_fig13_vary_dmax(name, config, build, datasets, emit, benchmark,
                         cdevice):
    dataset = datasets[name]

    rows = []
    ganns_times = []
    song_times = []
    for d_max in D_MAX_VALUES:
        params = config.build_params(d_min=d_max // 2, d_max=d_max)
        ganns = build(dataset, params, "ggc-ganns", cdevice)
        song = build(dataset, params, "ggc-song", cdevice)
        ganns_times.append(ganns.seconds)
        song_times.append(song.seconds)
        rows.append([d_max, d_max // 2, ganns.seconds, song.seconds])

    table = format_table(
        ["d_max", "d_min", "ggc_ganns (s)", "ggc_song (s)"], rows,
        title=f"Figure 13 [{name}]: construction time vs d_max")

    # Linearity check: fit seconds ~ a * d_max + b and measure R^2.
    def r_squared(times):
        x = np.asarray(D_MAX_VALUES, dtype=np.float64)
        y = np.asarray(times)
        coeffs = np.polyfit(x, y, 1)
        fitted = np.polyval(coeffs, x)
        residual = ((y - fitted) ** 2).sum()
        total = ((y - y.mean()) ** 2).sum()
        return 1.0 - residual / total if total else 1.0

    r2_ganns = r_squared(ganns_times)
    r2_song = r_squared(song_times)
    table += (f"\nlinear-fit R^2: ggc_ganns {r2_ganns:.3f}, ggc_song "
              f"{r2_song:.3f} (paper: 'almost linear')")
    emit(f"fig13_{name}", table)

    assert ganns_times[-1] > ganns_times[0], "time must grow with d_max"
    assert r2_ganns > 0.9 and r2_song > 0.9, "growth must be near-linear"
    # Sub-quadratic in the degree budget: d_max and d_min (and with it
    # the construction beam width) all quadruple across the sweep, so a
    # naive bound is 16x; "almost linear" growth stays well inside it.
    assert ganns_times[-1] / ganns_times[0] < 16.0

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
