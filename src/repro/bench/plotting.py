"""Terminal (ASCII) plotting for benchmark output.

The paper's figures are log-scale throughput-vs-recall curves; the
benchmark suite prints tables, and this module renders the same data as
a quick character plot so a terminal run still gives the figure's visual
gestalt.  No plotting dependency required.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

_MARKERS = "ox+*#@%&"


def _nice_number(value: float) -> str:
    if value >= 10_000:
        return f"{value / 1000:.0f}k"
    if value >= 1000:
        return f"{value / 1000:.1f}k"
    if value >= 10:
        return f"{value:.0f}"
    return f"{value:.2f}"


def ascii_plot(series: Dict[str, Sequence[Tuple[float, float]]],
               width: int = 64, height: int = 18) -> str:
    """Render named (recall, queries/s) series as an ASCII scatter plot
    with a ``log10`` y-axis (the standard ANN-benchmark axes).

    Args:
        series: Mapping of series name to ``(x, y)`` points.  Each series
            gets its own marker; a legend is appended.
        width: Plot width in characters (axis excluded).
        height: Plot height in rows.

    Returns:
        The plot as a multi-line string.
    """
    if not series:
        raise ConfigurationError("ascii_plot needs at least one series")
    if width < 16 or height < 6:
        raise ConfigurationError(
            f"plot must be at least 16x6 characters, got {width}x{height}"
        )
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ConfigurationError("ascii_plot needs at least one point")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if min(ys) <= 0:
        raise ConfigurationError("log-scale y requires positive values")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = math.log10(min(ys)), math.log10(max(ys))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for marker, (name, pts) in zip(_MARKERS, series.items()):
        for x, y in pts:
            col = int(round((x - x_lo) / x_span * (width - 1)))
            row = int(round((math.log10(y) - y_lo) / y_span
                            * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = []
    top_label = _nice_number(max(ys))
    bottom_label = _nice_number(min(ys))
    gutter = max(len(top_label), len(bottom_label)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(gutter)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * gutter + "+" + "-" * width)
    x_axis = (f"{x_lo:.2f}".ljust(width - 6) + f"{x_hi:.2f}")
    lines.append(" " * (gutter + 1) + x_axis)
    legend = "  ".join(f"{marker}={name}" for marker, name
                       in zip(_MARKERS, series))
    lines.append(f"queries/s (log) vs recall:  {legend}")
    return "\n".join(lines)


def curve_plot(curves: Dict[str, Sequence], width: int = 64,
               height: int = 18) -> str:
    """ASCII plot straight from :class:`repro.bench.runner.CurvePoint`
    lists (the output of ``sweep_ganns`` / ``sweep_song``)."""
    series = {name: [(p.recall, p.qps) for p in pts]
              for name, pts in curves.items()}
    return ascii_plot(series, width=width, height=height)
