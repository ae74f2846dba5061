"""Plain-text table rendering for benchmark output.

Every benchmark prints a table with a "paper" column next to the measured
one, so a run reads like the paper's evaluation section.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1000:
            return f"{cell:,.0f}"
        if magnitude >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Cell]],
                 title: str = "") -> str:
    """Render an aligned plain-text table.

    Args:
        headers: Column names.
        rows: Row cells; floats are formatted adaptively.
        title: Optional title line printed above the table.

    Returns:
        The table as a single string (no trailing newline).
    """
    rendered: List[List[str]] = [[_render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(headers))
    lines.append(fmt_row(["-" * w for w in widths]))
    lines.extend(fmt_row(row) for row in rendered)
    return "\n".join(lines)


def speedup_band_note(low: float, high: float, measured: float) -> str:
    """Human-readable in-band/out-of-band verdict for a speedup."""
    if low <= measured <= high:
        return f"in paper band [{low:g}, {high:g}]"
    return f"outside paper band [{low:g}, {high:g}]"


def format_phase_bars(phase_seconds: dict, width: int = 40,
                      title: str = "") -> str:
    """Horizontal bar chart of per-phase times.

    Args:
        phase_seconds: Mapping of phase name to seconds.
        width: Width in characters of the longest bar.
        title: Optional title line.

    Returns:
        One line per phase: name, bar, seconds and share.
    """
    total = sum(phase_seconds.values())
    if not phase_seconds or total <= 0:
        return title or "(no phases recorded)"
    longest = max(phase_seconds.values())
    name_width = max(len(name) for name in phase_seconds)
    lines = [title] if title else []
    for name, seconds in sorted(phase_seconds.items(),
                                key=lambda item: -item[1]):
        bar = "#" * max(1, int(round(seconds / longest * width)))
        share = seconds / total
        lines.append(f"{name.rjust(name_width)}  {bar.ljust(width)} "
                     f"{seconds * 1e3:9.3f} ms  {share:6.1%}")
    return "\n".join(lines)
