"""Formatting helpers for experiment output.

Every runner prints the same artifact the paper shows — rows of a table or
the series of a figure — side by side with the paper's reference values, so
a reader can check the *shape* claims (who wins, by what factor, where the
crossovers fall) at a glance.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 note: str = "") -> str:
    """Render an ASCII table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def paired_table(title: str, client_counts: Sequence[int],
                 series: Dict[str, Dict[str, List[float]]], mode: str,
                 suffix: str, note: str) -> str:
    """Figures 9 and 10: each config's ``"base"`` series beside its
    ``mode`` series (headed ``<config><suffix>``), a row per client
    count."""
    headers = ["clients"]
    for config in series:
        headers += [config, f"{config}{suffix}"]
    rows = [[n] + [v for per_mode in series.values()
                   for v in (per_mode["base"][i], per_mode[mode][i])]
            for i, n in enumerate(client_counts)]
    return format_table(title, headers, rows, note=note)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:,.1f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


def ratio_note(name: str, measured: float, paper: float) -> str:
    """One comparison line: measured vs paper, with the ratio."""
    if paper == 0:
        return f"{name}: measured {measured:,.1f} (paper 0)"
    return (f"{name}: measured {measured:,.1f} vs paper {paper:,.1f} "
            f"(x{measured / paper:.2f})")


def within_band(value: float, low: float, high: float) -> bool:
    """True when ``low <= value <= high`` (shape-band helper)."""
    return low <= value <= high
