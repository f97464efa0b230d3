"""Dependency-free ASCII charts for the figure artifacts.

The paper's evaluation artifacts are mostly *figures*; the runners print
their data as tables, and this module renders the same series as terminal
line charts so the shapes (knees, plateaus, crossovers) are visible at a
glance.  Pure stdlib — the environment has no plotting stack.

    chart = AsciiChart(title="Figure 8 - 1B")
    chart.add_series("scout", xs, ys, marker="s")
    print(chart.render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Markers assigned to unnamed series, in order.
DEFAULT_MARKERS = "*o+x#@%&"


@dataclass
class _Series:
    name: str
    xs: List[float]
    ys: List[float]
    marker: str


class AsciiChart:
    """A scatter/line chart rendered to monospace text."""

    #: Plot area in characters (the figure panels' size).
    WIDTH = 64
    HEIGHT = 14

    def __init__(self, title: str = "", x_label: str = ""):
        self.title = title
        self.x_label = x_label
        self._series: List[_Series] = []

    # ------------------------------------------------------------------
    def add_series(self, name: str, xs: Sequence[float],
                   ys: Sequence[float], marker: str = "") -> None:
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if not xs:
            raise ValueError("series must not be empty")
        if not marker:
            marker = DEFAULT_MARKERS[len(self._series)
                                     % len(DEFAULT_MARKERS)]
        self._series.append(_Series(name, list(xs), list(ys), marker))

    # ------------------------------------------------------------------
    def _bounds(self) -> Tuple[float, float, float, float]:
        xs = [x for s in self._series for x in s.xs]
        ys = [y for s in self._series for y in s.ys]
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(0.0, min(ys)), max(ys)
        if x_max == x_min:
            x_max = x_min + 1
        if y_max == y_min:
            y_max = y_min + 1
        return x_min, x_max, y_min, y_max

    def render(self) -> str:
        if not self._series:
            raise ValueError("no series to plot")
        x_min, x_max, y_min, y_max = self._bounds()
        grid = [[" "] * self.WIDTH for _ in range(self.HEIGHT)]

        def cell(x: float, y: float) -> Tuple[int, int]:
            col = round((x - x_min) / (x_max - x_min) * (self.WIDTH - 1))
            row = round((y - y_min) / (y_max - y_min) * (self.HEIGHT - 1))
            return (self.HEIGHT - 1 - row), col

        # Plot with simple linear interpolation between points so sparse
        # series still read as curves.
        for series in self._series:
            points = sorted(zip(series.xs, series.ys))
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                steps = max(2, self.WIDTH // max(1, len(points)))
                for i in range(steps + 1):
                    t = i / steps
                    r, c = cell(x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
                    if grid[r][c] == " ":
                        grid[r][c] = "."
            for x, y in points:
                r, c = cell(x, y)
                grid[r][c] = series.marker

        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        label_w = max(len(f"{y_max:.0f}"), len(f"{y_min:.0f}")) + 1
        for i, row in enumerate(grid):
            if i == 0:
                label = f"{y_max:.0f}"
            elif i == self.HEIGHT - 1:
                label = f"{y_min:.0f}"
            else:
                label = ""
            lines.append(f"{label:>{label_w}} |" + "".join(row))
        axis = " " * label_w + " +" + "-" * self.WIDTH
        lines.append(axis)
        x_axis = (f"{' ' * label_w}  {x_min:<.0f}"
                  .ljust(label_w + self.WIDTH - len(f"{x_max:.0f}") + 1)
                  + f"{x_max:.0f}")
        lines.append(x_axis)
        if self.x_label:
            lines.append(" " * label_w + f"  ({self.x_label})")
        legend = "   ".join(f"{s.marker}={s.name}" for s in self._series)
        lines.append(" " * label_w + "  " + legend)
        return "\n".join(lines)


def figure8_chart(result, doc: str = "1B") -> str:
    """Render one Figure 8 panel from a Figure8Result."""
    chart = AsciiChart(title=f"Figure 8 — {doc} documents (conn/s vs "
                             f"clients)",
                       x_label="clients")
    for config, series in result.series[doc].items():
        chart.add_series(config, result.client_counts, series)
    return chart.render()


def figure11_chart(result) -> str:
    """Render Figure 11 (best-effort conn/s vs attackers)."""
    from repro.experiments.figure8 import document_label

    chart = AsciiChart(title=f"Figure 11 — {document_label(result.document)}"
                             f" documents (conn/s vs CGI attackers)",
                       x_label="attackers")
    for config, series in result.series.items():
        chart.add_series(config, result.attacker_counts, series)
    return chart.render()
