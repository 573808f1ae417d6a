"""SVG renderers for the paper's figures (no plotting dependencies).

``scripts/run_experiments.py`` writes the data; these helpers turn the
same series into standalone SVG files so the reproduction's Figure 5
scatter and Figure 6 bars can be eyeballed next to the paper's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

SVG_HEADER = ('<svg xmlns="http://www.w3.org/2000/svg" '
              'width="%d" height="%d" font-family="sans-serif" '
              'font-size="11">')

AXIS_COLOR = "#444444"
SERIES_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728"]


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


class _Canvas:
    """Minimal SVG assembly with a margin-aware data transform."""

    def __init__(self, width: int = 560, height: int = 360,
                 margin: int = 52):
        self.width = width
        self.height = height
        self.margin = margin
        self.parts: List[str] = [SVG_HEADER % (width, height)]
        self.x_range = (0.0, 1.0)
        self.y_range = (0.0, 1.0)

    def set_ranges(self, x_range, y_range):
        self.x_range = x_range
        self.y_range = y_range

    def tx(self, x: float) -> float:
        lo, hi = self.x_range
        frac = (x - lo) / ((hi - lo) or 1.0)
        return self.margin + frac * (self.width - 2 * self.margin)

    def ty(self, y: float) -> float:
        lo, hi = self.y_range
        frac = (y - lo) / ((hi - lo) or 1.0)
        return self.height - self.margin - frac * (self.height - 2 * self.margin)

    def axes(self, x_label: str, y_label: str,
             y_formatter=lambda v: "%.1f" % v,
             x_formatter=lambda v: "%.0f" % v) -> None:
        m = self.margin
        self.parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s"/>'
            % (m, self.height - m, self.width - m, self.height - m, AXIS_COLOR))
        self.parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s"/>'
            % (m, m, m, self.height - m, AXIS_COLOR))
        for tick in _ticks(*self.x_range):
            x = self.tx(tick)
            self.parts.append(
                '<text x="%.1f" y="%d" text-anchor="middle">%s</text>'
                % (x, self.height - m + 16, x_formatter(tick)))
        for tick in _ticks(*self.y_range):
            y = self.ty(tick)
            self.parts.append(
                '<text x="%d" y="%.1f" text-anchor="end">%s</text>'
                % (m - 6, y + 4, y_formatter(tick)))
        self.parts.append(
            '<text x="%d" y="%d" text-anchor="middle">%s</text>'
            % (self.width // 2, self.height - 8, x_label))
        self.parts.append(
            '<text x="14" y="%d" transform="rotate(-90 14 %d)" '
            'text-anchor="middle">%s</text>'
            % (self.height // 2, self.height // 2, y_label))

    def title(self, text: str) -> None:
        self.parts.append(
            '<text x="%d" y="18" text-anchor="middle" font-size="13">%s'
            '</text>' % (self.width // 2, text))

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def figure5_svg(points: Sequence[Tuple[float, float]],
                threaded: Sequence[bool] = ()) -> str:
    """The Figure 5 scatter: slowdown (log y) vs syscalls/sec."""
    canvas = _Canvas()
    xs = [p[0] for p in points]
    ys = [math.log10(max(p[1], 1e-3)) for p in points]
    canvas.set_ranges((0.0, max(xs) * 1.05), (0.0, max(max(ys) * 1.1, 0.5)))
    canvas.title("DetTrace slowdown vs system-call rate (Figure 5)")
    canvas.axes("system calls per second", "slowdown (x, log scale)",
                y_formatter=lambda v: "%.1f" % (10 ** v))
    flags = list(threaded) + [False] * (len(points) - len(threaded))
    for (x, y_raw), is_threaded in zip(points, flags):
        y = math.log10(max(y_raw, 1e-3))
        color = SERIES_COLORS[0] if is_threaded else SERIES_COLORS[1]
        canvas.parts.append(
            '<circle cx="%.1f" cy="%.1f" r="3.5" fill="%s" '
            'fill-opacity="0.75"/>' % (canvas.tx(x), canvas.ty(y), color))
    return canvas.finish()


def figure6_svg(speedups: Dict[str, Dict[str, List[float]]]) -> str:
    """The Figure 6 grouped bars: per tool/procs, native vs DetTrace."""
    tools = ["clustal", "hmmer", "raxml"]
    procs = [1, 4, 16]
    canvas = _Canvas(width=640)
    peak = max(v for tool in speedups.values()
               for series in tool.values() for v in series)
    canvas.set_ranges((0.0, len(tools) * len(procs) * 2.0),
                      (0.0, peak * 1.15))
    canvas.title("Bioinformatics speedups over sequential native (Figure 6)")
    canvas.axes("", "speedup (x)", x_formatter=lambda v: "")
    slot = 0.0
    for tool in tools:
        for i, nprocs in enumerate(procs):
            for j, mode in enumerate(("native", "dettrace")):
                value = speedups[tool][mode][i]
                x0 = canvas.tx(slot + j * 0.85)
                x1 = canvas.tx(slot + j * 0.85 + 0.8)
                y0 = canvas.ty(value)
                y1 = canvas.ty(0.0)
                canvas.parts.append(
                    '<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" '
                    'fill="%s"/>' % (x0, y0, x1 - x0, y1 - y0,
                                     SERIES_COLORS[j]))
            canvas.parts.append(
                '<text x="%.1f" y="%d" text-anchor="middle">%s/%d</text>'
                % (canvas.tx(slot + 0.85), canvas.height - canvas.margin + 16,
                   tool[:4], nprocs))
            slot += 2.0
    legend_y = 34
    for j, label in enumerate(("native", "DetTrace")):
        canvas.parts.append(
            '<rect x="%d" y="%d" width="10" height="10" fill="%s"/>'
            % (canvas.width - 150, legend_y + j * 16 - 9, SERIES_COLORS[j]))
        canvas.parts.append(
            '<text x="%d" y="%d">%s</text>'
            % (canvas.width - 134, legend_y + j * 16, label))
    return canvas.finish()

