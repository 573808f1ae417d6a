"""Render the paper's tables and figures as text.

The experiments (``repro.analysis.experiments``) compute raw rows and
series; these helpers format them the way the paper presents them, side
by side with the paper's own numbers where available.  The ``PAPER_*``
constants are the one transcription of the paper's numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Paper values for Table 1 (top): given baseline status, DetTrace status
#: fractions.
PAPER_TABLE1_TOP = {
    ("irreproducible", "reproducible"): 0.7265,
    ("irreproducible", "unsupported"): 0.1599,
    ("irreproducible", "timeout"): 0.1136,
    ("reproducible", "reproducible"): 0.9051,
    ("reproducible", "unsupported"): 0.0360,
    ("reproducible", "timeout"): 0.0589,
}

#: Paper values for Table 2.
PAPER_TABLE2 = {
    "System call events": 843_621.53,
    "User process memory reads": 396_474.88,
    "rdtsc intercepted": 33_487.55,
    "Requests for scheduling next process": 6_049.51,
    "Replays due to blocking system call": 1_283.72,
    "Process spawn events": 2_377.54,
    "read retries": 141.28,
    "/dev/urandom opens": 159.92,
    "write retries": 113.98,
}

#: Paper Figure 6 speedups: tool -> {mode -> [1, 4, 16 procs]}.
PAPER_FIG6 = {
    "clustal": {"native": [1.00, 1.98, 4.24], "dettrace": [0.85, 2.01, 4.17]},
    "hmmer": {"native": [1.00, 2.96, 7.46], "dettrace": [0.66, 2.24, 4.78]},
    "raxml": {"native": [1.00, 2.76, 6.88], "dettrace": [0.29, 0.86, 1.11]},
}

#: Paper §7.6 slowdowns.
PAPER_TF = {
    "alexnet": {"vs_parallel": 17.49, "vs_serial": 1.51},
    "cifar10": {"vs_parallel": 11.94, "vs_serial": 1.08},
}

#: Paper §7.4 aggregate build slowdown.
PAPER_BUILD_AGGREGATE = 3.49

#: Paper §7.1.3 rr numbers.
PAPER_RR = {"crash_fraction": 46 / 81, "mean_overhead": 5.8,
            "min_overhead": 3.3, "max_overhead": 22.7}


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """A plain fixed-width table."""
    cols = [[str(h)] + [str(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_table1(matrix: Dict[Tuple[str, str], int]) -> str:
    """Render the measured BL->DT transition matrix next to the paper's."""
    bl_totals = {}
    for (bl, _dt), count in matrix.items():
        bl_totals[bl] = bl_totals.get(bl, 0) + count
    rows = []
    for bl in ("irreproducible", "reproducible"):
        for dt in ("reproducible", "unsupported", "timeout"):
            count = matrix.get((bl, dt), 0)
            total = bl_totals.get(bl, 0)
            frac = count / total if total else 0.0
            paper = PAPER_TABLE1_TOP.get((bl, dt), 0.0)
            rows.append(["BL %s" % bl, "DT %s" % dt, count,
                         "%.1f%%" % (100 * frac), "%.1f%%" % (100 * paper)])
    return format_table(
        ["given", "outcome", "count", "measured", "paper"], rows,
        title="Table 1 (top): build status moving from baseline to DetTrace")


def format_scatter(points: List[Tuple[float, float]], width: int = 64,
                   height: int = 16, log_y: bool = True,
                   title: str = "") -> str:
    """An ASCII scatter plot (Figure 5 style)."""
    import math

    if not points:
        return title + "\n(no data)"
    xs = [p[0] for p in points]
    ys = [math.log(max(p[1], 1e-9)) if log_y else p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = int((x - x_lo) / x_span * (width - 1))
        row = int((y - y_lo) / y_span * (height - 1))
        grid[height - 1 - row][col] = "*"
    lines = [title] if title else []
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(" x: %.0f..%.0f syscalls/s   y: %s slowdown %.2f..%.2f x"
                 % (x_lo, x_hi, "log" if log_y else "", min(p[1] for p in points),
                    max(p[1] for p in points)))
    return "\n".join(lines)
