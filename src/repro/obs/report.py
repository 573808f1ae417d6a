"""Render Table-2-style summaries from :class:`~repro.obs.metrics.Metrics`.

The paper's Table 2 counts determinization events per benchmark; this
module renders the same shape for any run (or aggregate of runs) from
the observability plane's counters — the CLI's ``repro obs`` /
``--metrics`` output.
"""

from __future__ import annotations

from typing import List

from .metrics import Metrics
from .profiler import PHASES


def _table(headers: List[str], rows: List[List[str]], title: str = "") -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_table2_summary(metrics: Metrics) -> str:
    """The determinization-event summary (Table 2's rows, our counts)."""
    scale = max(1, metrics.runs)
    rows = [[label, "%.2f" % (value / scale)]
            for label, value in metrics.table2_rows()]
    header = "avg/run" if metrics.runs > 1 else "count"
    return _table(["determinization event", header], rows,
                  title="Determinization events (Table 2 rows, %d run%s)"
                        % (metrics.runs, "s" if metrics.runs > 1 else ""))


def format_dispositions(metrics: Metrics, limit: int = 12) -> str:
    """Syscalls by disposition (passthrough/rewritten/injected/skipped)."""
    per_disposition = {}
    per_syscall = []
    for key, n in metrics.counters.items():
        parts = key.split("/")
        if parts[0] != "syscall" or len(parts) != 3:
            continue
        _, name, disposition = parts
        per_disposition[disposition] = per_disposition.get(disposition, 0) + n
        per_syscall.append((n, name, disposition))
    rows = [[d, str(per_disposition[d])] for d in sorted(per_disposition)]
    out = _table(["disposition", "syscalls"], rows,
                 title="Syscall dispositions")
    per_syscall.sort(key=lambda t: (-t[0], t[1], t[2]))
    top = [["%s (%s)" % (name, disposition), str(n)]
           for n, name, disposition in per_syscall[:limit]]
    if top:
        out += "\n" + _table(["top syscalls", "count"], top)
    return out


def format_profile(metrics: Metrics) -> str:
    """The Figure-5-style virtual-time overhead attribution."""
    profile = metrics.phase_profile()
    rows = []
    for phase, seconds, frac in profile.breakdown():
        rows.append([phase, "%.3f ms" % (seconds * 1e3), "%5.1f%%" % (frac * 100)])
    return _table(["phase", "virtual cost", "share"], rows,
                  title="Virtual-time overhead attribution")


def format_metrics(metrics: Metrics) -> str:
    """The full ``--metrics`` report."""
    sections = [format_table2_summary(metrics), format_dispositions(metrics)]
    faults = [(k, n) for k, n in sorted(metrics.counters.items())
              if k.startswith("fault/")]
    if faults:
        sections.append(_table(
            ["fault kind", "injections"],
            [[k.split("/", 1)[1], str(n)] for k, n in faults],
            title="Fault injections"))
    if any(metrics.profile.get(phase) for phase in PHASES):
        sections.append(format_profile(metrics))
    if metrics.gauges:
        sections.append(_table(
            ["gauge", "peak"],
            [[name, "%g" % value] for name, value in sorted(metrics.gauges.items())],
            title="Peak gauges"))
    return "\n\n".join(sections)
