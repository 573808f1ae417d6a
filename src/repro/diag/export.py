"""Structured exporters for :class:`repro.obs.metrics.Metrics`.

Two formats, both streamed from one shared sample iterator so they can
never disagree on what a metric is called:

* ``prom`` — Prometheus text exposition format, for scraping the
  counters of a run (or a bench aggregate) into ordinary dashboards;
* ``jsonl`` — one JSON object per sample, for jq pipelines and
  append-only logs.

Determinism contract: the exporters are pure functions of the Metrics
snapshot — samples are emitted in sorted order with sorted labels, so
two identical runs export byte-identical text.  No timestamps are ever
attached (they would be host noise on a deterministic snapshot).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, Tuple

Sample = Tuple[str, Dict[str, str], Any]

FORMATS = ("prom", "jsonl")

_PREFIX = "repro"


def _samples(metrics) -> Iterator[Sample]:
    """Flatten a Metrics snapshot into (name, labels, value) samples in
    deterministic order."""
    for name, n in sorted(metrics.counters.items()):
        yield _PREFIX + "_counter", {"name": name}, n
    for name, value in sorted(metrics.gauges.items()):
        yield _PREFIX + "_gauge", {"name": name}, value
    for name, hist in sorted(metrics.histograms.items()):
        for bucket, n in sorted(hist.items()):
            yield (_PREFIX + "_histogram_bucket",
                   {"name": name, "le": bucket.lstrip("<=")}, n)
    for phase, seconds in sorted(metrics.profile.items()):
        yield _PREFIX + "_profile_seconds", {"phase": phase}, seconds
    for label, value in sorted(metrics.table2_rows()):
        yield _PREFIX + "_table2", {"row": label}, value
    for name, n in sorted(metrics.syscalls_by_name.items()):
        yield _PREFIX + "_syscalls", {"syscall": name}, n
    for name, n in sorted(metrics.totals.items()):
        yield _PREFIX + "_total", {"name": name}, n
    yield _PREFIX + "_runs", {}, metrics.runs


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(metrics) -> str:
    """Prometheus text exposition of a Metrics snapshot."""
    lines = []
    seen_types = set()
    for name, labels, value in _samples(metrics):
        if name not in seen_types:
            seen_types.add(name)
            kind = "gauge" if name.endswith("_gauge") else "counter"
            lines.append("# TYPE %s %s" % (name, kind))
        if labels:
            rendered = ",".join('%s="%s"' % (key, _escape_label(str(val)))
                                for key, val in sorted(labels.items()))
            lines.append("%s{%s} %s" % (name, rendered,
                                        _format_value(value)))
        else:
            lines.append("%s %s" % (name, _format_value(value)))
    return "\n".join(lines) + "\n"


def metrics_jsonl(metrics) -> str:
    """One canonical JSON object per sample, newline-delimited."""
    lines = []
    for name, labels, value in _samples(metrics):
        record = {"metric": name, "labels": dict(sorted(labels.items())),
                  "value": value}
        lines.append(json.dumps(record, sort_keys=True,
                                separators=(",", ":")))
    return "\n".join(lines) + "\n"


def render_metrics(metrics, fmt: str) -> str:
    """Dispatch on an ``--export-metrics`` format name."""
    if fmt == "prom":
        return prometheus_text(metrics)
    if fmt == "jsonl":
        return metrics_jsonl(metrics)
    raise ValueError("unknown metrics export format: %r (expected one "
                     "of %s)" % (fmt, ", ".join(FORMATS)))
