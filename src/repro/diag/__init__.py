"""Divergence diagnosis for reproducible containers.

The determinism contract says two runs of the same (image, config,
fault plan) are byte-identical on every reproducible surface.  When a
comparison fails — a fuzz-matrix cell, a reprotest double-build, two
trace files from different machines — this package answers *where
first* instead of just *that they differ*:

* :mod:`repro.diag.align` — walk two runs' Chrome traces (which live on
  the shared deterministic virtual-time axis) and report the first
  divergent record with per-side context windows; classify the finding
  (schedule, syscall-result, exit-status, fs-content, stream-content,
  counters).
* :mod:`repro.diag.bisect` — binary-search ``repro.ckpt`` barrier
  snapshots by deterministic state fingerprint to isolate the tick
  window where state first departs, then replay observed for an
  event-level report.
* :mod:`repro.diag.report` — the structured
  :class:`~repro.diag.report.DivergenceReport`, persisted atomically
  like ``crash-report.json``.
* :mod:`repro.diag.export` — Prometheus-text / JSONL exporters for
  ``ContainerResult.metrics``.
* :mod:`repro.diag.harness` — synthetic single-leak workloads with
  known ground truth, for tests and the ``check.sh`` diag gate.

Obs invariant, inherited and preserved: diagnosis only *reads* results,
traces and snapshots — enabling it never perturbs the observed run.
"""

from .align import (
    ACROSS_HOSTS,
    CONTEXT_WINDOW,
    SAME_HOST,
    RunCapture,
    align_records,
    diff_captures,
    diff_trace_files,
    diff_trees,
    load_trace_records,
    record_key,
)
from .bisect import BisectResult, RunSpec, bisect_divergence
from .export import FORMATS, metrics_jsonl, prometheus_text, render_metrics
from .harness import (
    content_leak_pair,
    identical_pair,
    leak_spec,
    leak_writer_image,
    leaky_pair,
)
from .report import (
    CLASSIFICATIONS,
    COUNTERS,
    EXIT_STATUS,
    FS_CONTENT,
    NONE,
    SCHEDULE,
    STREAM_CONTENT,
    SYSCALL_RESULT,
    DivergenceReport,
)

__all__ = [
    "ACROSS_HOSTS",
    "BisectResult",
    "CLASSIFICATIONS",
    "CONTEXT_WINDOW",
    "COUNTERS",
    "DivergenceReport",
    "EXIT_STATUS",
    "FORMATS",
    "FS_CONTENT",
    "NONE",
    "RunCapture",
    "RunSpec",
    "SAME_HOST",
    "SCHEDULE",
    "STREAM_CONTENT",
    "SYSCALL_RESULT",
    "align_records",
    "bisect_divergence",
    "content_leak_pair",
    "diff_captures",
    "diff_trace_files",
    "diff_trees",
    "identical_pair",
    "leak_spec",
    "leak_writer_image",
    "leaky_pair",
    "load_trace_records",
    "metrics_jsonl",
    "prometheus_text",
    "record_key",
    "render_metrics",
]
