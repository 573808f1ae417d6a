"""The per-run metrics snapshot surfaced on ``ContainerResult.metrics``.

A :class:`Metrics` object is plain data assembled at the end of a run
(on *every* exit path, including crashes — see
``repro.core.container._finish``) from the run's
:class:`~repro.obs.collector.Collector`, the one store of its counters.
It deliberately excludes every jitter-bearing quantity (simulated wall
time, host clocks): two runs of the same image and plan produce equal
metrics.

``add`` accumulates snapshots, which is how the Table-2 benchmark
aggregates per-package counts without recomputing them; Table 2 itself
is a view of the (summed) counters (:meth:`Metrics.table2_rows`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

from .profiler import PhaseProfile

#: Bucket exponent -> human label ("<=2^k").
def _bucket_label(exp: int) -> str:
    return "<=%d" % (1 << exp)


@dataclasses.dataclass
class Metrics:
    """Deterministic per-run (or aggregated) observability snapshot."""

    #: Every collector counter outside the ``kernel`` namespace,
    #: flattened: "syscall/read/passthrough" -> n, "tracer/memory_writes"
    #: -> n.
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Peak gauges, e.g. scheduler queue occupancy.
    gauges: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: name -> {"<=2^k" bucket -> count}.
    histograms: Dict[str, Dict[str, int]] = dataclasses.field(default_factory=dict)
    #: Virtual-time phase attribution (interception/handler/scheduler/fs).
    profile: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Kernel-side dispatch counts by syscall name.
    syscalls_by_name: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Run totals: syscalls, events_processed, processes/threads spawned.
    totals: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: How many runs were accumulated into this snapshot.
    runs: int = 1

    @classmethod
    def from_run(cls, collector) -> "Metrics":
        """Snapshot one run from its Collector.

        The ``kernel`` key namespace renders as ``syscalls_by_name`` and
        ``totals``; every other key is a flattened counter.
        """
        # Deferred: the layers whose keys this renders import repro.obs.
        from ..kernel.kernel import (EVENTS_PROCESSED, SYSCALL_PREFIX,
                                     THREADS_SPAWNED, VDSO_CALLS)

        items = sorted(collector.counters.items())
        counters = {"/".join(key): n for key, n in items
                    if key[0] != "kernel"}
        by_name = {key[2]: n for key, n in items if key[:2] == SYSCALL_PREFIX}
        histograms = {
            name: {_bucket_label(exp): n for exp, n in sorted(hist.items())}
            for name, hist in sorted(collector.histograms.items())}
        get = collector.counters.get
        totals = {
            "syscalls": sum(by_name.values()),
            "events_processed": get(EVENTS_PROCESSED, 0),
            "processes_spawned": get(("process", "spawn"), 0),
            "threads_spawned": get(THREADS_SPAWNED, 0),
            "vdso_calls": get(VDSO_CALLS, 0),
        }
        return cls(counters=counters, gauges=dict(sorted(collector.gauges.items())),
                   histograms=histograms, profile=collector.profile.as_dict(),
                   syscalls_by_name=by_name, totals=totals)

    # -- accumulation (bench aggregation) ------------------------------

    def add(self, other: "Metrics") -> None:
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, value in other.gauges.items():
            self.gauges[name] = max(self.gauges.get(name, float("-inf")), value)
        for name, hist in other.histograms.items():
            mine = self.histograms.setdefault(name, {})
            for bucket, n in hist.items():
                mine[bucket] = mine.get(bucket, 0) + n
        for phase, seconds in other.profile.items():
            self.profile[phase] = self.profile.get(phase, 0.0) + seconds
        for name, n in other.syscalls_by_name.items():
            self.syscalls_by_name[name] = self.syscalls_by_name.get(name, 0) + n
        for name, n in other.totals.items():
            self.totals[name] = self.totals.get(name, 0) + n
        self.runs += other.runs

    def table2_rows(self) -> List[Tuple[str, int]]:
        """The paper's Table 2 rows, read off the counters; none when no
        tracer ran."""
        from ..tracer.events import TraceCounters

        view = TraceCounters.of(self.counters)
        return view.as_table2_rows() if view is not None else []

    def table2_averages(self) -> Dict[str, float]:
        """Per-run averages of the Table 2 rows."""
        return {label: value / max(1, self.runs)
                for label, value in self.table2_rows()}

    def phase_profile(self) -> PhaseProfile:
        profile = PhaseProfile()
        for phase, seconds in self.profile.items():
            profile.charge(phase, seconds)
        return profile

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {k: dict(sorted(v.items()))
                           for k, v in sorted(self.histograms.items())},
            "profile": dict(sorted(self.profile.items())),
            "syscalls_by_name": dict(sorted(self.syscalls_by_name.items())),
            "totals": dict(sorted(self.totals.items())),
            "runs": self.runs,
        }
