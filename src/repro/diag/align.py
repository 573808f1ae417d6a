"""Trace alignment and first-divergence diffing.

Two runs of the same (image, config, fault plan) must be byte-identical
on every reproducible surface.  When they are not, this module answers
*where first*: both Chrome traces live on the same deterministic
virtual-time axis (det_clock microseconds, container-namespace
pids/tids, per-process syscall indices), so the two record streams can
be walked in canonical order and compared position by position.  The
first mismatching position *is* the first observable divergence, with a
deterministic coordinate attached.

Alignment keys vs. payloads:

* the **coordinate key** of a record is ``(ts, pid, tid, ph, name,
  args.index)`` — if the keys differ the two runs took different
  control-flow paths (classification ``schedule``);
* if the keys agree but the full records differ (duration, category,
  attempt, detail), the same syscall instance produced a different
  outcome (classification ``syscall-result``) — e.g. a write of a
  different length changes the span's io-proportional ``dur``.

Context windows reuse the same :class:`repro.obs.events.EventRing`
bounded ring that backs ``CrashReport.last_syscalls``, so crash
forensics and divergence forensics share one windowing mechanism.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..obs.events import EventRing
from ..repro_tools.hashing import hashdeep, sha256, tree_digest
from .report import (
    COUNTERS,
    EXIT_STATUS,
    FS_CONTENT,
    SCHEDULE,
    STREAM_CONTENT,
    SYSCALL_RESULT,
    DivergenceReport,
)

#: Default number of pre-divergence records kept per side.
CONTEXT_WINDOW = 16

#: The canonical record order — identical to TraceLog.to_chrome's sort.
_SORT_KEY = lambda r: (r["ts"], r["pid"], r["tid"],  # noqa: E731
                       r.get("args", {}).get("index", -1),
                       r.get("args", {}).get("attempt", 0),
                       r["ph"], r.get("cat", ""), r["name"])


def record_key(rec: Dict[str, Any]) -> Tuple:
    """The deterministic coordinate of one Chrome record."""
    return (rec.get("ts"), rec.get("pid"), rec.get("tid"),
            rec.get("ph"), rec.get("name"),
            (rec.get("args") or {}).get("index"))


def load_trace_records(path: str) -> List[Dict[str, Any]]:
    """Load a Chrome trace file (object or bare list) in canonical
    order."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        records = data.get("traceEvents", [])
    else:
        records = data
    # Re-sort defensively: hand-edited or third-party traces may not be
    # in the canonical order TraceLog.write emits.
    return sorted(records, key=_SORT_KEY)


def align_records(records_a: List[Dict[str, Any]],
                  records_b: List[Dict[str, Any]],
                  labels: Tuple[str, str] = ("a", "b"),
                  context: int = CONTEXT_WINDOW,
                  ) -> Optional[DivergenceReport]:
    """Walk two canonical record streams; report the first divergence
    (or None if they are identical)."""
    ring_a: EventRing = EventRing(context)
    ring_b: EventRing = EventRing(context)
    n = min(len(records_a), len(records_b))
    for pos in range(n):
        rec_a, rec_b = records_a[pos], records_b[pos]
        if rec_a == rec_b:
            ring_a.push_entry(rec_a)
            ring_b.push_entry(rec_b)
            continue
        same_instance = record_key(rec_a) == record_key(rec_b)
        classification = SYSCALL_RESULT if same_instance else SCHEDULE
        if same_instance:
            summary = ("syscall instance %s (pid %s, #%s) produced "
                       "different outcomes at the same virtual time"
                       % (rec_a.get("name"), rec_a.get("pid"),
                          (rec_a.get("args") or {}).get("index")))
        else:
            summary = ("runs took different paths: %r vs %r at aligned "
                       "position %d" % (rec_a.get("name"),
                                        rec_b.get("name"), pos))
        return DivergenceReport(
            classification=classification,
            summary=summary,
            labels=labels,
            vts=_record_vts(rec_a, rec_b),
            position=pos,
            divergent={"a": rec_a, "b": rec_b},
            context={"a": ring_a.entries(), "b": ring_b.entries()},
        )
    if len(records_a) != len(records_b):
        longer = labels[0] if len(records_a) > len(records_b) else labels[1]
        extra = (records_a if len(records_a) > len(records_b)
                 else records_b)[n]
        return DivergenceReport(
            classification=SCHEDULE,
            summary=("trace streams agree for %d records, then %s "
                     "continues with %d more (first extra: %s)"
                     % (n, longer, abs(len(records_a) - len(records_b)),
                        extra.get("name"))),
            labels=labels,
            vts=(extra.get("ts", 0) or 0) / 1e6,
            position=n,
            divergent={"a": records_a[n] if len(records_a) > n else None,
                       "b": records_b[n] if len(records_b) > n else None},
            context={"a": ring_a.entries(), "b": ring_b.entries()},
        )
    return None


def _record_vts(rec_a: Dict[str, Any], rec_b: Dict[str, Any]) -> float:
    """Trace ``ts`` is det_clock microseconds; report virtual seconds
    (the earlier of the two sides, so the window is conservative)."""
    ts = min(rec_a.get("ts", 0) or 0, rec_b.get("ts", 0) or 0)
    return ts / 1e6


def diff_trace_files(path_a: str, path_b: str,
                     labels: Tuple[str, str] = ("a", "b"),
                     context: int = CONTEXT_WINDOW) -> DivergenceReport:
    """``repro diff`` backend: align two trace files on disk."""
    report = align_records(load_trace_records(path_a),
                           load_trace_records(path_b),
                           labels=labels, context=context)
    if report is None:
        report = DivergenceReport(
            labels=labels,
            detail="traces aligned record-for-record")
    return report


# -- whole-run capture diffing -----------------------------------------

#: Comparison scopes: the capture fields each one leaves out.  *Same
#: host* compares everything.  *Across hosts* leaves out virtual wall
#: time, the one field that moved with the boot: over fuzz walk seeds
#: 0-699 it differed on 554 of 1,400 runs on two other hosts, and every
#: other field was equal on all of them.
SAME_HOST: FrozenSet[str] = frozenset()
ACROSS_HOSTS: FrozenSet[str] = frozenset({"wall_time"})

#: The fields a failure shows on; a difference here is ``exit-status``.
_FAILURE_FIELDS = ("status", "exit_code", "error", "attempts",
                   "transient_faults", "crash_report")

#: Delta-name prefixes of two metrics sections; the other sections'
#: deltas are named ``<section>/<name>``.
_SECTION_PREFIX = {"counters": "counter/", "totals": "total/"}


@dataclasses.dataclass
class RunCapture:
    """Every deterministic field of one run, reduced to plain data.

    The one surface two runs are compared on: every identity check
    (the fuzz matrix, the fault verifier, ``repro run --repeat``, cache
    ``verify``) captures both runs and calls :func:`diff_captures`.
    The host description, the fs-cache hit counts, the cache
    disposition and the debug log (a config toggle) are left out.
    """

    label: str
    status: str
    exit_code: Any
    stdout: str
    stderr: str
    tree_files: Dict[str, str]
    tree_digest: str
    #: ``Metrics.to_dict()`` less the ``cache/`` counters, which
    #: describe a lookup, not the run.
    metrics: Dict[str, Any] = dataclasses.field(default_factory=dict)
    records: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    error: str = ""
    #: Virtual wall time; None once a scope has left it out.
    wall_time: Optional[float] = 0.0
    attempts: int = 1
    transient_faults: bool = False
    crash_report: Optional[Dict[str, Any]] = None

    @classmethod
    def from_result(cls, result, label: str) -> "RunCapture":
        """Reduce a :class:`~repro.core.container.ContainerResult`.

        Pure observation: reads the result, never mutates it — part of
        the obs invariant that diagnosing a run cannot perturb it.
        """
        metrics: Dict[str, Any] = {}
        if result.metrics is not None:
            metrics = result.metrics.to_dict()
            metrics["counters"] = {
                name: n for name, n in metrics["counters"].items()
                if not name.startswith("cache/")}
        return cls(
            label=label, status=result.status, exit_code=result.exit_code,
            stdout=result.stdout, stderr=result.stderr,
            tree_files=hashdeep(result.output_tree),
            tree_digest=tree_digest(result.output_tree),
            metrics=metrics,
            records=(result.trace.to_chrome()["traceEvents"]
                     if result.trace is not None else []),
            error=result.error, wall_time=result.wall_time,
            attempts=result.attempts,
            transient_faults=result.transient_faults,
            crash_report=(result.crash_report.to_dict()
                          if result.crash_report is not None else None))

    def surface(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "exit_code": self.exit_code,
            "stdout_sha256": sha256(self.stdout.encode()),
            "stderr_sha256": sha256(self.stderr.encode()),
            "tree_digest": self.tree_digest,
            "trace_records": len(self.records),
        }


def diff_captures(cap_a: RunCapture, cap_b: RunCapture,
                  scope: FrozenSet[str] = SAME_HOST,
                  context: int = CONTEXT_WINDOW) -> DivergenceReport:
    """First divergence between two whole-run captures, on the fields
    *scope* keeps.

    Precedence: the trace is the finest-grained surface, so a trace
    finding (with its virtual-time coordinate) wins; then the failure
    fields (exit status), filesystem content, stream content, and
    finally the numbers (metrics, virtual wall time) — each later class
    only reported when every earlier surface agrees.  The trace is
    compared only when both runs recorded one.
    """
    labels = (cap_a.label, cap_b.label)
    surface = {"a": cap_a.surface(), "b": cap_b.surface()}
    cap_a, cap_b = (dataclasses.replace(cap, **dict.fromkeys(scope))
                    for cap in (cap_a, cap_b))
    report: Optional[DivergenceReport] = None
    if cap_a.records and cap_b.records:
        report = align_records(cap_a.records, cap_b.records,
                               labels=labels, context=context)
    failed = [name for name in _FAILURE_FIELDS
              if getattr(cap_a, name) != getattr(cap_b, name)]
    if report is None and failed:
        report = DivergenceReport(
            classification=EXIT_STATUS, labels=labels,
            summary=("exit surfaces differ on %s: %s/%s vs %s/%s"
                     % (", ".join(failed), cap_a.status, cap_a.exit_code,
                        cap_b.status, cap_b.exit_code)))
    if report is None and cap_a.tree_files != cap_b.tree_files:
        first_path = _first_tree_difference(cap_a.tree_files,
                                            cap_b.tree_files)
        report = DivergenceReport(
            classification=FS_CONTENT, labels=labels,
            summary="output trees differ, first at %r" % first_path,
            first_path=first_path)
    if report is None and (cap_a.stdout != cap_b.stdout
                           or cap_a.stderr != cap_b.stderr):
        stream = "stdout" if cap_a.stdout != cap_b.stdout else "stderr"
        report = DivergenceReport(
            classification=STREAM_CONTENT, labels=labels,
            summary="%s contents differ (offset %d)"
            % (stream, _first_str_difference(
                getattr(cap_a, stream), getattr(cap_b, stream))))
    deltas = _counter_deltas(cap_a, cap_b)
    if report is None and deltas:
        first = sorted(deltas)[0]
        report = DivergenceReport(
            classification=COUNTERS, labels=labels,
            summary=("observable surfaces match but %d counter(s) "
                     "differ, e.g. %s: %s != %s"
                     % (len(deltas), first, deltas[first][0],
                        deltas[first][1])))
    if report is None:
        report = DivergenceReport(
            labels=labels,
            detail="status, streams, tree, counters and trace all agree")
    report.counter_deltas = report.counter_deltas or deltas
    report.surface = surface
    return report


def _counter_deltas(cap_a: RunCapture,
                    cap_b: RunCapture) -> Dict[str, List[Any]]:
    """Every differing number: each metrics entry and the virtual wall
    time."""
    deltas: Dict[str, List[Any]] = {}
    numbers_a, numbers_b = (dict(cap.metrics, wall_time=cap.wall_time)
                            for cap in (cap_a, cap_b))
    for section in sorted(set(numbers_a) | set(numbers_b)):
        va, vb = numbers_a.get(section), numbers_b.get(section)
        if not (isinstance(va, dict) and isinstance(vb, dict)):
            if va != vb:
                deltas[section] = [va, vb]
            continue
        prefix = _SECTION_PREFIX.get(section, section + "/")
        for name in sorted(set(va) | set(vb)):
            if va.get(name) != vb.get(name):
                deltas[prefix + name] = [va.get(name), vb.get(name)]
    return deltas


def _first_tree_difference(files_a: Dict[str, str],
                           files_b: Dict[str, str]) -> str:
    for path in sorted(set(files_a) | set(files_b)):
        if files_a.get(path) != files_b.get(path):
            return path
    return ""


def _first_str_difference(text_a: str, text_b: str) -> int:
    limit = min(len(text_a), len(text_b))
    for i in range(limit):
        if text_a[i] != text_b[i]:
            return i
    return limit


def diff_trees(tree_a: Dict[str, bytes], tree_b: Dict[str, bytes],
               labels: Tuple[str, str] = ("a", "b")) -> DivergenceReport:
    """Diff two raw output trees (the reprotest double-build hook)."""
    files_a, files_b = hashdeep(tree_a), hashdeep(tree_b)
    if files_a == files_b:
        return DivergenceReport(labels=labels,
                                detail="output trees are identical")
    first_path = _first_tree_difference(files_a, files_b)
    in_a, in_b = first_path in files_a, first_path in files_b
    if in_a and in_b:
        what = "content differs"
    elif in_a:
        what = "only in %s" % labels[0]
    else:
        what = "only in %s" % labels[1]
    return DivergenceReport(
        classification=FS_CONTENT,
        labels=labels,
        summary="trees differ at %r (%s)" % (first_path, what),
        first_path=first_path,
        surface={"a": {"tree_digest": tree_digest(tree_a),
                       "files": len(files_a)},
                 "b": {"tree_digest": tree_digest(tree_b),
                       "files": len(files_b)}},
    )
