"""No identity check loses a field.

Five checks once reduced a run their own way: the fault verifier's
fingerprint, the fuzz matrix's records, ``repro.diag``'s capture, the
``repro run --repeat`` record and the cache entry's ``verify``
comparison.  Each now compares one :class:`~repro.diag.RunCapture`
with :func:`~repro.diag.diff_captures`.  For every check, each field
it compared before is perturbed alone, on a copy of a real result, and
the check must still report it.
"""
import copy
import dataclasses

import pytest

from repro import cli
from repro.core import CacheConfig, ContainerConfig, DetTrace
from repro.cpu.machine import HostEnvironment
from repro.diag import SAME_HOST, RunCapture, diff_captures
from repro.faults import storm
from repro.faults.report import CrashReport
from repro.faults.verify import verify_quasi_determinism
from repro.fuzz.grammar import ProgramSpec
from repro.fuzz.runner import MATRIX, _check_ckpt_resume, check_program, run_cell
from repro.tracer.events import TraceCounters
from tests.integration.test_quasi_determinism import workload_image


def _bump_entry(section: str, name: str = ""):
    """Bump metrics entry *name* of *section* (its first by default)."""
    def bump(result):
        entries = getattr(result.metrics, section)
        key = name or sorted(entries)[0]
        value = entries[key]
        entries[key] = ({**value, "<=1": value.get("<=1", 0) + 1}
                        if isinstance(value, dict) else value + 1)
    return bump


def _perturb_crash_report(result):
    if result.crash_report is None:
        result.crash_report = CrashReport(status=result.status, error="")
    else:
        result.crash_report.error += " (perturbed)"


def _perturb_trace(result):
    span = result.trace.spans[0]
    result.trace.spans[0] = dataclasses.replace(span, dur=span.dur + 1e-6)


#: One perturbation per field a check may compare, applied in place to
#: a copy of a real result.  The Table 2 view (``counters``), the
#: syscall count and Table 2's rows are views of the metrics, so each
#: is perturbed on an entry it reads: the view's memory writes, the
#: syscall total and Table 2's first row, its system call events.
PERTURB = {
    "status": lambda r: setattr(r, "status", "deadlock"),
    "exit_code": lambda r: setattr(r, "exit_code", (r.exit_code or 0) + 1),
    "error": lambda r: setattr(r, "error", r.error + "perturbed"),
    "stdout": lambda r: setattr(r, "stdout", r.stdout + "perturbed\n"),
    "stderr": lambda r: setattr(r, "stderr", r.stderr + "perturbed\n"),
    "output_tree": lambda r: r.output_tree.update(perturbed=b"x"),
    "counters": _bump_entry("counters", "tracer/memory_writes"),
    "syscall_count": _bump_entry("totals", "syscalls"),
    "wall_time": lambda r: setattr(r, "wall_time", r.wall_time + 1e-6),
    "attempts": lambda r: setattr(r, "attempts", r.attempts + 1),
    "transient_faults": lambda r: setattr(r, "transient_faults",
                                          not r.transient_faults),
    "crash_report": _perturb_crash_report,
    "metrics.counters": _bump_entry("counters"),
    "metrics.totals": _bump_entry("totals"),
    "metrics.table2": _bump_entry("counters", "tracer/syscall_events"),
    "metrics.syscalls_by_name": _bump_entry("syscalls_by_name"),
    "metrics.gauges": _bump_entry("gauges"),
    "metrics.histograms": _bump_entry("histograms"),
    "metrics.profile": _bump_entry("profile"),
    "trace": _perturb_trace,
}

#: What each check compared at the parent of this change, by
#: ContainerResult field.
FAULTS_FIELDS = ("status", "exit_code", "error", "stdout", "stderr",
                 "output_tree", "counters", "syscall_count", "attempts",
                 "transient_faults", "crash_report")
FUZZ_CELL_FIELDS = ("status", "exit_code", "stdout", "stderr", "output_tree",
                    "wall_time", "syscall_count", "metrics.counters",
                    "metrics.totals", "trace")
FUZZ_HOST_FIELDS = ("status", "exit_code", "stdout", "stderr", "output_tree")
FUZZ_CKPT_FIELDS = tuple(f for f in FUZZ_CELL_FIELDS
                         if f not in ("status", "trace"))
DIAG_FIELDS = ("status", "exit_code", "stdout", "stderr", "output_tree",
               "metrics.counters", "metrics.totals", "trace")
REPEAT_FIELDS = ("status", "exit_code", "stdout", "stderr", "output_tree",
                 "wall_time", "syscall_count")
CACHE_VERIFY_FIELDS = ("status", "exit_code", "output_tree", "stdout",
                       "stderr")

#: A plan the workload survives with faults injected, so the failure
#: fields (crash report, transient faults) are populated.
PLAN = storm("eio", syscall="read", start=3, count=2, transient=True)


def _observed_result():
    return DetTrace(ContainerConfig(observe=True, fault_plan=PLAN)).run(
        workload_image(), "/bin/main", host=HostEnvironment(entropy_seed=1))


def _perturbing_run(monkeypatch, field, when):
    """Patch ``DetTrace.run`` to perturb *field* of each result whose
    (container, host) satisfies *when*."""
    run = DetTrace.run

    def perturbing(self, image, command, argv=None, host=None, _attempt=0):
        result = run(self, image, command, argv=argv, host=host,
                     _attempt=_attempt)
        if when(self, host):
            PERTURB[field](result)
        return result

    monkeypatch.setattr(DetTrace, "run", perturbing)


# -- the fault verifier ------------------------------------------------


def _second_plain_boot_1():
    seen = []

    def when(container, host):
        plan = container.config.fault_plan
        seen.append(host.entropy_seed == 1 and plan is not None
                    and len(plan) > 0)
        return seen[-1] and seen.count(True) == 2
    return when


FAULT_CHECKS = {
    "replay-identity": lambda: lambda c, host: host.entropy_seed == 2,
    "rerun-identity": _second_plain_boot_1,
    "empty-plan invariance": lambda: (
        lambda c, host: c.config.fault_plan is None),
}


@pytest.mark.parametrize("field", FAULTS_FIELDS)
@pytest.mark.parametrize("check", sorted(FAULT_CHECKS))
def test_fault_verifier_reports(monkeypatch, check, field):
    _perturbing_run(monkeypatch, field, FAULT_CHECKS[check]())
    report = verify_quasi_determinism(workload_image, "/bin/main", plan=PLAN)
    failed = [c.name for c in report.checks if not c.ok]
    assert len(failed) == 1 and failed[0].startswith(check), report.format()


# -- the fuzz matrix ---------------------------------------------------

SPEC = ProgramSpec(seed=0, ops=(
    {"op": "mkdir", "path": "d0"},
    {"op": "write", "path": "d0/f0", "data": "abc"},
    {"op": "time"}, {"op": "random", "count": 4},
    {"op": "listdir", "path": "d0"}, {"op": "audit"}))


@pytest.mark.parametrize(
    "field", FUZZ_CELL_FIELDS + ("metrics.table2", "metrics.syscalls_by_name",
                                 "metrics.gauges", "metrics.histograms",
                                 "metrics.profile", "error", "crash_report"))
def test_fuzz_cell_axis_reports(monkeypatch, field):
    """The ``sched-ref`` cell is perturbed against the base cell, and
    ``ref-nocache-obs``'s trace against ``observe``'s."""
    _perturbing_run(monkeypatch, field, lambda c, host: (
        c.config.scheduler == "logical-ref"
        and c.config.observe == (field == "trace")))
    report = check_program(SPEC, workers=1, rnr=False, ckpt=False)
    expected = ("observe!=ref-nocache-obs" if field == "trace"
                else "base!=sched-ref")
    assert any(f.startswith(expected) for f in report.failures), \
        report.failures


@pytest.mark.parametrize("field", FUZZ_HOST_FIELDS + ("syscall_count",
                                                      "metrics.counters"))
def test_fuzz_host_axis_reports(monkeypatch, field):
    _perturbing_run(monkeypatch, field,
                    lambda c, host: host.pid_start != 1000)
    report = check_program(SPEC, workers=1, rnr=False, ckpt=False)
    assert [f.split(" ")[0] for f in report.failures] \
        == ["base!=base@host1", "base!=base@host2"], report.failures


@pytest.mark.parametrize("field", FUZZ_CKPT_FIELDS + ("error",))
def test_fuzz_ckpt_axis_reports(monkeypatch, field):
    base = run_cell(SPEC.to_dict(), MATRIX[0].to_dict())
    resume = DetTrace.resume

    def perturbing(self, *args, **kwargs):
        result = resume(self, *args, **kwargs)
        PERTURB[field](result)
        return result

    monkeypatch.setattr(DetTrace, "resume", perturbing)
    failures = _check_ckpt_resume(SPEC, MATRIX[0], base)
    assert len(failures) == 1 and failures[0].startswith(
        "ckpt: base!=ckpt-resume"), failures


def test_fuzz_ckpt_axis_clean_without_perturbation():
    base = run_cell(SPEC.to_dict(), MATRIX[0].to_dict())
    assert _check_ckpt_resume(SPEC, MATRIX[0], base) == []


# -- repro.diag --------------------------------------------------------


@pytest.mark.parametrize("field", DIAG_FIELDS)
def test_diag_capture_reports(field):
    real = _observed_result()
    perturbed = copy.deepcopy(real)
    PERTURB[field](perturbed)
    report = diff_captures(RunCapture.from_result(real, "a"),
                           RunCapture.from_result(perturbed, "b"))
    assert report.diverged, field


# -- repro run --repeat ------------------------------------------------


@pytest.mark.parametrize("field", REPEAT_FIELDS)
def test_repeat_reports(monkeypatch, capsys, field):
    run_container = cli._run_container
    results = []

    def perturbing(*args):
        results.append(run_container(*args))
        if len(results) == 2:
            PERTURB[field](results[-1])
        return results[-1]

    monkeypatch.setattr(cli, "_run_container", perturbing)
    assert cli.main(["run", "--jobs", "1", "--repeat", "2", "--",
                     "date"]) == 70
    assert "DIVERGENCE [" in capsys.readouterr().err


# -- cache verify ------------------------------------------------------


@pytest.mark.parametrize("field", CACHE_VERIFY_FIELDS)
def test_cache_verify_reports(tmp_path, field):
    from repro.cache import RunCache

    cfg = ContainerConfig(cache=CacheConfig(directory=str(tmp_path)))
    host = HostEnvironment(entropy_seed=1)
    assert DetTrace(cfg).run(workload_image(), "/bin/main",
                             host=host).cache["outcome"] == "store"
    cache = RunCache(str(tmp_path))
    key = cache.key_for(workload_image(), cfg, "/bin/main", None, host)
    entry = cache.lookup(key)
    PERTURB[field](entry)
    cache.store.put(key, entry)
    verify = dataclasses.replace(
        cfg, cache=CacheConfig(directory=str(tmp_path), mode="verify"))
    result = DetTrace(verify).run(workload_image(), "/bin/main", host=host)
    assert result.cache["outcome"] == "verify_mismatch"
    assert result.cache["report"].diverged


# -- the one comparison ------------------------------------------------

#: The class each perturbed field reports as.
CLASSIFICATION = {
    "status": "exit-status", "exit_code": "exit-status",
    "error": "exit-status", "attempts": "exit-status",
    "transient_faults": "exit-status", "crash_report": "exit-status",
    "output_tree": "fs-content", "stdout": "stream-content",
    "stderr": "stream-content", "trace": "syscall-result",
}


@pytest.mark.parametrize("field", sorted(PERTURB))
def test_every_field_is_captured_and_classified(field):
    real = _observed_result()
    perturbed = copy.deepcopy(real)
    PERTURB[field](perturbed)
    report = diff_captures(RunCapture.from_result(real, "a"),
                           RunCapture.from_result(perturbed, "b"))
    assert report.classification == CLASSIFICATION.get(field, "counters")
    if report.classification == "counters":
        assert report.counter_deltas


def test_counter_delta_names_keep_their_spelling():
    real = _observed_result()
    perturbed = copy.deepcopy(real)
    for field in ("metrics.counters", "metrics.totals"):
        PERTURB[field](perturbed)
    report = diff_captures(RunCapture.from_result(real, "a"),
                           RunCapture.from_result(perturbed, "b"))
    counter = "counter/" + sorted(real.metrics.counters)[0]
    total = "total/" + sorted(real.metrics.totals)[0]
    assert sorted(report.counter_deltas) == sorted([counter, total])


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(RunCapture)
             if f.name not in ("label", "tree_digest")])
def test_diff_captures_compares_every_capture_field(name):
    """``tree_digest`` is derived from ``tree_files``; the label names
    a side."""
    capture = RunCapture.from_result(_observed_result(), "a")
    value = getattr(capture, name)
    if isinstance(value, list):
        other = value[:-1]
    elif isinstance(value, dict):
        other = dict(value, perturbed=1)
    elif isinstance(value, bool):
        other = not value
    elif isinstance(value, (int, float)):
        other = value + 1
    elif isinstance(value, str):
        other = value + "x"
    else:
        other = {"perturbed": 1}
    assert diff_captures(capture, dataclasses.replace(
        capture, **{name: other})).diverged, name


def test_every_trace_counter_is_read_from_the_metrics():
    """The Table 2 view is read off ``Metrics.counters``, field by
    field, with no exceptions: each field moves when, and only when,
    its own counter entries move."""
    result = _observed_result()
    counters = result.metrics.counters
    view = dataclasses.asdict(result.counters)
    assert view["faults_injected"] > 0
    assert view["memory_writes"] > 0
    sources = {"rdtsc_intercepted": ("trap/rdtsc", "trap/rdtscp"),
               "cpuid_intercepted": ("trap/cpuid",),
               "sched_requests": ("sched/context_switch",),
               "process_spawns": ("process/spawn",),
               "faults_injected": tuple(name for name in counters
                                        if name.startswith("fault/"))}
    for field in view:
        names = sources.get(field, ("tracer/" + field,))
        assert view[field] == sum(counters.get(n, 0) for n in names), field
        perturbed = copy.deepcopy(result)
        name = names[0]
        perturbed.metrics.counters[name] = counters.get(name, 0) + 1
        moved = dataclasses.asdict(perturbed.counters)
        assert moved == dict(view, **{field: view[field] + 1}), field
    assert set(view) == {f.name for f in dataclasses.fields(TraceCounters)}


def test_same_host_compares_everything_across_hosts_all_but_wall_time():
    from repro.diag import ACROSS_HOSTS

    assert SAME_HOST == frozenset()
    assert ACROSS_HOSTS == frozenset({"wall_time"})
