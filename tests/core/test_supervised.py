"""Supervised runs and graceful degradation.

The quasi-determinism contract says a run either reproduces or fails
*reproducibly* — which requires that no failure mode ever unwinds out of
``DetTrace.run``/``run_supervised``/``NativeRunner.run`` as an exception.
These tests cover the classification paths (kernel panic, event-budget
livelock, timeout) and the retry layer's semantics.
"""
import pytest

from repro.core import (
    CRASHED,
    ContainerConfig,
    DetTrace,
    NativeRunner,
    OK,
    RETRIED,
    TIMEOUT,
)
from repro.core.container import _SUCCESS_STATUSES
from repro.cpu.machine import HostEnvironment
from repro.faults import FaultPlan, FaultRule, storm
from repro.obs.events import RECENT_WINDOW

from tests.conftest import dettrace_run, image_of, native_run

pytestmark = pytest.mark.faults


def _bad_guest(sys):
    yield from sys.println("about to go wrong")
    yield "this is not a kernel op"
    return 0


def _ok_guest(sys):
    yield from sys.write_file("out.txt", b"hello\n")
    return 0


def _busy_guest(sys):
    while True:
        yield from sys.write(1, b".")


class TestGracefulDegradation:
    """Satellite bugfix: run() classifies instead of raising."""

    def test_kernel_panic_becomes_crashed_under_dettrace(self):
        r = dettrace_run(_bad_guest)
        assert r.status == CRASHED
        assert "kernel panic" in r.error
        assert r.exit_code is None
        # Partial observable state survives the crash.
        assert "about to go wrong" in r.stdout
        assert r.crash_report is not None
        assert r.crash_report.status == CRASHED

    def test_kernel_panic_becomes_crashed_under_native(self):
        r = native_run(_bad_guest)
        assert r.status == CRASHED
        assert "kernel panic" in r.error
        assert r.exit_code is None

    def test_event_budget_livelock_is_crashed_not_hung(self):
        cfg = ContainerConfig(max_events=20_000, busy_wait_budget=None)
        r = dettrace_run(_busy_guest, config=cfg)
        assert r.status == CRASHED
        assert r.crash_report is not None

    def test_crash_report_carries_bounded_recent_syscalls(self):
        cfg = ContainerConfig(max_events=20_000, busy_wait_budget=None)
        r = dettrace_run(_busy_guest, config=cfg)
        last = r.crash_report.last_syscalls
        assert 0 < len(last) <= RECENT_WINDOW
        # (nspid, per-process index, name) coordinates, newest last.
        assert last[-1][2] == "write"

    def test_timeout_path_keeps_debug_log(self):
        """Satellite bugfix: _finish owns debug_log, so abnormal exits
        keep the kernel's final trace instead of dropping it."""
        cfg = ContainerConfig(timeout=0.01, debug=1)
        r = dettrace_run(_busy_guest, config=cfg)
        assert r.status == TIMEOUT
        assert r.debug_log, "timeout path must keep the debug trace"

    def test_partial_output_tree_survives_a_faulted_abort(self):
        def main(sys):
            yield from sys.write_file("kept.txt", b"landed before the storm\n")
            yield from sys.write_file("lost.txt", b"never lands\n")
            return 0

        # Third write syscall onward fails permanently; guest dies on it.
        plan = storm("eio", syscall="write", start=1, count=100)
        r = dettrace_run(main, config=ContainerConfig(fault_plan=plan))
        assert not r.succeeded
        assert "kept.txt" in r.output_tree
        assert "lost.txt" not in r.output_tree
        assert r.crash_report is not None and r.crash_report.fault_trace


class TestRunSupervised:
    def _supervised(self, program, plan, **cfg_kwargs):
        cfg = ContainerConfig(fault_plan=plan, **cfg_kwargs)
        return DetTrace(cfg).run_supervised(
            image_of(program), "/bin/main",
            host=HostEnvironment(entropy_seed=7))

    def test_clean_run_is_single_attempt_ok(self):
        r = self._supervised(_ok_guest, FaultPlan())
        assert r.status == OK
        assert r.attempts == 1
        assert r.succeeded

    def test_transient_storm_is_retried_to_success(self):
        plan = storm("eio", syscall="write", count=100, transient=True)
        r = self._supervised(_ok_guest, plan)
        assert r.status == RETRIED
        assert r.succeeded
        assert r.attempts == 2
        assert r.output_tree["out.txt"] == b"hello\n"
        log = r.crash_report.attempt_log
        assert [a.attempt for a in log] == [0, 1]
        assert log[0].faults_injected > 0 and log[0].transient
        assert log[1].faults_injected == 0
        # Deterministic virtual backoff charged exactly once.
        assert log[0].backoff == 0.0
        assert log[1].backoff == pytest.approx(0.05)

    def test_retried_counts_as_success_status(self):
        assert RETRIED in _SUCCESS_STATUSES

    def test_multi_attempt_storm_doubles_backoff(self):
        plan = storm("eio", syscall="write", count=100, transient=True,
                     attempts=2)
        r = self._supervised(_ok_guest, plan, max_retries=3)
        assert r.status == RETRIED
        assert r.attempts == 3
        backoffs = [a.backoff for a in r.crash_report.attempt_log]
        assert backoffs == [0.0, pytest.approx(0.05), pytest.approx(0.10)]

    def test_retries_exhausted_keeps_final_failure(self):
        plan = storm("eio", syscall="write", count=100, transient=True,
                     attempts=50)
        r = self._supervised(_ok_guest, plan, max_retries=2)
        assert not r.succeeded
        assert r.status != RETRIED
        assert r.attempts == 3  # initial + max_retries
        assert len(r.crash_report.attempt_log) == 3

    def test_permanent_fault_is_not_retried(self):
        plan = storm("eio", syscall="write", count=100)  # not transient
        r = self._supervised(_ok_guest, plan)
        assert not r.succeeded
        assert r.attempts == 1

    def test_crash_without_transient_faults_is_not_retried(self):
        r = self._supervised(_bad_guest, FaultPlan())
        assert r.status == CRASHED
        assert r.attempts == 1
        assert r.crash_report.attempt_log[0].status == CRASHED

    def test_total_wall_time_includes_backoff_and_all_attempts(self):
        plan = storm("eio", syscall="write", count=100, transient=True)
        r = self._supervised(_ok_guest, plan)
        assert r.wall_time >= 0.05

    def test_supervised_never_raises_on_hostile_plans(self):
        hostile = FaultPlan(rules=(
            FaultRule(fault="enomem", count=64),
            FaultRule(fault="signal", signum=9, start=3, count=5),
            FaultRule(fault="disk_full", bytes=1),
            FaultRule(fault="short_write", keep_bytes=0, count=64),
        ))
        r = self._supervised(_ok_guest, hostile)
        assert r.status is not None
        assert r.crash_report is not None


class TestNativeRunnerClassification:
    def test_native_runner_accepts_fault_plan(self):
        plan = storm("eio", syscall="write", count=100)
        r = NativeRunner(fault_plan=plan).run(
            image_of(_ok_guest), "/bin/main",
            host=HostEnvironment(entropy_seed=7))
        assert not r.succeeded
        assert r.crash_report is not None and r.crash_report.fault_trace

    def test_native_timeout_is_classified(self):
        r = NativeRunner(timeout=0.01).run(
            image_of(_busy_guest), "/bin/main",
            host=HostEnvironment(entropy_seed=7))
        assert r.status == TIMEOUT
        assert r.exit_code is None
