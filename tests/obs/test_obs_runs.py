"""Integration tests: the observability plane on real container runs.

The tentpole invariant lives here: enabling/disabling observability
never changes output hashes, exit statuses, or virtual-time schedules,
and two observed runs of the same (image, fault plan) produce
byte-identical trace JSON — even across simulated machine boots.
"""

import pytest

from repro.core import ContainerConfig, DetTrace
from repro.cpu.machine import BROADWELL_XEON, HostEnvironment
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs.metrics import Metrics
from repro.obs.trace import TraceLog
from repro.repro_tools.hashing import tree_digest
from tests.conftest import dettrace_run, image_of

pytestmark = pytest.mark.obs


def _guest(sys):
    t = yield from sys.time()
    yield from sys.write_file("out.txt", "t=%d\n" % t)
    yield from sys.println("hello")
    names = yield from sys.listdir(".")
    yield from sys.write_file("names", ",".join(names))
    return 0


def _forking_guest(sys):
    res = yield from sys.run("/bin/kid")
    yield from sys.println("kid=%s" % res.exit_code)
    yield from sys.write_file("done", b"x")
    return 0


def _kid(sys):
    yield from sys.compute(2e-4)
    yield from sys.println("kid out")
    return 0


HOSTS = [
    HostEnvironment(entropy_seed=1, boot_epoch=1.6e9, pid_start=1000,
                    inode_start=100_000, dirent_hash_salt=5),
    HostEnvironment(machine=BROADWELL_XEON, entropy_seed=999,
                    boot_epoch=1.9e9, pid_start=43_210,
                    inode_start=900_000, dirent_hash_salt=77),
]


class TestMetricsSurface:
    def test_metrics_always_collected_even_with_observe_off(self):
        r = dettrace_run(_guest, config=ContainerConfig(observe=False))
        assert r.exit_code == 0
        assert isinstance(r.metrics, Metrics)
        assert r.metrics.totals["syscalls"] > 0
        assert dict(r.metrics.table2_rows())["System call events"] > 0
        assert any(k.startswith("syscall/") for k in r.metrics.counters)

    def test_trace_only_with_observe_on(self):
        off = dettrace_run(_guest, config=ContainerConfig(observe=False))
        on = dettrace_run(_guest, config=ContainerConfig(observe=True))
        assert off.trace is None
        assert isinstance(on.trace, TraceLog)
        assert len(on.trace) > 0

    def test_dispositions_partition_the_traced_syscalls(self):
        r = dettrace_run(_guest)
        m = r.metrics
        by_disp = {}
        for key, n in m.counters.items():
            parts = key.split("/")
            if parts[0] == "syscall" and len(parts) == 3:
                by_disp[parts[2]] = by_disp.get(parts[2], 0) + n
        # Every dispatched syscall lands in exactly one disposition.
        assert sum(by_disp.values()) == m.totals["syscalls"]
        assert set(by_disp) <= {"passthrough", "rewritten", "injected",
                                "skipped", "native"}

    def test_profile_phases_attributed(self):
        r = dettrace_run(_guest)
        profile = r.metrics.profile
        assert profile["handler"] > 0
        assert profile["scheduler"] > 0
        assert profile["interception"] >= 0
        assert profile["fs"] > 0  # write_file charges IO bandwidth

    def test_spawn_exit_counters(self):
        r = dettrace_run(_forking_guest, extra_binaries={"/bin/kid": _kid})
        assert r.metrics.counters["process/spawn"] == 2
        assert r.metrics.counters["process/exit"] == 2


class TestObserverEffect:
    """Flipping observe must not perturb the run at all."""

    def test_observe_flag_does_not_change_outputs(self):
        for host in HOSTS:
            off = dettrace_run(_guest, host=host,
                               config=ContainerConfig(observe=False))
            on = dettrace_run(_guest, host=host,
                              config=ContainerConfig(observe=True))
            assert off.exit_code == on.exit_code == 0
            assert off.status == on.status
            assert off.stdout == on.stdout
            assert tree_digest(off.output_tree) == tree_digest(on.output_tree)

    def test_observe_flag_does_not_change_virtual_schedule(self):
        """Same deterministic metrics => same virtual-time schedule."""
        off = dettrace_run(_forking_guest, host=HOSTS[0],
                           config=ContainerConfig(observe=False),
                           extra_binaries={"/bin/kid": _kid})
        on = dettrace_run(_forking_guest, host=HOSTS[0],
                          config=ContainerConfig(observe=True),
                          extra_binaries={"/bin/kid": _kid})
        assert off.metrics.to_dict() == on.metrics.to_dict()

    def test_debug_log_unchanged_by_observe(self):
        off = dettrace_run(_guest, config=ContainerConfig(debug=1))
        on = dettrace_run(_guest, config=ContainerConfig(debug=1, observe=True))
        assert off.debug_log == on.debug_log
        assert off.debug_log  # non-empty: the view still renders


class TestTraceIdentity:
    def _trace_json(self, host, program=_guest, binaries=None, plan=None):
        cfg = ContainerConfig(observe=True, fault_plan=plan)
        r = dettrace_run(program, host=host, config=cfg,
                         extra_binaries=binaries)
        assert r.trace is not None
        return r.trace.to_json()

    def test_two_runs_same_host_byte_identical(self):
        assert self._trace_json(HOSTS[0]) == self._trace_json(HOSTS[0])

    def test_trace_identical_across_machine_boots(self):
        """The strong claim: host pids, inode seeds, boot epochs and even
        the machine model leave no residue in the trace."""
        assert self._trace_json(HOSTS[0]) == self._trace_json(HOSTS[1])

    def test_trace_identical_across_boots_with_processes(self):
        a = self._trace_json(HOSTS[0], _forking_guest, {"/bin/kid": _kid})
        b = self._trace_json(HOSTS[1], _forking_guest, {"/bin/kid": _kid})
        assert a == b

    def test_trace_identical_with_fault_plan(self):
        plan = FaultPlan(rules=(
            FaultRule(fault="eio", syscall=("write",), start=1, count=1),))
        a = self._trace_json(HOSTS[0], plan=plan)
        b = self._trace_json(HOSTS[1], plan=plan)
        assert a == b

    def test_fault_plan_leaves_trace_marks(self):
        plan = FaultPlan(rules=(
            FaultRule(fault="eio", syscall=("write",), start=0, count=1),))
        cfg = ContainerConfig(observe=True, fault_plan=plan)
        r = dettrace_run(_guest, host=HOSTS[0], config=cfg)
        assert r.metrics.counters.get("fault/eio", 0) >= 1
        text = r.trace.to_json()
        assert '"fault:eio"' in text
        assert '"injected"' in text


class TestCrashPaths:
    """Satellite: every exit path flows through the collector."""

    def _busy(self, sys):
        while True:
            yield from sys.compute(1e-3)

    def test_timeout_run_still_carries_metrics(self):
        cfg = ContainerConfig(timeout=0.01, busy_wait_budget=None,
                              observe=True)
        r = dettrace_run(self._busy, config=cfg)
        assert r.status != "ok"
        assert r.metrics is not None
        assert r.metrics.totals["syscalls"] >= 0
        assert r.trace is not None

    def test_crash_report_agrees_with_structured_events(self):
        """CrashReport.last_syscalls is the same ObsEvent schema the
        trace uses: dict exports carry the full coordinates."""
        cfg = ContainerConfig(timeout=0.05, busy_wait_budget=None)
        r = dettrace_run(self._busy, config=cfg)
        report = r.crash_report
        assert report is not None
        exported = report.to_dict()["last_syscalls"]
        for entry in exported:
            assert set(entry) == {"vts", "pid", "index", "kind",
                                  "name", "detail"}
            assert entry["kind"] == "syscall"
            assert entry["vts"] >= 0.0
