"""Quasi-determinism (§3): runs agree bitwise, or at least one fails
*reproducibly* — exercised across the whole fault matrix of
``repro.faults``, the disk-full cap included."""
import pytest

from repro.core import ContainerConfig, DetTrace, Image
from repro.cpu.machine import HostEnvironment
from repro.faults import ALL_FAULT_KINDS, FaultPlan, FaultRule, storm
from repro.diag import ACROSS_HOSTS, SAME_HOST, RunCapture, diff_captures
from repro.faults.verify import boot_host, verify_quasi_determinism
from repro.workloads.debian import PackageSpec, package_image
from repro.workloads.debian.buildtools import TOOLS


def run_with_disk(spec, disk_bytes, seed):
    plan = (None if disk_bytes is None else FaultPlan(rules=(
        FaultRule(fault="disk_full", bytes=disk_bytes),)))
    return DetTrace(ContainerConfig(timeout=5.0, fault_plan=plan)).run(
        package_image(spec), TOOLS["driver"], argv=["dpkg-buildpackage"],
        host=HostEnvironment(entropy_seed=seed))


class TestDiskFull:
    def test_both_runs_fail_identically_under_same_cap(self):
        """The injected failure point is itself deterministic: same cap,
        same failure."""
        spec = PackageSpec(name="dq", n_sources=3)
        a = run_with_disk(spec, 4000, seed=1)
        b = run_with_disk(spec, 4000, seed=2)
        assert a.exit_code == b.exit_code
        assert a.stderr == b.stderr

    def test_quasi_determinism_property(self):
        """For any cap: either both runs produce identical artifacts, or
        at least one failed with the external error."""
        spec = PackageSpec(name="dq2", n_sources=2)
        for cap in (2000, 8000, 50_000, None):
            a = run_with_disk(spec, cap, seed=3)
            b = run_with_disk(spec, cap, seed=4)
            if a.exit_code == 0 and b.exit_code == 0:
                assert a.output_tree == b.output_tree
            else:
                assert a.exit_code != 0 or b.exit_code != 0

    def test_unlimited_disk_succeeds(self):
        spec = PackageSpec(name="dq3", n_sources=2)
        assert run_with_disk(spec, None, seed=5).exit_code == 0


# ---------------------------------------------------------------------------
# The fault matrix: every fault kind, verified as an executable property.
# ---------------------------------------------------------------------------

def _child(sys):
    yield from sys.write_file("child.txt", b"from child\n")
    return 0


def _workload(sys):
    """A guest exercising every fault surface: file IO, directory
    listing, process spawning, device reads, the lot."""
    yield from sys.mkdir_p("out")
    yield from sys.write_file("out/data.bin", b"0123456789" * 20)
    data = yield from sys.read_file("out/data.bin")
    yield from sys.write_file("out/copy.bin", data)
    names = yield from sys.listdir("out")
    yield from sys.println(",".join(sorted(names)))
    res = yield from sys.run("/bin/child")
    yield from sys.println("child exit %d" % res.status)
    noise = yield from sys.urandom(8)
    yield from sys.write_file("out/noise.bin", noise)
    return 0


def workload_image() -> Image:
    image = Image()
    image.add_binary("/bin/main", _workload)
    image.add_binary("/bin/child", _child)
    return image


#: One representative storm per fault kind, each aimed at syscalls the
#: workload actually issues.
MATRIX_PLANS = {
    "enospc": storm("enospc", syscall="write", start=5, count=3),
    "eio": storm("eio", syscall="read", start=3, count=2),
    "eintr": storm("eintr", syscall="write", start=2, count=4),
    "eagain": storm("eagain", syscall="read", start=1, count=2),
    "enfile": storm("enfile", start=0, count=2),
    "emfile": storm("emfile", start=4, count=1),
    "enomem": storm("enomem", count=2),
    "short_read": storm("short_read", keep_bytes=3, count=5),
    "short_write": storm("short_write", keep_bytes=2, count=5),
    "signal": storm("signal", signum=15, start=6, count=2),
    "disk_full": storm("disk_full", bytes=128),
    "kill": storm("kill", at_tick=25),
}


def test_matrix_covers_every_fault_kind():
    assert set(MATRIX_PLANS) == set(ALL_FAULT_KINDS)


@pytest.mark.faults
class TestFaultMatrix:
    @pytest.mark.parametrize("kind", sorted(MATRIX_PLANS))
    def test_replay_identity_and_unfaulted_invariance(self, kind):
        """Same image + same plan => byte-identical outcome (including
        the failure); empty plan => identical to the unfaulted run."""
        report = verify_quasi_determinism(
            workload_image, "/bin/main", plan=MATRIX_PLANS[kind])
        assert report.ok, report.format()

    @pytest.mark.parametrize("kind", sorted(MATRIX_PLANS))
    def test_every_plan_actually_fires(self, kind):
        """The matrix is only meaningful if each storm injects."""
        cfg = ContainerConfig(fault_plan=MATRIX_PLANS[kind])
        r = DetTrace(cfg).run(workload_image(), "/bin/main",
                              host=HostEnvironment(entropy_seed=1))
        assert r.counters.faults_injected > 0 or (
            r.crash_report is not None and r.crash_report.fault_trace)

    def test_inert_plan_is_invariant_with_baseline(self):
        """A plan whose rules never match leaves the run byte-identical
        to the unfaulted baseline (the plane itself perturbs nothing)."""
        inert = FaultPlan(rules=(
            FaultRule(fault="eio", pid=9999),
            FaultRule(fault="signal", syscall="no_such_syscall"),
        ))
        host = HostEnvironment(entropy_seed=3)
        base = DetTrace(ContainerConfig()).run(
            workload_image(), "/bin/main", host=host)
        faulted = DetTrace(ContainerConfig(fault_plan=inert)).run(
            workload_image(), "/bin/main", host=host)
        assert faulted.counters.faults_injected == 0
        report = diff_captures(RunCapture.from_result(base, "no plan"),
                               RunCapture.from_result(faulted, "inert plan"),
                               scope=SAME_HOST)
        assert not report.diverged, report.format()

    def test_combined_storm_still_reproducible(self):
        """All the kinds at once — adversity compounds, determinism holds."""
        plan = FaultPlan(rules=tuple(
            rule for p in MATRIX_PLANS.values() for rule in p))
        report = verify_quasi_determinism(workload_image, "/bin/main",
                                          plan=plan)
        assert report.ok, report.format()


@pytest.mark.faults
class TestSupervisedQuasiDeterminism:
    def test_supervised_transient_storm_is_reproducible(self):
        """The retry loop (attempt coordinates, backoff, attempt log) is
        as reproducible as a single run."""
        plan = storm("eio", syscall="write", start=2, count=50,
                     transient=True)
        report = verify_quasi_determinism(workload_image, "/bin/main",
                                          plan=plan, supervised=True)
        assert report.ok, report.format()

    def test_supervised_persistent_storm_is_reproducible(self):
        plan = storm("enospc", syscall="write", start=0, count=500)
        report = verify_quasi_determinism(workload_image, "/bin/main",
                                          plan=plan, supervised=True)
        assert report.ok, report.format()


# ---------------------------------------------------------------------------
# A failing run fails the same way on every host (§5.9): its error names
# namespace pids and thread ordinals, never the host's ids.
# ---------------------------------------------------------------------------

def _reads_own_empty_pipe(sys):
    rfd, _wfd = yield from sys.pipe()
    yield from sys.read(rfd, 1)
    return 0


def _computes_without_syscalls(sys):
    yield from sys.compute(5.0)
    return 0


def _single_binary_image(program):
    def factory() -> Image:
        image = Image()
        image.add_binary("/bin/main", program)
        return image
    return factory


@pytest.mark.faults
class TestFailuresReproduceAcrossHosts:
    @pytest.mark.parametrize("program,status", [
        (_reads_own_empty_pipe, "deadlock"),
        (_computes_without_syscalls, "unsupported"),
    ], ids=["deadlock", "busy-wait"])
    def test_failure_captures_equal_across_hosts(self, program, status):
        image = _single_binary_image(program)
        results = [DetTrace(ContainerConfig()).run(image(), "/bin/main",
                                                   host=boot_host(boot))
                   for boot in (1, 2)]
        assert [r.status for r in results] == [status, status]
        report = diff_captures(
            RunCapture.from_result(results[0], "boot 1"),
            RunCapture.from_result(results[1], "boot 2"),
            scope=ACROSS_HOSTS)
        assert not report.diverged, report.format()
        report = verify_quasi_determinism(image, "/bin/main")
        assert report.ok, report.format()
