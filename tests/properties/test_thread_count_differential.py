"""Differential check of the O(1) thread-count bookkeeping.

The tracer stop path no longer scans threads: thread serialization asks
``Process.live_thread_count`` whether a process has more than one live
thread, and ``sched/threads_peak`` is only rescanned when the
scheduler's membership could exceed the recorded peak.  Both shortcuts
are checked here against the brute-force answers they replace, on a
16-thread program and on a program that execs while sibling threads are
alive, under the fast scheduler and the reference oracle, and again
across a kill and a checkpoint resume.
"""

from __future__ import annotations

import pytest

from repro.core import ContainerConfig, DetTrace, Image
from repro.core.config import CheckpointConfig
from repro.core.scheduler import LogicalClockRefScheduler, LogicalClockScheduler
from repro.cpu.machine import HostEnvironment
from repro.faults.plan import FaultPlan, FaultRule
from repro.kernel.errors import Errno, SyscallError
from repro.kernel.kernel import Kernel
from tests.properties.test_hotpath_identity import exec_siblings_image


def _worker(rounds):
    def worker(wsys):
        yield from _wait_until(wsys, "go", 1)
        for i in range(rounds):
            yield from wsys.lock_acquire("L")
            wsys.mem["count"] = wsys.mem.get("count", 0) + 1
            yield from wsys.lock_release("L")
            yield from wsys.compute(1e-5 * (1 + rounds % 3))
            if i % 4 == 0:
                yield from wsys.stat("/")
        wsys.mem["done"] = wsys.mem.get("done", 0) + 1
        yield from wsys.futex_wake("done")
        return 0
    return worker


def _wait_until(sys_, key, n):
    """Futex wait until the shared word *key* reaches *n*."""
    while True:
        seen = sys_.mem.get(key, 0)
        if seen >= n:
            return
        try:
            yield from sys_.futex_wait(key, seen)
        except SyscallError as err:
            if err.errno != Errno.EAGAIN:
                raise


def _sixteen_main(sys_):
    """Main plus 15 gated workers that exit at staggered times, then a
    smaller second wave: the peak is reached once and must not move."""
    for k in range(15):
        yield from sys_.spawn_thread(_worker(3 + k))
    sys_.mem["go"] = 1
    yield from sys_.futex_wake("go")
    yield from _wait_until(sys_, "done", 15)
    for _ in range(4):
        yield from sys_.spawn_thread(_worker(2))
    yield from _wait_until(sys_, "done", 19)
    yield from sys_.println("count %d" % sys_.mem["count"])
    return 0


def sixteen_threads_image() -> Image:
    image = Image()
    image.add_binary("/bin/main", _sixteen_main)
    return image


IMAGES = {"sixteen": sixteen_threads_image, "exec-siblings": exec_siblings_image}
SCHEDULERS = ("logical", "logical-ref")


@pytest.fixture
def oracle(monkeypatch):
    """Records the brute-force live count at every completion and every
    disagreement between the O(1) live-thread test and a full scan."""
    seen = {"live": [], "mismatch": [], "checks": 0}

    def check(proc, where):
        # Exact equality: stronger than agreeing on "more than one".
        seen["checks"] += 1
        scan = len(proc.live_threads())
        if proc.live_thread_count != scan:
            seen["mismatch"].append((where, proc.pid,
                                     proc.live_thread_count, scan))

    step_or_wait = Kernel._step_or_wait
    tracer_resume = Kernel.tracer_resume

    def checked_step(self, thread, value, exc):
        check(thread.process, "step")
        return step_or_wait(self, thread, value, exc)

    def checked_resume(self, thread, at, value=None, exc=None):
        check(thread.process, "resume")
        return tracer_resume(self, thread, at, value=value, exc=exc)

    monkeypatch.setattr(Kernel, "_step_or_wait", checked_step)
    monkeypatch.setattr(Kernel, "tracer_resume", checked_resume)
    for cls in (LogicalClockScheduler, LogicalClockRefScheduler):
        def completed(self, thread, _orig=cls.completed):
            _orig(self, thread)
            seen["live"].append(len(self.live()))
        monkeypatch.setattr(cls, "completed", completed)
    return seen


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("image", sorted(IMAGES))
def test_threads_peak_and_live_test_match_brute_force(oracle, image,
                                                      scheduler):
    cfg = ContainerConfig(scheduler=scheduler)
    result = DetTrace(cfg).run(IMAGES[image](), "/bin/main",
                               host=HostEnvironment(entropy_seed=5))
    assert result.succeeded, (result.status, result.error)
    assert oracle["checks"] > 0
    assert oracle["mismatch"] == []
    assert result.metrics.gauges["sched/threads_peak"] == max(oracle["live"])
    if image == "sixteen":
        assert max(oracle["live"]) == 16


def _resume_config(directory, tick, scheduler):
    plan = FaultPlan(rules=(FaultRule(fault="kill", at_tick=tick,
                                      transient=True),))
    return ContainerConfig(
        scheduler=scheduler, fault_plan=plan,
        checkpoint=CheckpointConfig(directory=directory, every=5,
                                    keep=3, full_every=4))


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("image,tick", [("sixteen", 150),
                                        ("sixteen", 400),
                                        ("exec-siblings", 40),
                                        ("exec-siblings", 100)])
def test_live_test_agrees_after_kill_and_resume(oracle, tmp_path, image,
                                                tick, scheduler):
    host = HostEnvironment(entropy_seed=5)
    baseline = DetTrace(ContainerConfig(scheduler=scheduler)).run(
        IMAGES[image](), "/bin/main", host=host)
    assert baseline.succeeded, (baseline.status, baseline.error)
    cfg = _resume_config(str(tmp_path / "journal"), tick, scheduler)
    crashed = DetTrace(cfg).run(IMAGES[image](), "/bin/main",
                                host=HostEnvironment(entropy_seed=5))
    assert crashed.status == "crashed", (crashed.status, crashed.error)
    del oracle["mismatch"][:]
    checks = oracle["checks"]
    resumed = DetTrace(cfg).resume(IMAGES[image](), "/bin/main")
    assert resumed.status == "resumed", (resumed.status, resumed.error)
    assert oracle["checks"] > checks
    assert oracle["mismatch"] == []
    assert resumed.stdout == baseline.stdout
    assert resumed.metrics.gauges == baseline.metrics.gauges
    assert resumed.metrics.to_dict() == baseline.metrics.to_dict()
