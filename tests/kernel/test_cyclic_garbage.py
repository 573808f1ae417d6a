"""A finished run leaves no cyclic garbage.

Once a run's result is built, ``Kernel.teardown`` cuts the reference
cycles of the kernel's object graph (the tracer's and the syscall
table's kernel, replay tests, pending events, the /proc read hooks,
threads and their process, parents and children, step tokens and
queues, unfinished guest frames), and a checkpoint capture walks the
filesystem without a self-referencing closure.  So the whole graph is
freed by reference counting when the caller drops it: each test below
runs one runner with the cyclic collector off and requires that a
full collection then frees nothing.  Every way a run can end is
covered, because each leaves different state behind: events still
queued, a guest frame still suspended, threads still waiting for the
step token, a blocked ``wait4``'s replay test, a sibling thread that an
``execve`` dropped from its process.
"""

from __future__ import annotations

import pytest

from repro import rnr
from repro.core import CheckpointConfig, ContainerConfig, DetTrace
from repro.core.container import CRASHED, DEADLOCK, OK, RESUMED, TIMEOUT
from repro.faults.plan import FaultPlan, FaultRule
from repro.kernel.types import SIGALRM
from tests.conftest import (
    dettrace_run,
    garbage_after,
    image_of,
    native_run,
)
from tests.kernel import test_guest_memory


def _child(sys):
    yield from sys.write_file("child.txt", b"from child\n")
    return 0


def _reader(sys):
    yield from sys.read(0, 1)
    return 0


def _printer(sys):
    yield from sys.println("after exec")
    return 0


CHILD = {"/bin/child": _child, "/bin/reader": _reader,
         "/bin/printer": _printer}


def builds(sys):
    """Files, a /proc read and a child the parent waits for."""
    yield from sys.mkdir_p("out")
    for i in range(12):
        yield from sys.write_file("out/f%d" % i, b"x" * (8 + i))
    yield from sys.read_file("/proc/uptime")
    res = yield from sys.run("/bin/child")
    yield from sys.println("child exit %d" % res.status)
    return 0


def _napping(sys):
    while True:
        yield from sys.sleep(0.001)


def _napping_handler(sys, signum):
    yield from _napping(sys)


def napping_threads(sys):
    """Two serialized threads and a signal handler that never return:
    the run ends with a handler frame on the stack and threads queued
    for the step token."""
    yield from sys.sigaction(SIGALRM, _napping_handler)
    for _ in range(2):
        yield from sys.spawn_thread(_napping)
    pid = yield from sys.getpid()
    yield from sys.kill(pid, SIGALRM)
    yield from _napping(sys)


def execs_beside_a_sleeper(sys):
    """The main thread execs while its sibling sleeps: the exec drops
    the sibling from its process with the sibling's frame suspended."""
    yield from sys.spawn_thread(_napping)
    yield from sys.sleep(0.005)
    yield from sys.execve("/bin/printer", ["printer"])


def panics(sys):
    """Yields what is not an operation: the kernel panics with the
    guest frame suspended."""
    yield from sys.println("about to panic")
    yield "not an operation"


def deadlocks(sys):
    """Waits for a child that reads the pipe its parent holds open: the
    tracer keeps the blocked wait4's replay test."""
    r, _w = yield from sys.pipe()
    yield from sys.run("/bin/reader", stdin=r)


def online_deadlock(sys):
    """Natively, a connection to an outside host gets a fake peer, and
    the run ends holding it."""
    fd = yield from sys.socket()
    yield from sys.connect(fd, "example.com:80")
    r, _w = yield from sys.pipe()
    yield from sys.read(r, 1)


def _dettrace(program, status, config=None):
    def run():
        result = dettrace_run(program, config=config, extra_binaries=CHILD)
        assert result.status == status, result.error

    return run


@pytest.mark.parametrize("program, status, config", [
    (builds, OK, None),
    (test_guest_memory.program, OK, None),
    (panics, CRASHED, None),
    (napping_threads, TIMEOUT, ContainerConfig(timeout=0.02)),
    (deadlocks, DEADLOCK, None),
    (builds, OK, ContainerConfig(observe=True)),
    (execs_beside_a_sleeper, OK, None),
], ids=["ok", "signal-and-threads", "crash", "timeout", "deadlock",
        "observe", "execve-drops-a-sleeper"])
def test_a_dettrace_run_leaves_no_cyclic_garbage(program, status, config):
    assert garbage_after(_dettrace(program, status, config)) == 0


def test_a_killed_run_and_its_resume_leave_no_cyclic_garbage(tmp_path):
    """Full snapshots and a delta chain; the kill leaves events queued."""
    cfg = ContainerConfig(
        fault_plan=FaultPlan(rules=(FaultRule(
            fault="kill", at_tick=30, transient=True),)),
        checkpoint=CheckpointConfig(directory=str(tmp_path), every=5,
                                    full_every=3))
    image = image_of(builds, CHILD)

    def killed():
        assert DetTrace(cfg).run(image, "/bin/main").status == CRASHED

    def resumed():
        result = DetTrace(cfg).resume(image, "/bin/main")
        assert result.status == RESUMED, result.error

    assert garbage_after(killed) == 0
    assert garbage_after(resumed) == 0


@pytest.mark.parametrize("program, status", [
    (builds, OK),
    (online_deadlock, DEADLOCK),
    (execs_beside_a_sleeper, OK),
], ids=["ok", "online-deadlock", "execve-drops-a-sleeper"])
def test_a_native_run_leaves_no_cyclic_garbage(program, status):
    def run():
        result = native_run(program, extra_binaries=CHILD)
        assert result.status == status, result.error

    assert garbage_after(run) == 0


def test_an_rr_record_and_replay_leave_no_cyclic_garbage():
    image = image_of(builds, CHILD)
    recorded = []

    def record():
        result, recording = rnr.record(image, "/bin/main")
        assert result.status == OK, result.error
        recorded.append(recording)

    def replay():
        result = rnr.replay(image, "/bin/main", recorded[0])
        assert result.status == OK, result.error

    assert garbage_after(record) == 0
    assert garbage_after(replay) == 0
