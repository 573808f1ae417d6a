"""No guest step starts while a host exception is in flight.

Ending a thread can step a queued sibling: under thread serialization
(§5.7) the exiting thread hands the step token to the front of its
process's queue, and that sibling takes its step right away.  The kernel
ends a thread only after the ``except`` clause that saw the exit has
closed (the guest's ``StopIteration``, a crash, an uncaught error, an
``exit``/``exit_thread`` syscall, SIGPIPE's default action), so the
sibling's step never runs inside the clause: an exception its guest code
raises gets no host ``__context__``, and no host traceback is kept alive
behind it.
"""

from __future__ import annotations

import dataclasses
from sys import exc_info

import pytest

from repro.kernel.kernel import Kernel
from repro.kernel.types import SIGPIPE
from repro.workloads.ml.tensorflow import ALEXNET, run_dettrace
from tests.conftest import dettrace_run


@pytest.fixture
def in_flight(monkeypatch):
    """The exception in flight at each entry of ``Kernel._step``."""
    seen = []
    step = Kernel._step

    def recording_step(self, thread, value, exc):
        seen.append(exc_info()[0])
        return step(self, thread, value, exc)

    monkeypatch.setattr(Kernel, "_step", recording_step)
    return seen


def _exiting_worker(sys):
    yield from sys.sleep(0.001)   # a serviced call: the token rotates
    sys.mem["done"] += 1
    yield from sys.exit_thread()


def exit_thread_program(sys):
    """Workers call exit_thread while their siblings are queued."""
    sys.mem["done"] = 0
    for _ in range(4):
        yield from sys.spawn_thread(_exiting_worker)
    while sys.mem["done"] < 4:
        yield from sys.sleep(0.001)
    yield from sys.println("joined")
    return 0


def _sleeper(sys):
    while True:
        yield from sys.sleep(0.001)


def broken_pipe_program(sys):
    """SIGPIPE's default action ends a process whose siblings are
    queued."""
    r, w = yield from sys.pipe()
    yield from sys.close(r)
    for _ in range(2):
        yield from sys.spawn_thread(_sleeper)
    yield from sys.sleep(0.001)
    yield from sys.write(w, b"x")
    return 0


def test_alexnet_steps_start_with_no_exception_in_flight(in_flight):
    """Worker threads return (StopIteration) while siblings hold places
    in the step queue."""
    result = run_dettrace(dataclasses.replace(ALEXNET, steps=1))
    assert result.exit_code == 0, result.error
    assert len(in_flight) > 100
    assert [e for e in in_flight if e is not None] == []


def test_exit_thread_steps_start_with_no_exception_in_flight(in_flight):
    result = dettrace_run(exit_thread_program)
    assert (result.exit_code, result.stdout) == (0, "joined\n"), result.error
    assert [e for e in in_flight if e is not None] == []


def test_broken_pipe_steps_start_with_no_exception_in_flight(in_flight):
    result = dettrace_run(broken_pipe_program)
    assert result.error == "init killed by signal %d" % SIGPIPE
    assert [e for e in in_flight if e is not None] == []


def test_a_killed_process_steps_no_queued_thread(monkeypatch):
    """SIGPIPE kills init while its two sleepers wait for the step
    token: once the process has its exit status, neither sleeper takes
    another step or dispatches another syscall."""
    late = []
    step, dispatch = Kernel._step, Kernel._dispatch_syscall

    def checked_step(self, thread, value, exc):
        if thread.process.exit_status is not None:
            late.append(("step", self.det_tid(thread)))
        return step(self, thread, value, exc)

    def checked_dispatch(self, thread, call):
        if thread.process.exit_status is not None:
            late.append((call.name, self.det_tid(thread)))
        return dispatch(self, thread, call)

    monkeypatch.setattr(Kernel, "_step", checked_step)
    monkeypatch.setattr(Kernel, "_dispatch_syscall", checked_dispatch)
    result = dettrace_run(broken_pipe_program)
    assert result.error == "init killed by signal %d" % SIGPIPE
    assert late == []
