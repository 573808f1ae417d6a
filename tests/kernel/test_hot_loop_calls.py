"""A call-count guard on the traced syscall round trip.

``Kernel.run`` is profiled with ``sys.setprofile`` over a fixed
DetTrace program, and every Python "call" event is counted: host
functions, and the guest frames each resume re-enters.  The program
takes the three paths of the hot loop: a child alternates a passthrough
service (``access``, which has no handler-table entry) with a rewritten
one (``gettimeofday``), while its parent is blocked in ``wait4`` and is
probed after each of those services, its would-block answer replayed
from the memo.  The run is deterministic and the collector is off while
it is counted, so the count is exact: one more wrapper call on any of
those paths raises it by most of one call per guest syscall, and the
ceiling fails.  When a change lowers the count, lower the ceiling with
it (``python -m tests.kernel.test_hot_loop_calls`` prints the count).
"""

from __future__ import annotations

import gc
import sys

from repro.kernel.kernel import Kernel
from tests.conftest import dettrace_run

#: Services of each kind the child makes.
ROUNDS = 40
#: Python calls per guest syscall under ``Kernel.run``, at most.
CEILING = 34.85


def _child(sys_):
    for _ in range(ROUNDS):
        yield from sys_.access("/")
        yield from sys_.gettimeofday()
    return 0


def _parent(sys_):
    res = yield from sys_.run("/bin/child")
    return res.exit_code


def _counted_run():
    """(calls under Kernel.run, guest syscalls, the run's result)."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    run = Kernel.run

    def profiled(self, *args, **kwargs):
        sys.setprofile(profile)
        try:
            return run(self, *args, **kwargs)
        finally:
            sys.setprofile(None)

    Kernel.run = profiled
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = dettrace_run(_parent, extra_binaries={"/bin/child": _child})
    finally:
        Kernel.run = run
        if enabled:
            gc.enable()
    return calls[0], result.syscall_count, result


def calls_per_syscall():
    _counted_run()  # first-use work (imports, per-name records) warms
    calls, syscalls, result = _counted_run()
    assert result.succeeded, (result.status, result.error)
    return calls, syscalls, result


def test_the_program_takes_every_path():
    _calls, syscalls, result = calls_per_syscall()
    counters = result.metrics.counters
    assert counters["syscall/access/passthrough"] == ROUNDS
    assert counters["syscall/gettimeofday/rewritten"] == ROUNDS
    assert counters["syscall/wait4/passthrough"] == 1
    # The parent's wait4 is probed after each service of its child and
    # answered from the memo: every failed probe is a Table 2 replay.
    assert result.counters.replays_blocking >= 2 * ROUNDS
    # Those, the spawn and the wait4.
    assert syscalls == 2 * ROUNDS + 2


def test_calls_are_exact():
    assert calls_per_syscall()[:2] == calls_per_syscall()[:2]


def test_calls_per_syscall_under_ceiling():
    calls, syscalls, _result = calls_per_syscall()
    assert calls / syscalls <= CEILING, (calls, syscalls, calls / syscalls)


if __name__ == "__main__":
    calls, syscalls, _result = calls_per_syscall()
    print("%d calls / %d syscalls = %.4f" % (calls, syscalls,
                                              calls / syscalls))
