"""A failed syscall reaches the guest as a plain value.

The kernel turns a raised ``SyscallError`` into an outcome value in one
place, ``Kernel.execute``, which traced and untraced calls both go
through, and clears its traceback and context there.  So the error a
guest catches carries no frame of the kernel, the tracer or the
handlers, only the guest's own, which ``gen.throw`` gives it; and a
run's cyclic garbage does not grow with the number of calls that
failed.
"""

from __future__ import annotations

import os
import traceback

import pytest

from repro.core import ContainerConfig
from repro.faults.plan import FaultPlan, FaultRule
from repro.kernel.errors import Errno, SyscallError
from tests.conftest import dettrace_run, garbage_after, native_run

#: Source directories whose frames must not ride on a guest's error.
HOST_DIRS = tuple(os.sep + os.path.join("repro", layer) + os.sep
                  for layer in ("kernel", "core", "tracer"))

EIO_ON_STAT = FaultPlan(rules=(FaultRule(fault="eio", syscall=("stat",)),))


def _run(runner: str, program, fault_plan=None):
    if runner == "dettrace":
        return dettrace_run(program, config=ContainerConfig(fault_plan=fault_plan))
    return native_run(program, fault_plan=fault_plan)


def _host_frames(err: BaseException):
    """``file:function`` of every frame from a kernel, core or tracer
    source on *err*'s traceback and on its context and cause chain."""
    found, seen, chain = [], set(), [err]
    while chain:
        exc = chain.pop()
        if exc is None or id(exc) in seen:
            continue
        seen.add(id(exc))
        for frame, _ in traceback.walk_tb(exc.__traceback__):
            code = frame.f_code
            if any(d in code.co_filename for d in HOST_DIRS):
                found.append("%s:%s" % (os.path.basename(code.co_filename),
                                        code.co_name))
        chain += [exc.__context__, exc.__cause__]
    return found


def _keeping(kept, call):
    """A guest that makes *call* and keeps the error it fails with."""
    def main(sys):
        try:
            yield from call(sys)
        except SyscallError as err:
            kept.append(err)
        return 0
    return main


CALLS = {
    "access-enoent": (lambda s: s.syscall("access", path="/no/such/file"),
                      Errno.ENOENT, None),
    "open-enoent": (lambda s: s.open("/no/such/file"), Errno.ENOENT, None),
    "close-ebadf": (lambda s: s.close(97), Errno.EBADF, None),
    "fault-eio": (lambda s: s.stat("/"), Errno.EIO, EIO_ON_STAT),
}


@pytest.mark.parametrize("runner", ["dettrace", "native"])
@pytest.mark.parametrize("case", sorted(CALLS))
def test_a_kept_error_carries_no_host_frame(runner, case):
    call, errno, plan = CALLS[case]
    kept = []
    result = _run(runner, _keeping(kept, call), fault_plan=plan)
    assert result.exit_code == 0, result.error
    [err] = kept
    assert err.errno == errno
    # The guest still gets a traceback: its own frames, from gen.throw.
    assert err.__traceback__ is not None
    assert _host_frames(err) == []


def _access_loop(calls: int):
    def main(sys):
        for i in range(calls):
            # An include-path probe that fails, as a compiler makes.
            yield from sys.access("/usr/include/missing-%d.h" % i)
        yield from sys.println("probed %d" % calls)
        return 0
    return main


def _garbage_after(calls: int) -> int:
    """Objects the cyclic collector finds after one DetTrace run."""
    def run():
        result = dettrace_run(_access_loop(calls))
        assert result.stdout == "probed %d\n" % calls

    return garbage_after(run)


def test_garbage_does_not_grow_with_failed_calls():
    """The tracer's frame holds the error it services, so an error that
    kept its traceback closed a cycle through the frames it unwound
    (about 30 objects per failed call).  Untraced runs never made one:
    no caller of _execute_untraced holds the error."""
    few = _garbage_after(50)
    many = _garbage_after(250)
    # Fewer than one object per extra failed call.
    assert many - few < 250 - 50, (few, many)
