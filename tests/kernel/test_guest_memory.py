"""Guest memory holds only what the guest stored.

``Process.memory`` models the guest's shared address space and is what
``Sys.mem`` hands the guest.  The kernel's own records — the signal
mask, the step-token queue, the resumes saved under signal-handler
frames — are declared fields of the process and the thread, so a guest
can neither see nor overwrite them.
"""

from __future__ import annotations

import pytest

from repro.kernel.types import SIGALRM, SIGPIPE
from tests.conftest import dettrace_run, native_run

GUEST_KEYS = ["handled", "joined", "mine"]


def _on_alarm(sys, signum):
    sys.mem["handled"] = signum
    return
    yield


def _worker(sys):
    yield from sys.sleep(0.001)
    sys.mem["joined"] += 1


def program(sys):
    sys.mem["mine"] = 1
    sys.mem["joined"] = 0
    yield from sys.syscall("sigprocmask", how="SIG_BLOCK", mask=(SIGPIPE,))
    yield from sys.sigaction(SIGALRM, _on_alarm)
    pid = yield from sys.getpid()
    yield from sys.kill(pid, SIGALRM)
    for _ in range(3):
        yield from sys.spawn_thread(_worker)
    while sys.mem["joined"] < 3:
        yield from sys.sleep(0.001)
    yield from sys.write_file("keys", ",".join(sorted(sys.mem)).encode())
    return 0


@pytest.mark.parametrize("runner", ["dettrace", "native"])
def test_guest_memory_lists_only_guest_keys(runner):
    # DetTrace serializes threads: its workers queue for the step token.
    run = dettrace_run if runner == "dettrace" else native_run
    result = run(program)
    assert result.exit_code == 0, result.error
    assert result.output_tree["keys"].decode().split(",") == GUEST_KEYS
