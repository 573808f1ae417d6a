"""Determinization handlers: one per irreproducible syscall family (§5).

A handler is ``handler(tracer, thread, call)``: it receives the
:class:`~repro.core.tracer.DetTraceTracer`, the stopped thread and its
syscall, and returns an outcome, in the tags :meth:`Kernel.execute
<repro.kernel.kernel.Kernel.execute>` returns:

* ``("value", v)`` — inject result *v* into the tracee;
* ``("error", SyscallError)`` — inject ``-errno``;
* ``("block", channels)`` — the non-blocking probe said would-block; the
  scheduler moves the thread to its Blocked queue (§5.6.1);
* ``("sleep", seconds)`` — a sleep reached the kernel (timer emulation
  off): the tracee resumes once the seconds have passed;
* ``("exited", None)`` — the syscall terminated the thread/process;
* ``("execve", ExecveReplace)`` — the process image is being replaced.

Handlers may execute the (possibly rewritten) syscall zero, one or many
times via ``tracer.kernel.execute`` — that is the wrap/skip/retry
toolbox of §5.10 — and return the kernel's outcome as is when they
change nothing.  The tracer hands the outcome to
:meth:`Kernel.tracer_complete <repro.kernel.kernel.Kernel.tracer_complete>`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

from ...kernel.ops import Syscall
from ...kernel.process import Thread

if TYPE_CHECKING:
    from ..tracer import DetTraceTracer

Outcome = Tuple[str, Any]
Handler = Callable[["DetTraceTracer", Thread, Syscall], Outcome]


def passthrough(tracer: DetTraceTracer, thread: Thread,
                call: Syscall) -> Outcome:
    """Execute unmodified: for syscalls that only need serialization."""
    return tracer.kernel.execute(thread, call)


def build_handler_table() -> Dict[str, Handler]:
    """Assemble the full name -> handler dispatch table.

    A syscall name with no entry is served by :func:`passthrough`, so
    the table lists only the determinizing handlers, and membership in
    it is what labels a completed call ``rewritten``."""
    from . import filesystem, io, machine, procs, randomness, time as time_mod

    table: Dict[str, Handler] = {}
    for module in (filesystem, io, machine, procs, randomness, time_mod):
        table.update(module.HANDLERS)
    return table
