"""Determinization handlers: one per irreproducible syscall family (§5).

A handler receives a :class:`HandlerContext`, the stopped thread and its
syscall, and returns an outcome tuple:

* ``("value", v)`` — inject result *v* into the tracee;
* ``("error", SyscallError)`` — inject ``-errno``;
* ``("block", channels)`` — the non-blocking probe said would-block; the
  scheduler moves the thread to its Blocked queue (§5.6.1);
* ``("exited", None)`` — the syscall terminated the thread/process;
* ``("execve", ExecveReplace)`` — the process image is being replaced.

Handlers may execute the (possibly rewritten) syscall zero, one or many
times via ``ctx.execute`` — that is the wrap/skip/retry toolbox of §5.10.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ...kernel.inode import Inode
from ...kernel.ops import Syscall
from ...kernel.process import Thread

Outcome = Tuple[str, Any]
Handler = Callable[["HandlerContext", Thread, Syscall], Outcome]


class HandlerContext:
    """Everything a determinization handler may touch."""

    def __init__(self, tracer, thread: Thread):
        self.tracer = tracer
        self.thread = thread
        self.kernel = tracer.kernel
        self.config = tracer.config
        self.prng = tracer.prng
        self.logical = tracer.logical
        self.inodes = tracer.inodes
        self.uidmap = tracer.uidmap
        #: Cross-retry handler state (partial-IO accumulation, Fig. 4).
        self.io_state = tracer.io_state

    def execute(self, call: Syscall) -> Outcome:
        """Run *call* in the kernel as a non-blocking probe."""
        return self.kernel.tracer_execute(self.thread, call, nonblocking=True)

    def note_progress(self) -> None:
        """Tell the scheduler guest-visible state changed even though the
        current syscall is still blocked (partial IO transfer)."""
        self.tracer.sched.note_progress()

    def peek(self, words: int = 1) -> None:
        """Account for PTRACE_PEEKDATA-style tracee memory reads."""
        self.tracer.charge(self.tracer.peek_memory(words))

    def poke(self, words: int = 1) -> None:
        self.tracer.charge(self.tracer.poke_memory(words))

    def resolve(self, path: str) -> Optional[Inode]:
        """Resolve *path* in the tracee's namespace; None if absent."""
        proc = self.thread.process
        try:
            return self.kernel.fs.resolve(proc.root, proc.cwd, path)
        except Exception:
            return None


def passthrough(ctx: HandlerContext, thread: Thread, call: Syscall) -> Outcome:
    """Execute unmodified: for syscalls that only need serialization."""
    tag, payload = ctx.execute(call)
    if tag == "ok":
        return ("value", payload)
    if tag == "err":
        return ("error", payload)
    if tag == "block":
        return ("block", payload)
    if tag == "exit":
        return ("exited", None)
    if tag == "execve":
        return ("execve", payload)
    if tag == "sleep":
        # A blocking sleep reached a passthrough handler (timer emulation
        # disabled): report it upward so the tracer can emulate the delay.
        return ("sleep", payload)
    raise AssertionError("unexpected outcome %r" % tag)


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
