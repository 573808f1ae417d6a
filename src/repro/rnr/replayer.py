"""The replay side of the rr analog.

Replay re-runs the same program tree but *injects* every recorded syscall
result instead of executing against the kernel, so the guest re-observes
the recorded world exactly (including its irreproducible values).  A few
structural syscalls (spawn/exit/execve and thread creation) must really
execute so the process tree exists; their results are checked against the
recording instead.
"""

from __future__ import annotations

from typing import Dict

from ..kernel.costs import TRACER_HANDLER_COST
from ..kernel.errors import SyscallError
from ..kernel.process import Process, Thread
from .trace import Recording, ReplayDivergence
from .tracer import RnrTracer

#: Syscalls replay must actually execute (world-structure, not data).
STRUCTURAL = frozenset({
    "spawn_process", "spawn_thread", "execve", "exit", "exit_thread",
})

REPLAY_EVENT_COST = 10e-6


class RnrReplayer(RnrTracer):
    """Drives a replayed execution from a :class:`Recording`."""

    def __init__(self, recording: Recording):
        super().__init__(recording)
        self._cursor: Dict[tuple, int] = {}

    def on_process_spawn(self, proc: Process) -> None:
        index = self._spawn_key(proc)
        expected = self.recording.spawn_argvs.get(index)
        if expected is not None and expected[:1] != proc.argv[:1]:
            raise ReplayDivergence(
                "process %s ran %r, recording has %r"
                % (index, proc.argv[:1], expected[:1]))

    def _next_event(self, thread: Thread):
        index = self._key(thread)
        stream = self.recording.streams.get(index, [])
        pos = self._cursor.get(index, 0)
        if pos >= len(stream):
            raise ReplayDivergence(
                "process %s ran past the end of its recorded stream" % (index,))
        self._cursor[index] = pos + 1
        return stream[pos]

    def on_instruction(self, thread: Thread, name: str):
        event = self._next_event(thread)
        if event.syscall != "instr:" + name:
            raise ReplayDivergence(
                "pid %d executed instruction %s, recording expected %s"
                % (thread.process.pid, name, event.syscall))
        finish = self.charge(REPLAY_EVENT_COST / 2)
        return (event.payload, finish)

    def on_trace_stop(self, thread: Thread) -> None:
        call = thread.current_syscall
        self.charge(self.seccomp.stop_cost + TRACER_HANDLER_COST + REPLAY_EVENT_COST)
        event = self._next_event(thread)
        if event.syscall != call.name:
            raise ReplayDivergence(
                "pid %d executed %s, recording expected %s"
                % (thread.process.pid, call.name, event.syscall))
        if call.name in STRUCTURAL:
            # The call really executes (the process tree must exist),
            # but the guest must observe the *recorded* value: pid
            # allocation order can differ in replay, and every pid the
            # guest compares against later comes from the recording.
            tag, payload = self.kernel.execute(thread, call)
            if tag == "value" and event.outcome == "value":
                payload = event.payload
        elif event.outcome == "value":
            # Pure injection: the kernel never sees the syscall.
            tag, payload = "value", event.payload
        else:
            tag, payload = "error", event.payload
            if not isinstance(payload, BaseException):
                payload = SyscallError(int(payload), call.name)
        self.kernel.tracer_complete(thread, tag, payload, self.busy_until)
