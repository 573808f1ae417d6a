"""The record side of the rr-analog baseline (paper §7.1.3).

The recorder is also a ptrace tracer, but it makes no attempt at
determinism: stops are serviced in arrival order, syscalls execute with
native semantics, and the (irreproducible) results are written to the
recording.  Its per-event cost is higher than DetTrace's because every
result payload is serialized to the trace file.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from ..kernel.costs import (
    TRACEE_WAKEUP_LATENCY,
    TRACER_HANDLER_COST,
    TRACER_REPLAY_COST,
)
from ..kernel.process import Process, Thread
from .trace import Recording, RnrCrash, TraceEvent
from .tracer import RnrTracer

#: Per-event serialization cost on top of the stop cost: rr copies and
#: compresses the result payload into its trace, giving it a much higher
#: per-event constant than DetTrace's in-memory handlers (§7.1.3 measures
#: a 5.8x mean overhead for rr vs 3.49x for DetTrace).
RECORD_EVENT_COST = 70e-6
#: Payload serialization bandwidth (compression-dominated).
RECORD_BANDWIDTH = 5.0e7

#: ioctl requests rr 5.2.0 handles; anything else triggers the known
#: crash bug the paper hit on 46 of 81 packages.
SUPPORTED_IOCTLS = frozenset({"TIOCGWINSZ", "FIONREAD"})


class RnrRecorder(RnrTracer):
    """Records one native execution of the container tree.

    Scope note: real rr forces all tracee threads onto one core so that
    the recorded thread interleaving can be reproduced; this analog does
    not model that, so recordings of multi-threaded processes may diverge
    on replay.  The §7.1.3 comparison therefore samples single-threaded
    packages (the paper's own rr experiment predates its thread story).
    """

    def __init__(self):
        super().__init__(Recording())
        self._blocked: Deque[Thread] = deque()
        self._pumping = False

    def on_process_spawn(self, proc: Process) -> None:
        self.recording.spawn_argvs[self._spawn_key(proc)] = list(proc.argv)

    def on_instruction(self, thread: Thread, name: str):
        value = self.kernel.cpu.execute(name, self.kernel.clock.now)
        self.recording.append(self._key(thread),
                              TraceEvent("instr:" + name, "value", value))
        finish = self.charge(RECORD_EVENT_COST / 2)
        return (value, finish)

    # -- stops -------------------------------------------------------------

    def on_trace_stop(self, thread: Thread) -> None:
        self._service(thread)
        self._pump_blocked()

    def _service(self, thread: Thread) -> None:
        call = thread.current_syscall
        if call.name == "ioctl" and call.args.get("request") not in SUPPORTED_IOCTLS:
            raise RnrCrash("ioctl", repr(call.args.get("request")))
        self.charge(self.seccomp.stop_cost + TRACER_HANDLER_COST + RECORD_EVENT_COST)
        data = call.args.get("data")
        if isinstance(data, (bytes, str)):
            self.charge(len(data) / RECORD_BANDWIDTH)
        self._execute(thread)

    def _execute(self, thread: Thread) -> None:
        """Execute *thread*'s call, at its stop or at a retry after it
        blocked; record and serialize its outcome, and resume it."""
        call = thread.current_syscall
        tag, payload = self.kernel.execute(thread, call)
        if tag == "block":
            self._blocked.append(thread)
            return
        self._record(thread, call, tag, payload)
        if isinstance(payload, (bytes, str)):
            self.charge(len(payload) / RECORD_BANDWIDTH)
        if tag in ("value", "error"):
            thread.pending_latency += TRACEE_WAKEUP_LATENCY
        self.kernel.tracer_complete(thread, tag, payload, self.busy_until)

    def _record(self, thread: Thread, call, tag: str, payload) -> None:
        """Append the outcome the guest will see: a sleep returns 0, and
        an exit or an exec returns nothing."""
        if tag == "sleep":
            tag, payload = "value", 0
        elif tag in ("exited", "execve"):
            tag, payload = "value", None
        self.recording.append(self._key(thread),
                              TraceEvent(call.name, tag, payload))

    def _pump_blocked(self) -> None:
        if self._pumping:
            return
        self._pumping = True
        try:
            for _ in range(len(self._blocked)):
                thread = self._blocked.popleft()
                if not thread.alive:
                    continue
                self.charge(TRACER_REPLAY_COST)
                self._execute(thread)
        finally:
            self._pumping = False

    def on_quiescent(self) -> bool:
        before = len(self._blocked)
        self._pump_blocked()
        return len(self._blocked) < before
