"""What the rr recorder and replayer share (paper §7.1.3).

Both are ptrace tracers behind the same seccomp filter, both trap
``rdtsc``, neither cares about busy-waiting, and both name a process by
its spawn path: the key a recording's streams are written under is the
key replay reads them back by.
"""

from __future__ import annotations

from typing import Dict

from ..kernel.process import Process, Thread
from ..tracer.ptrace import TracerBase
from ..tracer.seccomp import SeccompFilter
from .trace import Recording


class RnrTracer(TracerBase):
    """Base of :class:`~repro.rnr.recorder.RnrRecorder` and
    :class:`~repro.rnr.replayer.RnrReplayer`."""

    def __init__(self, recording: Recording):
        super().__init__()
        self.recording = recording
        #: pid -> hierarchical spawn path, e.g. (0, 2, 1): replay-stable
        #: even when global spawn interleaving differs.
        self._proc_index: Dict[int, tuple] = {}
        self._child_counts: Dict[tuple, int] = {}

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self.seccomp = SeccompFilter(
            enabled=True, kernel_version=kernel.host.machine.kernel_version)

    def _spawn_key(self, proc: Process) -> tuple:
        """Key the new *proc* by its spawn path: init is (0,), and a
        parent's n-th child (from 0) is the parent's key + (n,)."""
        if proc.parent is None:
            key = (0,)
        else:
            parent_key = self._proc_index.get(proc.parent.pid, (0,))
            ordinal = self._child_counts.get(parent_key, 0)
            self._child_counts[parent_key] = ordinal + 1
            key = parent_key + (ordinal,)
        self._proc_index[proc.pid] = key
        return key

    def _key(self, thread: Thread) -> tuple:
        """The spawn path of *thread*'s process."""
        return self._proc_index.get(thread.process.pid, (-1,))

    def traps_instruction(self, thread: Thread, name: str) -> bool:
        # rr records rdtsc via PR_SET_TSC so replay can inject it.
        return name in ("rdtsc", "rdtscp")

    def on_busy_wait(self, thread: Thread) -> None:
        # rr does not care about busy-waiting; the kernel budget should be
        # disabled when recording, but tolerate it if set.
        pass
