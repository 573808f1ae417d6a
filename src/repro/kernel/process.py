"""Processes and threads of the simulated kernel."""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Generator, List, Optional

from .fds import FDTable
from .inode import Inode
from .waiting import Channel


class ThreadState(enum.Enum):
    #: Waiting for a core (or for a sibling's serialization token).
    RUNNABLE = "runnable"
    #: Occupying a core in a compute segment.
    RUNNING = "running"
    #: Parked on wait channels inside a blocking syscall (native path).
    BLOCKED = "blocked"
    #: Stopped by ptrace, waiting for the tracer.
    TRACE_STOP = "trace_stop"
    #: Between operations; the DES is about to dispatch the next op.
    DISPATCH = "dispatch"
    EXITED = "exited"


class Thread:
    """One schedulable unit.  Runs a stack of guest generators.

    The stack exists so that signal handlers can be pushed on top of the
    interrupted computation and run to completion before the main body
    resumes — the simulated version of a signal frame.
    """

    def __init__(self, tid: int, process: "Process",
                 gen: Generator[Any, Any, Any]):
        self.tid = tid
        self.process = process
        self.gen_stack: List[Generator[Any, Any, Any]] = [gen]
        self.state = ThreadState.DISPATCH
        #: Channels this thread is parked on (BLOCKED state).
        self.wait_channels: List[Channel] = []
        #: The in-flight syscall (set during syscall handling / trace stop).
        self.current_syscall = None
        #: Accumulated CPU seconds.
        self.cpu_time = 0.0
        #: CPU seconds burned since the last syscall — busy-wait detector.
        self.compute_since_syscall = 0.0
        #: Signal handler generators queued for delivery.
        self.pending_signals: List[int] = []
        #: Deterministic logical clock: advanced by *requested* work (not
        #: jittered wall time), so trace stops carry timestamps that are a
        #: pure function of guest behaviour.  Used by the reproducible
        #: scheduler (core.scheduler.LogicalClockScheduler).
        self.det_clock = 0.0
        #: Lower bound on det_clock at this thread's next trace stop
        #: (clock plus compute already committed to).
        self.det_bound = 0.0
        #: Wall-clock wakeup latency owed after tracer resumes: consumed
        #: by the next compute segment.  Wall-only — never part of the
        #: deterministic clock.
        self.pending_latency = 0.0
        #: Waiting for the sibling-serialization token (§5.7).  Such a
        #: thread's progress is driven by deterministic token grants, so
        #: it must not gate the reproducible scheduler's eligibility.
        self.token_queued = False
        #: Fault decision armed for the in-flight syscall instance
        #: (repro.faults): set at dispatch, consumed at first execution.
        self.armed_fault = None
        #: Observability coordinates of the in-flight syscall instance
        #: (repro.obs): the per-process index assigned at dispatch, the
        #: number of tracer service/probe attempts so far, and whether a
        #: fault was injected into this instance.
        self.current_syscall_index = -1
        self.obs_attempt = 0
        self.obs_faulted = False

    @property
    def alive(self) -> bool:
        return self.state is not ThreadState.EXITED

    def __repr__(self) -> str:
        return "Thread(tid=%d, pid=%d, %s)" % (self.tid, self.process.pid, self.state.value)


SignalAction = Any  # 'default' | 'ignore' | Callable[[Any], Generator]


class Process:
    """A simulated Linux process."""

    def __init__(self, pid: int, nspid: int, parent: Optional["Process"],
                 root: Inode, cwd: Inode, cwd_path: str,
                 env: Dict[str, str], argv: List[str],
                 uid: int = 0, gid: int = 0, aslr_base: int = 0):
        self.pid = pid            # host pid
        self.nspid = nspid        # pid inside the container namespace
        self.parent = parent
        self.children: List["Process"] = []
        self.root = root          # chroot
        self.cwd = cwd
        self.cwd_path = cwd_path
        self.env = dict(env)
        self.argv = list(argv)
        self.uid = uid
        self.gid = gid
        #: File-mode creation mask, applied at every creation choke point
        #: (open(O_CREAT)/mkdir/mkfifo — symlinks exempt, per POSIX).
        #: Inherited across fork/exec; the Linux default for init.
        self.umask = 0o022
        self.aslr_base = aslr_base
        self.fdtable = FDTable()
        self.threads: List[Thread] = []
        #: Tids of the threads an ``execve`` dropped from ``threads``:
        #: a checkpoint restore still has to replay their frames, whose
        #: guest code ran in this process before the exec.
        self.dropped_tids: List[int] = []
        #: How many of ``threads`` are not EXITED, kept by the kernel at
        #: thread creation and at every EXITED transition (rebuilt on
        #: checkpoint restore), so thread serialization tests "more than
        #: one live thread" in O(1).
        self.live_thread_count = 0
        self.exit_status: Optional[int] = None
        self.reaped = False
        #: Fires when the process exits (parents wait4 on it).
        self.exit_channel = Channel("pid%d.exit" % pid)
        #: Fires when a signal is delivered (pause/sleep wake on it).
        self.signal_channel = Channel("pid%d.signal" % pid)
        self.signal_handlers: Dict[int, SignalAction] = {}
        #: Whether DetTrace replaced this process's vDSO (reset by execve).
        self.vdso_patched = False
        #: Executable path (for /proc-style introspection and execve).
        self.exe_path = argv[0] if argv else ""
        #: Futex wait-channel registry, shared across threads (and with
        #: fork children it is NOT shared — futexes live in memory; we key
        #: per-process which is sufficient for our thread workloads).
        self.futex_channels: Dict[int, Channel] = {}
        #: Arbitrary per-process scratch shared between guest threads
        #: (models the shared address space).
        self.memory: Dict[str, Any] = {}
        #: Count of syscalls this process has dispatched — the
        #: deterministic per-process coordinate fault plans key on.
        self.syscall_index = 0
        #: The thread holding the thread-serialization step token
        #: (§5.7), or None; its queue is ``memory["_step_queue"]``.
        self.step_token: Optional[Thread] = None

    @property
    def alive(self) -> bool:
        return self.exit_status is None

    @property
    def main_thread(self) -> Thread:
        return self.threads[0]

    def live_threads(self) -> List[Thread]:
        return [t for t in self.threads if t.alive]

    def futex_channel(self, addr: int) -> Channel:
        if addr not in self.futex_channels:
            self.futex_channels[addr] = Channel("pid%d.futex.%s" % (self.pid, addr))
        return self.futex_channels[addr]

    def getenv(self, name: str, default: str = "") -> str:
        return self.env.get(name, default)

    def __repr__(self) -> str:
        return "Process(pid=%d, nspid=%d, argv=%r)" % (self.pid, self.nspid, self.argv[:1])
