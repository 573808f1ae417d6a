"""The simulated kernel: a discrete-event executive for guest programs.

Guest threads are Python generators yielding operations
(:mod:`repro.kernel.ops`).  The kernel schedules them over ``ncores``
simulated cores with virtual time, executes syscalls against the VFS and
process table, and — when a tracer is attached — delivers ptrace-style
stops exactly where the real kernel would.

Nothing in this module determinizes anything: the kernel is the *unshaded
box* of the paper's Figure 2.  All reproducibility logic lives in the
tracer layers above.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cpu.machine import HostEnvironment
from ..obs.collector import Collector
from ..obs.events import EXIT, SPAWN, ObsEvent
from .clock import SimClock
from .costs import (
    COMPUTE_JITTER_FRAC,
    SYSCALL_TICK,
    IO_BANDWIDTH,
    SYSCALL_BASE_COST,
    SYSCALL_COSTS,
)
from .devices import ConsoleStream, install_standard_devices
from .epoch import Stamp
from .errors import DeadlockError, Errno, GuestCrash, KernelPanic, SimTimeout, SyscallError
from .filesystem import Filesystem
from .fds import OpenFile, FdKind
from .ops import Compute, Instr, Syscall, VdsoCall, VvarRead
from .pipes import Pipe
from .process import Process, Thread, ThreadState
from .syscalls import ExecveReplace, ExitProcess, ExitThread, Sleep, SyscallTable
from .signals import Disposition, classify
from .sockets import SocketRegistry
from .timers import TimerTable
from .types import make_exit_status, make_signal_status, SIGCHLD, CLOCK_MONOTONIC
from .vdso import Vdso
from .waiting import Channel, WouldBlock

#: Reference clock rate the Compute.work unit is defined against.
REFERENCE_GHZ = 2.2

#: Base virtual cost of an execve (Kernel._do_execve).
EXECVE_COST = SYSCALL_COSTS["execve"]

#: Delay between spawn syscall completion and the child's first step.
CHILD_START_DELAY = 20e-6

DEFAULT_MAX_EVENTS = 50_000_000

#: The kernel's keys in the run's collector (repro.obs).  A dispatch
#: counts at SYSCALL_PREFIX + (name,) and a spawn at ("process",
#: "spawn"); EVENTS_PROCESSED records the final event tick.
SYSCALL_PREFIX = ("kernel", "syscall")
VDSO_CALLS = ("kernel", "vdso_calls")
THREADS_SPAWNED = ("kernel", "threads_spawned")
EVENTS_PROCESSED = ("kernel", "events_processed")


class Kernel:
    """One booted instance of the simulated OS."""

    def __init__(self, host: HostEnvironment):
        from ..cpu.instructions import Cpu  # deferred: breaks the kernel<->cpu import cycle

        self.host = host
        self.clock = SimClock(host)
        self.cpu = Cpu(host)
        self.fs = Filesystem(host)
        self.vdso = Vdso(self.clock)
        self.timers = TimerTable()
        self.stdout = ConsoleStream("stdout")
        self.stderr = ConsoleStream("stderr")
        install_standard_devices(self.fs, host, self.stdout, self.stderr)
        from .procfs import install_procfs
        #: The /proc read hooks, which hold this kernel.
        self._procfs = install_procfs(self)
        self.table = SyscallTable(self)
        #: Per-container socket namespace: listeners, bound addresses and
        #: the deterministic ephemeral-port counter (repro.kernel.sockets).
        self.sockets = SocketRegistry()
        #: Registry of executable paths -> program factories.
        self.binaries: Dict[str, Callable] = {}
        #: The simulated internet: url -> body bytes (set by images).
        self.network: Dict[str, bytes] = {}
        self.processes: List[Process] = []
        #: Events dispatched so far: the tick that places injected kills
        #: and checkpoint barriers.
        self.events_processed = 0
        #: The run's observability collector (repro.obs): the store of
        #: every counter.  Containers install their own before boot; the
        #: default collects aggregates that are simply never surfaced.
        self.obs = Collector()

        #: Pending events as data: ``(time, seq, method, target, args)``
        #: runs ``method(target, *args)``, where *method* is one of the
        #: five event methods below and *target* a thread (a process for
        #: ``_fire_timer``) — what a checkpoint records by name and id.
        self._events: List[Tuple[float, int, Callable, Any, Tuple]] = []
        self._seq = 0
        #: Syscall name -> its SyscallName record, built on first use
        #: (syscall_name): the one per-name lookup of a dispatch.
        self.syscall_names: Dict[str, SyscallName] = {}
        self._pid_next = host.pid_start
        self._tid_next = host.pid_start + 50_000
        #: Pipes made so far, and so the id of the newest (new_pipe).
        self._pipe_counter = 0

        #: Container PID namespace: when set, children get sequential
        #: namespace PIDs starting at this counter (DetTrace, §5.1).
        self._nspid_next: Optional[int] = None

        self.tracer = None
        #: Deterministic fault injector (repro.faults); None = no plane.
        self.faults = None
        #: Checkpoint manager (repro.ckpt); None = checkpointing off and
        #: every hook below compiles down to one attribute test.
        self.ckpt = None
        #: Event tick at which an injected KILL_AT_TICK fault crashes
        #: the run (None = never).
        self._kill_at: Optional[int] = None
        self.cores_busy = 0
        self._core_queue: List[Tuple[Thread, float]] = []
        self._parked: Dict[Channel, List[Thread]] = {}
        #: Wake epoch: advanced by every channel notification.  A blocked
        #: wait4, whose answer only a child's exit notification can
        #: change, is replayed while the epoch holds still
        #: (SyscallTable.replay_test).  Host-side only: never snapshotted.
        self.wake_epoch = 0
        #: Processes between setting exit_status and notifying their exit
        #: channel: zombies wait4 can already see before the epoch moves.
        self.exits_in_flight = 0
        #: Host-only version stamps of the checkpoint sections whose
        #: state lives here (repro.ckpt.snapshot.section_stamps): each
        #: is bumped at every mutation of that state and never
        #: snapshotted.  Every pipe of this kernel shares ``pipe_stamp``.
        self.timers_version = 0
        self.core_queue_version = 0
        self.parked_version = 0
        self.pipe_stamp = Stamp()

        #: DetTrace thread serialization (§5.7).
        self.serialize_threads = False
        #: Busy-wait detection budget in Compute-work seconds (§5.9).
        self.busy_wait_budget: Optional[float] = None
        #: Fixed ASLR base (container disables ASLR).
        self.aslr_override: Optional[int] = None
        #: Default uid for the init process.
        self.default_uid = 1000

    # ------------------------------------------------------------------
    # configuration hooks (used by containers/tracers before boot)
    # ------------------------------------------------------------------

    def register_binary(self, path: str, factory: Callable) -> None:
        """Register a guest program at *path*; creates a stub file too."""
        self.binaries[path] = factory
        if not self.fs.exists(path):
            self.fs.write_file(path, b"#!ELF %s" % path.encode(), mode=0o755,
                               now=self.host.boot_epoch)

    def attach_tracer(self, tracer) -> None:
        if self.tracer is not None:
            raise KernelPanic("a tracer is already attached")
        self.tracer = tracer
        # A record holds the tracer's verdict on its name.
        self.syscall_names.clear()

    def enable_pid_namespace(self, first_pid: int = 1) -> None:
        self._nspid_next = first_pid

    def install_faults(self, plan, attempt: int = 0):
        """Install the deterministic fault plane for this boot.

        Wires one :class:`repro.faults.FaultInjector` into both consult
        points (syscall dispatch and the filesystem) and returns it.
        """
        from ..faults.injector import FaultInjector

        injector = FaultInjector(plan, attempt=attempt)
        self.faults = injector
        self.fs.fault_injector = injector
        self._kill_at = injector.next_kill_tick()
        return injector

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------

    def schedule(self, time: float, method: Callable, target: Any,
                 *args: Any) -> None:
        # (time, seq) is unique, so method/target/args never take part
        # in heap comparisons.
        heapq.heappush(self._events, (max(time, self.clock.now), self._seq,
                                      method, target, args))
        self._seq += 1

    def live_processes(self) -> List[Process]:
        return [p for p in self.processes if p.alive]

    def run(self, deadline: Optional[float] = None,
            max_events: int = DEFAULT_MAX_EVENTS) -> None:
        """Drive the simulation until all processes exit.

        Raises :class:`SimTimeout` past *deadline* virtual seconds and
        :class:`DeadlockError` if live threads remain with no possible
        progress.
        """
        clock = self.clock
        while True:
            if not self._events:
                if not self.live_processes():
                    return
                if self.tracer is not None and self.tracer.on_quiescent():
                    continue
                # Namespace pids: a container run fails the same way
                # on every host (a native run's nspid is its pid).
                raise DeadlockError(
                    "no progress possible; live pids=%s"
                    % [p.nspid for p in self.live_processes()])
            if (self._kill_at is not None
                    and self.events_processed >= self._kill_at):
                # Injected crash (KILL_AT_TICK): fires *between* events,
                # exactly where a checkpoint barrier sits, so a resumed
                # run continues from event tick N as if nothing happened.
                from ..faults.injector import KilledAtTick

                tick = self.events_processed
                if self.faults is not None:
                    self.faults.record_kill(tick)
                self._kill_at = None
                raise KilledAtTick(tick)
            t, _seq, method, target, args = heapq.heappop(self._events)
            if deadline is not None and t > deadline:
                raise SimTimeout(deadline)
            # SimClock.advance_to, inline.
            now = clock.now
            if t > now:
                clock.now = t
            elif t < now - 1e-12:
                raise ValueError("clock moved backwards: %r -> %r" % (now, t))
            self.events_processed += 1
            if self.events_processed > max_events:
                raise KernelPanic("event budget exhausted (%d)" % max_events)
            method(target, *args)
            if self.ckpt is not None:
                self.ckpt.maybe_barrier(self)

    # ------------------------------------------------------------------
    # process / thread creation
    # ------------------------------------------------------------------

    def make_sys(self, thread: Thread):
        from ..guest.runtime import Sys  # lazy: guest layer sits above us

        return Sys(thread)

    def new_pipe(self) -> Pipe:
        """A fresh pipe, numbered by this container's own counter."""
        self._pipe_counter += 1
        return Pipe(self._pipe_counter, stamp=self.pipe_stamp)

    def _alloc_nspid(self) -> int:
        if self._nspid_next is None:
            return 0
        nspid = self._nspid_next
        self._nspid_next += 1
        return nspid

    def boot(self, path: str, argv: Optional[List[str]] = None,
             env: Optional[Dict[str, str]] = None, uid: Optional[int] = None,
             cwd_path: str = "/") -> Process:
        """Create the init process (does not run it; call :meth:`run`)."""
        factory = self.binaries.get(path)
        if factory is None:
            raise KernelPanic("no binary registered at %r" % path)
        pid = self._pid_next
        self._pid_next += 1
        nspid = pid if self._nspid_next is None else self._alloc_nspid()
        cwd = self.fs.resolve(self.fs.root, self.fs.root, cwd_path)
        proc = Process(
            pid=pid, nspid=nspid, parent=None, root=self.fs.root, cwd=cwd,
            cwd_path=cwd_path, env=env if env is not None else dict(self.host.env),
            argv=argv or [path], uid=self.default_uid if uid is None else uid,
            gid=0, aslr_base=self._aslr_base())
        self._wire_standard_fds(proc)
        self.processes.append(proc)
        self.obs.count(("process", "spawn"))
        self.obs.record(ObsEvent(vts=0.0, pid=proc.nspid, index=-1,
                                 kind=SPAWN, name=path))
        thread = self._make_thread(proc, factory)
        if self.ckpt is not None:
            self.ckpt.record_spawn(thread.tid, path, proc.argv, proc.env)
        if self.tracer is not None:
            self.tracer.on_process_spawn(proc)
            self.tracer.on_execve(proc)
        self.schedule(self.clock.now, self._step_or_wait, thread, None, None)
        return proc

    def _aslr_base(self) -> int:
        if self.aslr_override is not None:
            return self.aslr_override
        return self.host.aslr_base()

    def _wire_standard_fds(self, proc: Process) -> None:
        stdin = OpenFile(kind=FdKind.DEVICE, path="/dev/null",
                         inode=self.fs.resolve(self.fs.root, self.fs.root, "/dev/null"))
        out = OpenFile(kind=FdKind.DEVICE, path="/dev/stdout",
                       inode=self.fs.resolve(self.fs.root, self.fs.root, "/dev/stdout"))
        err = OpenFile(kind=FdKind.DEVICE, path="/dev/stderr",
                       inode=self.fs.resolve(self.fs.root, self.fs.root, "/dev/stderr"))
        proc.fdtable.install_at(0, stdin)
        proc.fdtable.install_at(1, out)
        proc.fdtable.install_at(2, err)

    def _make_thread(self, proc: Process, factory: Callable) -> Thread:
        import inspect

        thread = Thread(tid=self._tid_next, process=proc, gen=None)
        self._tid_next += 1
        proc.threads.append(thread)
        proc.live_thread_count += 1
        gen = factory(self.make_sys(thread))
        if not inspect.isgenerator(gen):
            raise KernelPanic(
                "guest program %r must be a generator function (did it "
                "forget to yield?)" % getattr(factory, "__name__", factory))
        thread.gen_stack = [gen]
        return thread

    def spawn_child(self, parent: Process, path: str,
                    argv: Optional[List[str]] = None,
                    env: Optional[Dict[str, str]] = None,
                    stdio: Optional[Dict[int, Optional[int]]] = None,
                    close_fds: Optional[List[int]] = None,
                    caller: Optional[Thread] = None) -> int:
        """fork + execve: create a child of *parent* running *path*."""
        factory = self.binaries.get(path)
        if factory is None:
            raise SyscallError(Errno.ENOENT, "spawn_process", path)
        pid = self._pid_next
        self._pid_next += 1
        nspid = pid if self._nspid_next is None else self._alloc_nspid()
        child = Process(
            pid=pid, nspid=nspid, parent=parent, root=parent.root,
            cwd=parent.cwd, cwd_path=parent.cwd_path,
            env=env if env is not None else dict(parent.env),
            argv=argv or [path], uid=parent.uid, gid=parent.gid,
            aslr_base=self._aslr_base())
        child.umask = parent.umask
        child.fdtable = parent.fdtable.fork_copy()
        for target_fd, parent_fd in (stdio or {}).items():
            if parent_fd is not None:
                child.fdtable.dup2(parent_fd, target_fd, self.drop_open_file)
        for fd in close_fds or []:
            if child.fdtable.has(fd):
                self.drop_open_file(child.fdtable.remove(fd))
        parent.children.append(child)
        self.processes.append(child)
        self.obs.count(("process", "spawn"))
        self.obs.record(ObsEvent(
            vts=caller.det_clock if caller is not None else 0.0,
            pid=child.nspid, index=-1, kind=SPAWN, name=path))
        thread = self._make_thread(child, factory)
        if self.ckpt is not None:
            self.ckpt.record_spawn(thread.tid, path, child.argv, child.env)
        if caller is not None:
            # The spawn happens-before everything the child does: start
            # the child's deterministic clock at its creator's, so the
            # reproducible scheduler never has to drain the child's whole
            # logical history before servicing the parent again.
            thread.det_clock = caller.det_clock
            thread.det_bound = caller.det_clock
        if self.tracer is not None:
            self.tracer.on_process_spawn(child)
            self.tracer.on_execve(child)
        start = self.clock.now + CHILD_START_DELAY * (1 + self.host.sched_jitter())
        self.schedule(start, self._step_or_wait, thread, None, None)
        return child.nspid

    def spawn_thread(self, proc: Process, func: Callable,
                     caller: Optional[Thread] = None) -> int:
        thread = Thread(tid=self._tid_next, process=proc, gen=None)
        self._tid_next += 1
        proc.threads.append(thread)
        proc.live_thread_count += 1
        thread.gen_stack = [func(self.make_sys(thread))]
        if self.ckpt is not None and caller is not None:
            self.ckpt.record_tspawn(thread.tid, caller.tid)
        if caller is not None:
            thread.det_clock = caller.det_clock
            thread.det_bound = caller.det_clock
        self.obs.count(THREADS_SPAWNED)
        if self.tracer is not None:
            self.tracer.on_thread_spawn(thread)
        if self.serialize_threads and caller is not None:
            # Deterministic thread serialization (§5.7): the new thread
            # begins life at the back of the step queue; the spawner keeps
            # running until it blocks or exits.  Enqueueing here — during
            # the serialized spawn syscall — keeps the queue order a pure
            # function of guest behaviour (a timed start event would race
            # with jittered compute).
            if proc.step_token is None:
                proc.step_token = caller
            proc.step_queue.append((thread, None, None))
            thread.state = ThreadState.RUNNABLE
            thread.token_queued = True
            return thread.tid
        start = self.clock.now + CHILD_START_DELAY * (1 + self.host.sched_jitter())
        self.schedule(start, self._step_or_wait, thread, None, None)
        return thread.tid

    # ------------------------------------------------------------------
    # the generator trampoline
    # ------------------------------------------------------------------

    def _step_or_wait(self, thread: Thread, value: Any, exc: Optional[BaseException]) -> None:
        """Execute the thread's next step, honouring thread serialization."""
        if thread.state is ThreadState.EXITED:
            return
        proc = thread.process
        if self.serialize_threads and proc.live_thread_count > 1:
            holder = proc.step_token
            if (holder is not None and holder is not thread
                    and holder.state is not ThreadState.EXITED):
                proc.step_queue.append((thread, value, exc))
                thread.state = ThreadState.RUNNABLE
                thread.token_queued = True
                return
            proc.step_token = thread
        self._step(thread, value, exc)

    def _release_token(self, thread: Thread) -> None:
        proc = thread.process
        if proc.step_token is not thread:
            return
        proc.step_token = None
        queue = proc.step_queue
        if proc.exit_status is not None:
            # The process is being torn down: its queued threads exit
            # with it and take no further step.
            queue.clear()
            return
        while queue:
            nxt, value, exc = queue.pop(0)
            if nxt.state is not ThreadState.EXITED:
                proc.step_token = nxt
                nxt.token_queued = False
                if self.tracer is not None:
                    # The grantee re-enters the running set here — the
                    # only place token_queued flips back — so schedulers
                    # with an incremental running-set index are told
                    # before the thread takes another step.
                    self.tracer.on_token_granted(nxt)
                self._step(nxt, value, exc)
                return

    def _step(self, thread: Thread, value: Any, exc: Optional[BaseException]) -> None:
        """Advance the top generator frame and dispatch the yielded op."""
        while True:
            if thread.state is ThreadState.EXITED:
                return
            # Deliver queued signals by pushing handler frames (§5.4).
            if thread.pending_signals:
                signum = thread.pending_signals.pop(0)
                action = thread.process.signal_handlers.get(signum, "default")
                if callable(action):
                    handler_gen = action(self.make_sys(thread), signum)
                    thread.saved_resumes.append((value, exc))
                    thread.gen_stack.append(handler_gen)
                    if self.ckpt is not None:
                        self.ckpt.record_push(thread.tid, signum, value, exc)
                    value, exc = None, None
            gen = thread.gen_stack[-1]
            thread.state = ThreadState.DISPATCH
            if self.ckpt is not None:
                # Every value/exception a guest frame ever receives flows
                # through this one send/throw below — the resume tape
                # records them all (repro.ckpt).
                self.ckpt.record_step(thread.tid, value, exc)
            try:
                if exc is not None:
                    op = gen.throw(exc)
                else:
                    op = gen.send(value)
            except StopIteration as stop:
                if len(thread.gen_stack) > 1:
                    thread.gen_stack.pop()
                    saved = thread.saved_resumes
                    value, exc = saved.pop() if saved else (None, None)
                    continue
                code = stop.value if isinstance(stop.value, int) else 0
                status = None
                break
            except GuestCrash as crash:
                status = make_signal_status(crash.signum)
                break
            except SyscallError as err:
                self.stderr.write(("pid %d: uncaught %s\n" % (thread.process.nspid, err)).encode())
                status = make_exit_status(1)
                break
            value, exc = None, None
            # Dispatch the yielded operation, the commonest kind first.
            if isinstance(op, Syscall):
                self._dispatch_syscall(thread, op)
                return
            if isinstance(op, Compute):
                self._dispatch_compute(thread, op)
                return
            if isinstance(op, Instr):
                result = self._execute_instr(thread, op)
                if result is _SUSPENDED:
                    return
                value = result
                continue
            if isinstance(op, VdsoCall):
                if thread.process.vdso_patched:
                    self._dispatch_syscall(thread, Syscall(op.name, op.args))
                    return
                self.obs.count(VDSO_CALLS)
                value = self.vdso.call(op.name, op.args)
                continue
            if isinstance(op, VvarRead):
                if thread.process.vdso_patched:
                    # DetTrace made the vvar page unreadable: the load
                    # faults at a well-defined point (a precise exception,
                    # naturally reproducible — §5.4).
                    self.terminate_process(thread.process,
                                           make_signal_status(11))
                    return
                value = self.vdso.read_vvar()
                continue
            raise KernelPanic("guest yielded %r" % (op,))
        # The guest's root frame ended.  Its thread ends once the except
        # clause has closed: that can step a queued sibling, which must
        # not start with a host exception in flight.
        if status is None:
            self._thread_finished(thread, code)
        else:
            self.terminate_process(thread.process, status)

    def _thread_finished(self, thread: Thread, code: int) -> None:
        """A guest generator ran to completion."""
        proc = thread.process
        if thread is proc.main_thread:
            self.terminate_process(proc, make_exit_status(code))
            return
        thread.state = ThreadState.EXITED
        proc.live_thread_count -= 1
        self._release_token(thread)
        if self.tracer is not None:
            self.tracer.on_thread_exit(thread)
        if proc.live_thread_count == 0:
            self.terminate_process(proc, make_exit_status(0))

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------

    def _dispatch_compute(self, thread: Thread, op: Compute) -> None:
        thread.compute_since_syscall += op.work
        if (self.busy_wait_budget is not None
                and thread.compute_since_syscall > self.busy_wait_budget):
            if self.tracer is not None:
                self.tracer.on_busy_wait(thread)
                return
        # Commit the work to the deterministic clock's lower bound before
        # any jitter is applied: the reproducible scheduler may now let
        # earlier-stopped threads proceed past this thread.
        thread.det_bound = thread.det_clock + op.work
        scale = REFERENCE_GHZ / self.host.machine.freq_ghz
        duration = op.work * scale * (1.0 + self.host.sched_jitter(COMPUTE_JITTER_FRAC))
        duration += thread.pending_latency
        thread.pending_latency = 0.0
        self._start_compute(thread, duration)
        if self.tracer is not None:
            self.tracer.on_thread_progress(thread)

    def _start_compute(self, thread: Thread, duration: float) -> None:
        if self.cores_busy < self.host.ncores:
            self.cores_busy += 1
            thread.state = ThreadState.RUNNING
            thread._on_core = True
            thread.cpu_time += duration
            self.schedule(self.clock.now + duration, self._finish_compute,
                          thread)
        else:
            thread.state = ThreadState.RUNNABLE
            self._core_queue.append((thread, duration))
            self.core_queue_version += 1

    def _finish_compute(self, thread: Thread) -> None:
        if not thread._on_core:
            return  # torn down mid-compute; the core was already released
        self.cores_busy -= 1
        thread._on_core = False
        self._pump_core_queue()
        if thread.state is ThreadState.EXITED:
            return
        thread.det_clock = max(thread.det_clock, thread.det_bound)
        self._step(thread, None, None)

    def _pump_core_queue(self) -> None:
        while self._core_queue and self.cores_busy < self.host.ncores:
            # Native schedulers pick "randomly" among waiters: host jitter.
            idx = self.host.sched_choice_index(min(len(self._core_queue), 4))
            thread, duration = self._core_queue.pop(idx)
            self.core_queue_version += 1
            if not thread.alive:
                continue
            self.cores_busy += 1
            thread.state = ThreadState.RUNNING
            thread._on_core = True
            thread.cpu_time += duration
            self.schedule(self.clock.now + duration, self._finish_compute,
                          thread)

    # ------------------------------------------------------------------
    # instructions & vDSO
    # ------------------------------------------------------------------

    def _execute_instr(self, thread: Thread, op: Instr) -> Any:
        if self.tracer is not None and self.tracer.traps_instruction(thread, op.name):
            value, resume_at = self.tracer.on_instruction(thread, op.name)
            if resume_at <= self.clock.now:
                return value
            thread.state = ThreadState.TRACE_STOP
            self.schedule(resume_at, self._step_or_wait, thread, value, None)
            return _SUSPENDED
        return self.cpu.execute(op.name, self.clock.now)

    # ------------------------------------------------------------------
    # syscalls
    # ------------------------------------------------------------------

    def syscall_name(self, name: str) -> SyscallName:
        """The record of syscall *name*, built on first use.  Hot paths
        read ``syscall_names`` and call this only on a miss."""
        record = self.syscall_names[name] = SyscallName(
            name, self.tracer, type(self.table))
        return record

    def syscall_cost(self, thread: Thread, base: float) -> float:
        """*base* plus the I/O time the thread's call charged."""
        extra = thread._io_cost
        thread._io_cost = 0.0
        return base + extra

    def charge_io(self, thread: Thread, nbytes: int) -> None:
        cost = nbytes / IO_BANDWIDTH
        thread._io_cost += cost
        self.obs.charge("fs", cost)

    def det_tid(self, thread: Thread) -> int:
        """Deterministic thread ordinal (tids are host-pid-base offset)."""
        return thread.tid - self.host.pid_start - 50_000

    def _dispatch_syscall(self, thread: Thread, call: Syscall) -> None:
        obs = self.obs
        record = (self.syscall_names.get(call.name)
                  or self.syscall_name(call.name))
        counters = obs.counters
        key = record.key
        counters[key] = counters.get(key, 0) + 1
        proc = thread.process
        index = proc.syscall_index
        proc.syscall_index = index + 1
        # The instance's deterministic timestamp: where det_clock will
        # advance to below.  Computed up front so the structured event
        # carries it even when an injected signal storm kills the thread
        # before the advance happens.
        det_ts = max(thread.det_clock, thread.det_bound) + SYSCALL_TICK
        obs.recent_syscalls.push(det_ts, proc.nspid, index, call.name)
        if self.faults is not None:
            self.faults.on_dispatch(self, thread, call, index, vts=det_ts)
            if not thread.alive:
                # An injected signal storm terminated the process at the
                # dispatch point; there is nothing left to execute.
                return
        thread.compute_since_syscall = 0.0
        thread.det_clock = det_ts
        thread.det_bound = thread.det_clock
        thread.current_syscall = call
        thread.current_syscall_index = index
        thread.obs_attempt = 0
        if record.intercepted:
            # Note: the step token is retained across the stop; the tracer
            # releases it only when the syscall would block (§5.7's
            # "context switch at blocking syscalls").
            thread.state = ThreadState.TRACE_STOP
            self.tracer.on_trace_stop(thread)
            return
        # Not intercepted: seccomp classified it naturally reproducible
        # ("skipped"), or there is no tracer at all ("native").
        key = record.untraced_key
        counters[key] = counters.get(key, 0) + 1
        if obs.trace_enabled:
            # The structured event is only materialized when someone is
            # listening: the untraced path is the seccomp-optimized
            # common case and must stay allocation-light.
            obs.record(ObsEvent(vts=det_ts, pid=proc.nspid, index=index,
                                kind="syscall", name=call.name))
        self._execute_untraced(thread, call, record.cost)

    def _execute_untraced(self, thread: Thread, call: Syscall,
                          base_cost: float) -> None:
        tag, payload = self.execute(thread, call)
        if tag == "value":
            self._resume_after(thread, self.syscall_cost(thread, base_cost),
                               value=payload)
        elif tag == "error":
            self._resume_after(thread, self.syscall_cost(thread, base_cost),
                               exc=payload)
        elif tag == "block":
            self._park(thread, call, payload)
        elif tag == "sleep":
            thread.state = ThreadState.BLOCKED
            self._release_token(thread)
            self.schedule(self.clock.now + payload, self._step_or_wait,
                          thread, 0, None)
        elif tag == "execve":
            self._do_execve(thread, payload)
        # "exited": execute already ended the thread or its process.

    def _resume_after(self, thread: Thread, delay: float, value: Any = None,
                      exc: Optional[BaseException] = None) -> None:
        thread.state = ThreadState.DISPATCH
        self.schedule(self.clock.now + delay, self._step_or_wait, thread,
                      value, exc)

    # -- blocking ------------------------------------------------------------

    def _park(self, thread: Thread, call: Syscall, channels: List[Channel]) -> None:
        thread.state = ThreadState.BLOCKED
        thread.wait_channels = list(channels)
        thread._parked_call = call
        self._release_token(thread)
        for ch in channels:
            self._parked.setdefault(ch, []).append(thread)
        self.parked_version += 1

    def notify(self, channel: Channel) -> int:
        """Wake every thread parked on *channel*; returns the count."""
        self.wake_epoch += 1
        woken = self._parked.pop(channel, None)
        if woken is None:
            return 0
        self.parked_version += 1
        count = 0
        for thread in woken:
            if thread.state is not ThreadState.BLOCKED:  # exited, or already woken
                continue
            for ch in thread.wait_channels:
                if ch is not channel and thread in self._parked.get(ch, []):
                    self._parked[ch].remove(thread)
            thread.wait_channels = []
            count += 1
            self.schedule(self.clock.now, self._retry_parked, thread)
        return count

    def _retry_parked(self, thread: Thread) -> None:
        if not thread.alive:
            return
        call = thread._parked_call
        if call is None:
            return
        thread.state = ThreadState.DISPATCH
        self._execute_untraced(thread, call, (
            self.syscall_names.get(call.name)
            or self.syscall_name(call.name)).cost)

    # -- execve -------------------------------------------------------------------

    def _do_execve(self, thread: Thread, ex: ExecveReplace,
                   resume_at: Optional[float] = None) -> None:
        factory = self.binaries.get(ex.path)
        if factory is None:
            self._resume_after(thread, self.syscall_cost(thread, EXECVE_COST),
                               exc=SyscallError(Errno.ENOENT, "execve", ex.path))
            return
        proc = thread.process
        for sibling in proc.threads:
            if sibling is not thread:
                if sibling.alive:
                    self._teardown_thread(sibling)
                # Its frames hold its Sys facade, which holds the thread:
                # a cycle that ``teardown`` no longer reaches.
                sibling.gen_stack.clear()
                proc.dropped_tids.append(sibling.tid)
        proc.threads = [thread]
        proc.argv = list(ex.argv)
        proc.exe_path = ex.path
        if ex.env is not None:
            proc.env = dict(ex.env)
        proc.vdso_patched = False
        thread.gen_stack = [factory(self.make_sys(thread))]
        thread.saved_resumes.clear()
        if self.ckpt is not None:
            self.ckpt.record_exec(thread.tid, ex.path, proc.argv, proc.env)
        if self.tracer is not None:
            self.tracer.on_execve(proc)
        at = resume_at if resume_at is not None else (
            self.clock.now + self.syscall_cost(thread, EXECVE_COST))
        thread.state = ThreadState.DISPATCH
        self.schedule(at, self._step_or_wait, thread, None, None)

    # ------------------------------------------------------------------
    # signals & alarms
    # ------------------------------------------------------------------

    def deliver_signal(self, proc: Process, signum: int) -> None:
        if not proc.alive:
            return
        disposition = classify(proc.signal_handlers, signum)
        if disposition is Disposition.IGNORE:
            return
        if disposition is Disposition.TERMINATE:
            self.terminate_process(proc, make_signal_status(signum))
            return
        live = proc.live_threads()
        if not live:
            return
        target = live[0]
        target.pending_signals.append(signum)
        proc._signals_delivered += 1
        self.notify(proc.signal_channel)
        # A blocked thread with no channel connection still gets the
        # handler at its next step; pause/interruptible sleeps listen on
        # signal_channel and wake above.

    def register_alarm(self, proc: Process, seconds: float, signum: int) -> float:
        """Arm the process's timer; returns the seconds that remained on
        any previously armed timer (the alarm(2) contract)."""
        remaining = self.timers.remaining(proc.pid, self.clock.now)
        self.timers_version += 1
        if seconds <= 0:
            self.timers.cancel(proc.pid)
            return remaining
        generation = self.timers.arm(proc.pid, self.clock.now + seconds, signum)
        self.schedule(self.clock.now + seconds, self._fire_timer, proc,
                      generation)
        return remaining

    def _fire_timer(self, proc: Process, generation: int) -> None:
        signum = self.timers.should_fire(proc.pid, generation)
        if signum is not None:
            self.timers_version += 1
            if proc.alive:
                self.deliver_signal(proc, signum)

    # ------------------------------------------------------------------
    # process teardown
    # ------------------------------------------------------------------

    def drop_open_file(self, of: OpenFile) -> None:
        self.table._drop_open_file(of)

    def _teardown_thread(self, thread: Thread) -> None:
        """Exit a live thread without its exit hook (process teardown)."""
        thread.state = ThreadState.EXITED
        thread.process.live_thread_count -= 1
        if thread._on_core:
            self.cores_busy -= 1
            thread._on_core = False
            self._pump_core_queue()
        self._release_token(thread)

    def terminate_process(self, proc: Process, status: int) -> None:
        if proc.exit_status is not None:
            return
        proc.exit_status = status
        # wait4 can reap the zombie from here on, but its exit channel
        # (and with it the wake epoch) moves only after the teardown,
        # which may step a queued sibling and so re-enter the tracer.
        self.exits_in_flight += 1
        self.obs.count(("process", "exit"))
        self.obs.record(ObsEvent(
            vts=max((t.det_clock for t in proc.threads), default=0.0),
            pid=proc.nspid, index=-1, kind=EXIT, name=proc.exe_path or "",
            detail="status=%d" % status))
        for thread in proc.threads:
            if thread.alive:
                self._teardown_thread(thread)
        for fd, of in proc.fdtable.items():
            proc.fdtable.remove(fd)
            self.drop_open_file(of)
        self.notify(proc.exit_channel)
        self.exits_in_flight -= 1
        if proc.parent is not None and proc.parent.alive:
            self.deliver_signal(proc.parent, SIGCHLD)
        if self.tracer is not None:
            self.tracer.on_process_exit(proc)

    # ------------------------------------------------------------------
    # tracer services (the "ptrace" surface the tracer layer builds on)
    # ------------------------------------------------------------------

    def execute(self, thread: Thread, call: Syscall) -> Tuple[str, Any]:
        """Execute *call* for *thread*: the one place where a kernel
        exception becomes an outcome.

        Returns ``("value", v)``, ``("error", SyscallError)``,
        ``("block", channels)``, ``("sleep", seconds)``, ``("exited",
        None)`` or ``("execve", ExecveReplace)`` — the tags the
        determinization handlers return (repro.core.handlers).
        """
        try:
            value = self.table.execute(thread, call)
        except WouldBlock as wb:
            return ("block", wb.channels)
        except Sleep as s:
            return ("sleep", s.seconds)
        except SyscallError as err:
            # An error leaves the kernel as a plain value.  Its traceback
            # holds the host frames it unwound through, which pin their
            # callers through f_back, and a tracer's frame holds the
            # error: a reference cycle per failed call.  The context is a
            # host exception too (FDTable's KeyError).  gen.throw gives
            # the guest a traceback of its own frames.
            err.__traceback__ = err.__context__ = None
            return ("error", err)
        except ExecveReplace as ex:
            ex.__traceback__ = ex.__context__ = None
            return ("execve", ex)
        except ExitProcess as ex:
            status = make_exit_status(ex.code)
        except ExitThread:
            status = None
        else:
            return ("value", value)
        # An exit acts once its clause has closed: ending a thread can
        # step a queued sibling, which must not start with a host
        # exception in flight.
        if status is None:
            self._thread_finished(thread, 0)
        else:
            self.terminate_process(thread.process, status)
        return ("exited", None)

    def release_step_token(self, thread: Thread) -> None:
        """Tracer hook: the thread's syscall would block; hand the thread
        serialization token to the next queued sibling."""
        self._release_token(thread)

    def tracer_resume(self, thread: Thread, at: float, value: Any = None,
                      exc: Optional[BaseException] = None) -> None:
        """Resume a trace-stopped thread at virtual time *at*.

        Under thread serialization, a serviced syscall is a context-switch
        point (§5.7): the resumed thread re-joins the back of its
        process's step queue and the front gets the token — a
        deterministic round-robin, because queue membership only changes
        at serviced events.
        """
        if thread.state is ThreadState.EXITED:
            return
        thread.state = ThreadState.DISPATCH
        thread.current_syscall = None
        proc = thread.process
        if (self.serialize_threads and proc.live_thread_count > 1
                and proc.step_token is thread):
            proc.step_queue.append((thread, value, exc))
            thread.state = ThreadState.RUNNABLE
            thread.token_queued = True
            self.schedule(at, self._release_token, thread)
            return
        self.schedule(at, self._step_or_wait, thread, value, exc)

    def tracer_complete(self, thread: Thread, tag: str, payload: Any,
                        at: float) -> None:
        """Resume a trace-stopped thread with the outcome of its syscall
        (see :meth:`execute`), at virtual time *at*.

        A value or an error is handed to the guest, an exec runs at *at*,
        a sleep resumes with 0 once its seconds have passed, and an exit
        has nothing left to resume.
        """
        if tag == "value":
            self.tracer_resume(thread, at, value=payload)
        elif tag == "error":
            self.tracer_resume(thread, at, exc=payload)
        elif tag == "execve":
            self._do_execve(thread, payload, resume_at=at)
        elif tag == "sleep":
            self.tracer_resume(thread, max(at, self.clock.now + payload),
                               value=0)
        elif tag != "exited":
            raise AssertionError("unknown outcome %r" % tag)

    def find_process_by_nspid(self, nspid: int) -> Optional[Process]:
        for proc in self.processes:
            if proc.nspid == nspid:
                return proc
        return None

    # ------------------------------------------------------------------
    # run teardown
    # ------------------------------------------------------------------

    def teardown(self) -> None:
        """Cut the reference cycles of a finished run.

        Called once the run's result is built, so the kernel and all it
        holds are freed by reference counting as soon as the caller
        drops them, not at the cyclic collector's next full pass.  The
        kernel is unusable afterwards.
        """
        # What refers back to the kernel: its tracer, its syscall table,
        # the /proc read hooks and the bound methods of pending events.
        if self.tracer is not None:
            self.tracer.teardown()
        self.table.kernel = None
        for hook in self._procfs:
            hook.kernel = None
        self._events.clear()
        # What refers back to a thread or a process: an unfinished guest
        # frame holds its Sys facade, which holds the thread.
        for proc in self.processes:
            for thread in proc.threads:
                thread.gen_stack.clear()
            proc.threads.clear()
            proc.children.clear()
            proc.step_token = None
            proc.step_queue.clear()


class SyscallName:
    """What a dispatch needs of one syscall name, derived once per
    kernel: its counter keys (every dispatch; an untraced one), whether
    the tracer intercepts it (seccomp decides by name), its base virtual
    cost and its ``SyscallTable`` method (None: ENOSYS)."""

    __slots__ = ("key", "intercepted", "untraced_key", "cost", "method")

    def __init__(self, name: str, tracer, table_type: type):
        self.key = SYSCALL_PREFIX + (name,)
        self.intercepted = tracer is not None and tracer.intercepts(name)
        self.untraced_key = ("syscall", name,
                             "native" if tracer is None else "skipped")
        self.cost = SYSCALL_COSTS.get(name, SYSCALL_BASE_COST)
        self.method = getattr(table_type, "sys_" + name, None)


#: Sentinel: the instruction path suspended the thread (trap round trip).
_SUSPENDED = object()
