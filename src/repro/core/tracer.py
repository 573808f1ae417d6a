"""The DetTrace tracer: determinization driven by the reproducible scheduler.

This object is the shaded box of the paper's Figure 2: it sits between
the unmodified guest processes and the unmodified kernel, intercepting
syscalls (via the ptrace analog, filtered by seccomp) and irreproducible
instructions (via hardware trap support), and servicing them in the
deterministic order chosen by the three-queue scheduler of §5.6.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..cpu import instructions as insn
from ..kernel.costs import (
    EXECVE_TRACER_COST,
    INSTR_TRAP_COST,
    TRACEE_WAKEUP_LATENCY,
    TRACER_HANDLER_COST,
    TRACER_REPLAY_COST,
    TRACER_SCHED_COST,
)
from ..kernel.inode import Inode
from ..kernel.process import Process, Thread
from ..kernel.types import CpuidResult
from ..obs.events import DEBUG, TRAP, ObsEvent
from ..obs.profiler import HANDLER, INTERCEPTION, SCHEDULER
from ..obs.trace import Span
from ..tracer.events import REPLAYS_BLOCKING, SYSCALL_EVENTS
from ..tracer.ptrace import TracerBase
from ..tracer.seccomp import SeccompFilter
from .config import ContainerConfig
from .errors import BusyWaitError
from .handlers import Handler, build_handler_table, passthrough
from .inode_table import InodeTable
from .logical_time import LogicalClock
from .namespaces import UidGidMap
from .prng import Lfsr
from .scheduler import PROBE, SERVICE, WAIT, make_scheduler

#: Counted at each service of a thread of another process than the last.
CONTEXT_SWITCH = ("sched", "context_switch")

#: What cpuid reports inside the container: a canonical uniprocessor with
#: no TSX and no hardware randomness (§5.8).
CANONICAL_CPUID = CpuidResult(
    vendor="GenuineIntel",
    brand="DetTrace Virtual CPU @ 1.00GHz",
    family=6,
    model=0,
    cores=1,
    features=["avx"],
)


class DetTraceTracer(TracerBase):
    """Determinizing tracer over one simulated kernel."""

    def __init__(self, config: ContainerConfig, uidmap: UidGidMap):
        super().__init__()
        self.config = config
        self.uidmap = uidmap
        self.prng = Lfsr(config.prng_seed)
        self.logical = LogicalClock(config.epoch)
        self.inodes = InodeTable()
        self.handlers = build_handler_table()
        #: Cross-retry handler scratch (partial IO accumulation).
        self.io_state: Dict[Tuple[str, int], Any] = {}
        self._pumping = False
        self._last_proc: Process = None
        self.sched = None  # set in attach
        #: Syscall name -> (handler, completion counter key), built on
        #: first use: the key labels the call ``rewritten`` when the
        #: table has a handler for it and ``passthrough`` otherwise.
        self._names: Dict[str, Tuple[Handler, Tuple[str, str, str]]] = {}
        #: The completion key of the call whose handler ran last.
        self._completion_key: Tuple[str, str, str] = None
        #: thread -> the kernel's replay test for its blocked call
        #: (SyscallTable.replay_test), taken when the call last blocked.
        #: Only wait4 and FUTEX_WAIT have one; read and write, whose
        #: handlers touch io_state, and pause and accept are executed at
        #: every probe.  Host-side only: never snapshotted, and dropped
        #: when the call completes or the thread exits.
        self._replay_tests: Dict[Thread, Callable[[], bool]] = {}

    @property
    def debug_log(self) -> list:
        """--debug N trace lines, rendered from the structured events
        (see ContainerConfig.debug and repro.obs)."""
        return self.obs.render_debug()

    def attach(self, kernel) -> None:
        super().attach(kernel)
        for key in (SYSCALL_EVENTS, REPLAYS_BLOCKING):
            self.obs.counters.setdefault(key, 0)
        self.seccomp = SeccompFilter(
            enabled=self.config.use_seccomp,
            kernel_version=kernel.host.machine.kernel_version)
        self.sched = make_scheduler(self.config.scheduler)

    def teardown(self) -> None:
        super().teardown()
        # A blocked wait4's replay test closes over the kernel.
        self._replay_tests.clear()

    # ------------------------------------------------------------------
    # instruction interception (§5.8)
    # ------------------------------------------------------------------

    def traps_instruction(self, thread: Thread, name: str) -> bool:
        machine = self.kernel.host.machine
        if name in (insn.RDTSC, insn.RDTSCP):
            return self.config.trap_rdtsc
        if name == insn.CPUID:
            return (self.config.mask_cpuid and machine.cpuid_faulting
                    and machine.kernel_version_at_least(4, 12))
        if name == insn.RDPMC:
            return True
        return False

    def on_instruction(self, thread: Thread, name: str) -> Tuple[Any, float]:
        finish = self.charge(INSTR_TRAP_COST, INTERCEPTION)
        obs = self.obs
        obs.count(("trap", name))
        # Each event is built only when its gate is open.
        if obs.trace_enabled:
            obs.record(ObsEvent(vts=thread.det_clock,
                                pid=thread.process.nspid, index=-1,
                                kind=TRAP, name=name))
        if obs.debug_level >= 2:
            obs.debug(2, ObsEvent(vts=thread.det_clock,
                                  pid=thread.process.nspid, index=-1,
                                  kind=DEBUG, name=name,
                                  detail="trap %s" % name))
        if name in (insn.RDTSC, insn.RDTSCP):
            return (self.logical.next_rdtsc(thread.process.pid), finish)
        if name == insn.CPUID:
            return (CANONICAL_CPUID, finish)
        if name == insn.RDPMC:
            return (0, finish)
        raise AssertionError("trapped un-trappable instruction %r" % name)

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def on_process_spawn(self, proc: Process) -> None:
        self.sched.add(proc.main_thread)

    def on_thread_spawn(self, thread: Thread) -> None:
        self.sched.add(thread)

    def on_thread_exit(self, thread: Thread) -> None:
        self.sched.remove(thread)
        self._replay_tests.pop(thread, None)

    def on_process_exit(self, proc: Process) -> None:
        for thread in proc.threads:
            self.sched.remove(thread)
            self._replay_tests.pop(thread, None)
        self.logical.forget_process(proc.pid)

    def on_execve(self, proc: Process) -> None:
        """Rewrite the fresh image's vDSO and allocate the scratch page
        (§5.3, §5.10)."""
        if self.config.patch_vdso:
            proc.vdso_patched = True
            self.obs.count(("tracer", "vdso_patches"))
            self.charge(EXECVE_TRACER_COST, HANDLER)
            self.poke_memory(8)

    def on_busy_wait(self, thread: Thread) -> None:
        # Namespace pid and thread ordinal: no host id in the error.
        raise BusyWaitError(thread.process.nspid, self.kernel.det_tid(thread))

    def resolve(self, thread: Thread, path: str) -> Optional[Inode]:
        """Resolve *path* in *thread*'s namespace; None if absent."""
        proc = thread.process
        try:
            return self.kernel.fs.resolve(proc.root, proc.cwd, path)
        except Exception:
            return None

    # ------------------------------------------------------------------
    # the scheduling pump (§5.6)
    # ------------------------------------------------------------------

    def on_trace_stop(self, thread: Thread) -> None:
        self.obs.counters[SYSCALL_EVENTS] += 1
        self.sched.notify_stop(thread)
        self._pump()

    def on_thread_progress(self, thread: Thread) -> None:
        # A running thread raised its deterministic bound; a stopped
        # candidate may have become eligible.
        self.sched.notify_bound(thread)
        self._pump()

    def on_token_granted(self, thread: Thread) -> None:
        # The thread re-enters the running set *now*; incremental
        # schedulers must see its bound again before the next decision
        # (its next stop/progress hook may come only after unintercepted
        # work has already advanced the clock).
        self.sched.notify_running(thread)

    def on_quiescent(self) -> bool:
        return self._pump()

    def _pump(self) -> bool:
        """Service/probe stopped threads in the deterministic order."""
        if self._pumping:
            return False
        self._pumping = True
        progress = False
        # Threads whose probe failed since the last completion; made only
        # once one fails.
        failed = None
        next_action = self.sched.next_action
        try:
            while True:
                action, thread = next_action()
                if action == WAIT or (failed is not None and thread in failed):
                    break
                if action == SERVICE:
                    ok = self._service(thread)
                else:
                    ok = self._probe(thread)
                if ok:
                    progress = True
                    failed = None
                elif failed is None:
                    failed = {thread}
                else:
                    failed.add(thread)
        finally:
            self._pumping = False
        return progress

    # ------------------------------------------------------------------
    # servicing one syscall
    # ------------------------------------------------------------------

    def _run_handler(self, thread: Thread):
        call = thread.current_syscall
        record = self._names.get(call.name)
        if record is None:
            handler = self.handlers.get(call.name)
            record = self._names[call.name] = (
                (passthrough, ("syscall", call.name, "passthrough"))
                if handler is None
                else (handler, ("syscall", call.name, "rewritten")))
        handler, self._completion_key = record
        return handler(self, thread, call)

    def _service(self, thread: Thread) -> bool:
        # A new span and the stop's three fixed charges (context switch,
        # seccomp stop, handler) in one pass: the additions charge()
        # makes, in its order.  After the first, busy_until is past the
        # clock, so one max() serves all three, and busy_until, the span
        # cost and the phase totals stay bit-identical.
        obs = self.obs
        totals = obs.profile.totals
        busy = max(self.kernel.clock.now, self.busy_until)
        span = 0.0
        if thread.process is not self._last_proc:
            counters = obs.counters
            counters[CONTEXT_SWITCH] = counters.get(CONTEXT_SWITCH, 0) + 1
            busy += TRACER_SCHED_COST
            span += TRACER_SCHED_COST
            totals[SCHEDULER] = totals.get(SCHEDULER, 0.0) + TRACER_SCHED_COST
            self._last_proc = thread.process
        stop = self.seccomp.stop_cost
        totals[INTERCEPTION] = totals.get(INTERCEPTION, 0.0) + stop
        totals[HANDLER] = totals.get(HANDLER, 0.0) + TRACER_HANDLER_COST
        self.busy_until = busy + stop + TRACER_HANDLER_COST
        self._span_cost = span + stop + TRACER_HANDLER_COST
        thread.obs_attempt += 1
        outcome, payload = self._run_handler(thread)
        if self.config.debug:
            self._debug_line(thread, outcome, payload)
        if outcome == "block":
            self._memoize_block(thread)
            obs.counters[REPLAYS_BLOCKING] += 1
            self.charge(TRACER_REPLAY_COST, SCHEDULER)
            if obs.trace_enabled:
                self._emit_span(thread, outcome)
            self.sched.still_blocked(thread)
            self.kernel.release_step_token(thread)
            return False
        if obs.trace_enabled:
            self._emit_span(thread, outcome)
        self._complete(thread, outcome, payload)
        return True

    def _debug_line(self, thread: Thread, outcome: str, payload) -> None:
        call = thread.current_syscall
        args = ", ".join("%s=%.40r" % kv for kv in sorted(call.args.items()))
        shown = payload
        if isinstance(shown, bytes) and len(shown) > 24:
            shown = shown[:24] + b"..."
        self.obs.debug(1, ObsEvent(
            vts=thread.det_clock, pid=thread.process.nspid,
            index=thread.current_syscall_index, kind=DEBUG, name=call.name,
            detail="%s(%s) -> %s %.60r" % (call.name, args, outcome, shown)))

    def _emit_span(self, thread: Thread, outcome: str) -> None:
        """One trace span per service/probe, keyed only on deterministic
        coordinates: det_clock, nspid, per-process index, attempt.
        Called only when the event stream is on.  Its category is how
        the instance was determinized: blocked, injected (a fault), or
        the completion key's rewritten or passthrough."""
        if outcome == "block":
            disposition = "blocked"
        elif thread.obs_faulted:
            disposition = "injected"
        else:
            disposition = self._completion_key[2]
        call = thread.current_syscall
        self.obs.span(Span(
            name=call.name, cat=disposition, pid=thread.process.nspid,
            tid=self.kernel.det_tid(thread), vts=thread.det_clock,
            dur=self._span_cost, index=thread.current_syscall_index,
            attempt=thread.obs_attempt))

    def _probe(self, thread: Thread) -> bool:
        """Re-try a blocked thread's syscall; True if it completed.

        While the kernel's replay test for the blocked call holds, the
        call is not re-executed: its would-block answer is replayed, with
        every deterministic effect of a failed probe (charge, count,
        span, debug line, scheduler verdict, token release)."""
        # A new span and charge(TRACER_REPLAY_COST, SCHEDULER) in one
        # pass, with the same additions.
        obs = self.obs
        self.busy_until = (max(self.kernel.clock.now, self.busy_until)
                           + TRACER_REPLAY_COST)
        self._span_cost = TRACER_REPLAY_COST
        totals = obs.profile.totals
        totals[SCHEDULER] = totals.get(SCHEDULER, 0.0) + TRACER_REPLAY_COST
        thread.obs_attempt += 1
        replayed = self._memo_hit(thread)
        if replayed:
            outcome, payload = "block", None
        else:
            outcome, payload = self._run_handler(thread)
        if obs.debug_level >= 2:
            self._debug_probe(thread, outcome)
        if outcome == "block":
            if not replayed:
                self._memoize_block(thread)
            obs.counters[REPLAYS_BLOCKING] += 1
            # Calls whose gate is closed are skipped: for a block,
            # _emit_span records only the span, and release_step_token
            # acts only for the token's holder.
            if obs.trace_enabled:
                self._emit_span(thread, outcome)
            self.sched.still_blocked(thread)
            if thread.process.step_token is thread:
                self.kernel.release_step_token(thread)
            return False
        self._replay_tests.pop(thread, None)
        if obs.trace_enabled:
            self._emit_span(thread, outcome)
        self._complete(thread, outcome, payload)
        return True

    def _memoize_block(self, thread: Thread) -> None:
        """Keep the kernel's replay test for the call that just blocked."""
        test = self.kernel.table.replay_test(thread, thread.current_syscall)
        if test is not None:
            self._replay_tests[thread] = test

    def _memo_hit(self, thread: Thread) -> bool:
        """True when re-executing *thread*'s blocked call must block
        again, by the test the kernel gave when it last blocked."""
        test = self._replay_tests.get(thread)
        return test is not None and test()

    def _debug_probe(self, thread: Thread, outcome: str) -> None:
        """The level-2 line for one probe, built from deterministic
        coordinates only, so a replayed probe logs what an executed one
        would."""
        call = thread.current_syscall
        index = thread.current_syscall_index
        self.obs.debug(2, ObsEvent(
            vts=thread.det_clock, pid=thread.process.nspid, index=index,
            kind=DEBUG, name=call.name,
            detail="probe %s #%d attempt %d -> %s"
            % (call.name, index, thread.obs_attempt, outcome)))

    def _complete(self, thread: Thread, outcome: str, payload) -> None:
        # Count each instance once, at its completing attempt.
        sched, obs = self.sched, self.obs
        counters = obs.counters
        key = self._completion_key
        if thread.obs_faulted:
            key = ("syscall", key[1], "injected")
            thread.obs_faulted = False
        counters[key] = counters.get(key, 0) + 1
        # Advance the scheduler's service epoch even for exits: an exit is
        # a state change that can unblock wait4 probes.
        sched.completed(thread)
        blocked = sched.blocked_count()
        # Collector.observe and gauge_max, in place; for a count,
        # _bucket(blocked) is (blocked - 1).bit_length().
        hist = obs.histograms.get("sched/blocked")
        if hist is None:
            hist = obs.histograms["sched/blocked"] = {}
        bucket = (blocked - 1).bit_length() if blocked else 0
        hist[bucket] = hist.get(bucket, 0) + 1
        gauges = obs.gauges
        if blocked > gauges.get("sched/blocked_peak", -1):
            gauges["sched/blocked_peak"] = blocked
        # live <= members, so the O(threads) live scan can only raise the
        # peak when the membership exceeds it.
        if sched.member_count > gauges.get("sched/threads_peak", -1):
            obs.gauge_max("sched/threads_peak", sched.live_count())
        if outcome != "exited":
            # Resume eagerly at the tracer's finish time so the thread's
            # next operation (and hence its deterministic bound) is
            # committed immediately; the context-switch-back latency is
            # owed as wall time on its next compute segment instead.
            # Without this, the deterministic service order would convoy
            # on wakeup latency.  (An exited thread has nothing to
            # resume: the exit hooks already removed it.)
            thread.pending_latency += TRACEE_WAKEUP_LATENCY
        self.kernel.tracer_complete(thread, outcome, payload, self.busy_until)
