"""The ptrace analog: base class for tracers over the simulated kernel.

The kernel delivers stops by calling the ``on_*`` hooks; a tracer services
a stop by running the syscall through ``Kernel.execute`` (or not at all)
and handing the outcome it settles on to ``Kernel.tracer_complete``.
Like the real ptrace tracer, this object is a *single-threaded process*:
every event it services occupies its serial timeline, which is what makes
interception overhead proportional to event rate.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..kernel.costs import TRACER_MEMORY_OP_COST
from ..kernel.process import Process, Thread
from ..obs.collector import Collector
from ..obs.profiler import INTERCEPTION
from .events import MEMORY_READS, MEMORY_WRITES
from .seccomp import SeccompFilter


class TracerBase:
    """Common machinery for DetTrace and the record-and-replay baseline."""

    def __init__(self, seccomp: Optional[SeccompFilter] = None):
        self.kernel = None
        self.seccomp = seccomp or SeccompFilter(enabled=False)
        #: Serial tracer timeline: we are busy until this virtual time.
        self.busy_until = 0.0
        #: Observability collector; replaced by the kernel's on attach.
        self.obs = Collector()
        #: Deterministic cost accrued since the current span began (sums
        #: only fixed cost constants, so it is jitter-free).
        self._span_cost = 0.0

    # -- lifecycle ---------------------------------------------------------

    def attach(self, kernel) -> None:
        self.kernel = kernel
        kernel.attach_tracer(self)
        self.obs = kernel.obs

    def teardown(self) -> None:
        """Drop what refers back into the kernel once its run is over
        (``Kernel.teardown``); the tracer is unusable afterwards."""
        self.kernel = None

    # -- serial timeline -----------------------------------------------------

    def charge(self, cost: float, phase: Optional[str] = None) -> float:
        """Occupy the tracer for *cost* seconds; returns the finish time.

        *phase* attributes the cost in the virtual-time profiler
        (interception/handler/scheduler/fs — repro.obs.profiler).
        """
        start = max(self.kernel.clock.now, self.busy_until)
        self.busy_until = start + cost
        self._span_cost += cost
        if phase is not None:
            # PhaseProfile.charge, inlined: this runs several times per stop.
            totals = self.obs.profile.totals
            totals[phase] = totals.get(phase, 0.0) + cost
        return self.busy_until

    def peek_memory(self, words: int = 1) -> float:
        """Read *words* of tracee memory (PTRACE_PEEKDATA): counted and
        charged to the timeline; returns the finish time."""
        counters = self.obs.counters
        counters[MEMORY_READS] = counters.get(MEMORY_READS, 0) + words
        return self.charge(words * TRACER_MEMORY_OP_COST, INTERCEPTION)

    def poke_memory(self, words: int = 1) -> float:
        """Write *words* of tracee memory (PTRACE_POKEDATA), likewise."""
        counters = self.obs.counters
        counters[MEMORY_WRITES] = counters.get(MEMORY_WRITES, 0) + words
        return self.charge(words * TRACER_MEMORY_OP_COST, INTERCEPTION)

    # -- kernel-facing hooks (defaults) -----------------------------------------

    def intercepts(self, name: str) -> bool:
        """Whether syscall *name* stops the tracee: asked once per name
        (the kernel keeps the verdict in its per-name record)."""
        return self.seccomp.intercepts(name)

    def traps_instruction(self, thread: Thread, name: str) -> bool:
        return False

    def on_instruction(self, thread: Thread, name: str) -> Tuple[Any, float]:
        raise NotImplementedError

    def on_trace_stop(self, thread: Thread) -> None:
        raise NotImplementedError

    def on_process_spawn(self, proc: Process) -> None:
        pass

    def on_thread_spawn(self, thread: Thread) -> None:
        pass

    def on_thread_exit(self, thread: Thread) -> None:
        pass

    def on_thread_progress(self, thread: Thread) -> None:
        """A running thread committed to more compute (its deterministic
        lower bound rose); schedulers that gate on bounds re-evaluate."""
        pass

    def on_token_granted(self, thread: Thread) -> None:
        """The thread-serialization step token passed to *thread*: it is
        about to run again after queueing (§5.7).  Schedulers that keep
        an incremental index of the running set re-admit it here."""
        pass

    def on_process_exit(self, proc: Process) -> None:
        pass

    def on_execve(self, proc: Process) -> None:
        pass

    def on_busy_wait(self, thread: Thread) -> None:
        """Called when a thread exceeds the busy-wait compute budget."""
        raise NotImplementedError

    def on_quiescent(self) -> bool:
        """The kernel ran out of events; return True if we made progress."""
        return False
