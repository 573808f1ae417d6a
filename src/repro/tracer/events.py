"""The paper's Table 2, as a view over a run's counters.

A tracer counts its own events into ``Collector.counters`` as
``("tracer", <field>)``, named after the :class:`TraceCounters` field
they fill.  The other fields read events another layer already counts,
once, in its own namespace: process spawns (``process/spawn``), context
switches (``sched/context_switch``), instruction traps (``trap/<insn>``)
and fault injections (``fault/<kind>``).  :meth:`TraceCounters.of`
reads them all back from the flattened names of ``Metrics.counters``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

#: Counted on every stop or failed probe, so the DetTrace tracer
#: registers them at zero on attach and increments them in place.  A
#: registered SYSCALL_EVENTS marks a traced run.
SYSCALL_EVENTS = ("tracer", "syscall_events")
REPLAYS_BLOCKING = ("tracer", "replays_blocking")
#: Counted at each PTRACE_PEEKDATA and POKEDATA (TracerBase).
MEMORY_READS = ("tracer", "memory_reads")
MEMORY_WRITES = ("tracer", "memory_writes")


@dataclasses.dataclass(frozen=True)
class TraceCounters:
    """Per-run event counts, named after Table 2's rows."""

    syscall_events: int = 0
    memory_reads: int = 0
    rdtsc_intercepted: int = 0
    sched_requests: int = 0
    replays_blocking: int = 0
    process_spawns: int = 0
    read_retries: int = 0
    urandom_opens: int = 0
    write_retries: int = 0
    #: Extra (not in Table 2 but useful): instruction traps, vDSO patches.
    cpuid_intercepted: int = 0
    vdso_patches: int = 0
    getdents_sorted: int = 0
    memory_writes: int = 0
    #: Deterministic fault plane (repro.faults): total injections.
    faults_injected: int = 0
    #: Deterministic in-container sockets (repro.kernel.sockets):
    #: completed connects and accepts serviced under the tracer.
    socket_connects: int = 0
    socket_accepts: int = 0

    @classmethod
    def of(cls, counters: Dict[str, int]) -> Optional["TraceCounters"]:
        """The view of flattened counters (``Metrics.counters``, one
        run's or a sum of runs'); None when no tracer ran."""
        if "tracer/syscall_events" not in counters:
            return None
        get = counters.get
        return cls(
            rdtsc_intercepted=get("trap/rdtsc", 0) + get("trap/rdtscp", 0),
            cpuid_intercepted=get("trap/cpuid", 0),
            sched_requests=get("sched/context_switch", 0),
            process_spawns=get("process/spawn", 0),
            faults_injected=sum(n for name, n in counters.items()
                                if name.startswith("fault/")),
            **{name[len("tracer/"):]: n for name, n in counters.items()
               if name.startswith("tracer/")})

    def as_table2_rows(self):
        """(label, value) pairs in the paper's Table 2 order."""
        return [
            ("System call events", self.syscall_events),
            ("User process memory reads", self.memory_reads),
            ("rdtsc intercepted", self.rdtsc_intercepted),
            ("Requests for scheduling next process", self.sched_requests),
            ("Replays due to blocking system call", self.replays_blocking),
            ("Process spawn events", self.process_spawns),
            ("read retries", self.read_retries),
            ("/dev/urandom opens", self.urandom_opens),
            ("write retries", self.write_retries),
            ("Socket connects (in-container)", self.socket_connects),
            ("Socket accepts (in-container)", self.socket_accepts),
        ]
