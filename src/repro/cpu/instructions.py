"""The irreproducible x86-64 instructions (paper §4, §5.8).

Guest programs execute instructions by yielding :class:`~repro.kernel.ops.Instr`
operations.  The kernel asks its tracer's ``traps_instruction`` whether the
instruction traps to the tracer (the simulated analog of
``prctl(PR_SET_TSC)`` for rdtsc and of Ivy Bridge cpuid faulting) or
executes natively with the semantics implemented here; DetTrace answers
from its config and :func:`trappable`, the hardware's condition.

The instruction taxonomy from the paper:

``rdtsc``/``rdtscp``
    Cycle counter.  Trappable via prctl on any machine.
``rdrand``/``rdseed``
    Hardware entropy.  *Not* trappable from ring 0 — DetTrace instead hides
    them via cpuid masking and relies on well-behaved programs (§5.8).
``cpuid``
    Machine identification.  Trappable only with Ivy Bridge+ cpuid
    faulting and kernel >= 4.12.
``xbegin``/``xend`` (TSX)
    The one definitively *critical* family: aborts are timing-dependent
    and cannot be trapped at all (§4).
``rdpmc``
    Performance counters; configured to fault by default.
"""

from __future__ import annotations

from ..kernel.errors import GuestCrash
from ..kernel.types import SIGILL, SIGSEGV, CpuidResult
from .machine import FEATURE_RDRAND, FEATURE_RDSEED, FEATURE_TSX, HostEnvironment

#: Instruction mnemonics understood by the simulated CPU.
RDTSC = "rdtsc"
RDTSCP = "rdtscp"
RDRAND = "rdrand"
RDSEED = "rdseed"
CPUID = "cpuid"
XBEGIN = "xbegin"
XEND = "xend"
RDPMC = "rdpmc"

#: xbegin status: transaction started.
TSX_STARTED = -1

ALL_INSTRUCTIONS = (RDTSC, RDTSCP, RDRAND, RDSEED, CPUID, XBEGIN, XEND, RDPMC)

#: Instructions the hardware can be configured to trap on (and the
#: condition on the machine).  TSX and rdrand are conspicuously absent —
#: this is the paper's central "critical instruction" observation.
def trappable(name: str, machine) -> bool:
    """Can executions of *name* be made to trap to a supervisor?"""
    if name in (RDTSC, RDTSCP, RDPMC):
        return True
    if name == CPUID:
        return machine.cpuid_faulting and machine.kernel_version_at_least(4, 12)
    return False



class Cpu:
    """Native (irreproducible) semantics for the instruction set above.

    One instance exists per simulated kernel; per-call nondeterminism is
    drawn from the :class:`~repro.cpu.machine.HostEnvironment` entropy
    streams so that two boots give different answers.
    """

    def __init__(self, host: HostEnvironment):
        self.host = host
        self.machine = host.machine

    # -- timing -------------------------------------------------------------

    def rdtsc(self, elapsed_seconds: float) -> int:
        """Cycle count since boot, with per-read measurement noise."""
        base = int(elapsed_seconds * self.machine.freq_ghz * 1e9)
        noise = int(self.host.sched_jitter(scale=200.0))
        return base + noise

    # -- entropy ------------------------------------------------------------

    def rdrand(self) -> int:
        if not self.machine.has_rdrand:
            raise GuestCrash(SIGILL, "rdrand not supported on %s" % self.machine.microarch)
        return self.host.entropy_u64()

    def rdseed(self) -> int:
        if FEATURE_RDSEED not in self.machine.features:
            raise GuestCrash(SIGILL, "rdseed not supported on %s" % self.machine.microarch)
        return self.host.entropy_u64()

    # -- identification -----------------------------------------------------

    def cpuid(self) -> CpuidResult:
        m = self.machine
        return CpuidResult(
            vendor=m.cpu_vendor,
            brand=m.cpu_brand,
            family=m.cpu_family,
            model=m.cpu_model,
            cores=m.cores,
            features=list(m.features),
        )

    # -- transactional memory -------------------------------------------------

    def xbegin(self) -> int:
        """Start a transaction; nondeterministically abort.

        Returns :data:`TSX_STARTED` on success or an abort code.  Abort
        arrival (e.g. a timer interrupt landing mid-transaction) is
        modelled as a host-entropy coin flip — exactly the
        irreproducibility the paper proves cannot be masked.
        """
        if not self.machine.has_tsx:
            raise GuestCrash(SIGILL, "TSX not supported on %s" % self.machine.microarch)
        aborted = self.host.entropy_u64() % 4 == 0  # ~25% spurious abort rate
        return 1 if aborted else TSX_STARTED

    def xend(self) -> int:
        if not self.machine.has_tsx:
            raise GuestCrash(SIGILL, "TSX not supported on %s" % self.machine.microarch)
        return 0

    # -- performance counters --------------------------------------------------

    def rdpmc(self, elapsed_seconds: float) -> int:
        """Read a performance counter; noisy function of elapsed cycles."""
        return self.rdtsc(elapsed_seconds) // 2 + int(self.host.sched_jitter(scale=1e4))

    # -- dispatch ----------------------------------------------------------------

    def execute(self, name: str, elapsed_seconds: float) -> object:
        """Execute instruction *name* natively and return its result."""
        if name in (RDTSC, RDTSCP):
            return self.rdtsc(elapsed_seconds)
        if name == RDRAND:
            return self.rdrand()
        if name == RDSEED:
            return self.rdseed()
        if name == CPUID:
            return self.cpuid()
        if name == XBEGIN:
            return self.xbegin()
        if name == XEND:
            return self.xend()
        if name == RDPMC:
            return self.rdpmc(elapsed_seconds)
        raise GuestCrash(SIGSEGV, "illegal instruction %r" % name)
