"""Machine identity masking (paper §3, §5.8).

The container always reports a simple canonical machine — Linux 4.0 on a
single-core x86-64 — which widens the equivalence class of hosts that
must observe identical results (portability).
"""

from __future__ import annotations

from ...kernel.types import StatfsResult, SysInfo, TimesResult, UtsName
from . import Outcome, passthrough

CANONICAL_UTSNAME = UtsName(
    sysname="Linux",
    nodename="dettrace",
    release="4.0.0",
    version="#1 SMP DetTrace",
    machine="x86_64",
)

CANONICAL_RAM = 4 << 30
CANONICAL_NPROCS = 1


def handle_uname(tracer, thread, call) -> Outcome:
    if not tracer.config.mask_machine:
        return passthrough(tracer, thread, call)
    tracer.poke_memory(5)
    return ("value", CANONICAL_UTSNAME)


def handle_sysinfo(tracer, thread, call) -> Outcome:
    if not tracer.config.mask_machine:
        return passthrough(tracer, thread, call)
    tracer.poke_memory(3)
    return ("value", SysInfo(uptime=1000.0, total_ram=CANONICAL_RAM,
                             nprocs=CANONICAL_NPROCS))


def handle_times(tracer, thread, call) -> Outcome:
    """CPU accounting becomes a logical function of work requested (the
    same trick as rdtsc: a linear counter, §5.8)."""
    if not tracer.config.virtualize_time:
        return passthrough(tracer, thread, call)
    ticks = tracer.logical.time_calls(thread.process.pid) + 1
    tracer.logical.next_time(thread.process.pid)
    tracer.poke_memory(2)
    return ("value", TimesResult(utime=float(ticks), stime=0.0,
                                 cutime=0.0, cstime=0.0))


CANONICAL_STATFS = StatfsResult(f_type=0xEF53, f_bsize=4096,
                                f_blocks=1 << 20, f_bfree=1 << 19,
                                f_files=1 << 16, f_ffree=1 << 15)


def handle_statfs(tracer, thread, call) -> Outcome:
    """Free-space counters are pure host state: report canonical ones
    (quasi-determinism covers real exhaustion, §3)."""
    if not tracer.config.mask_machine:
        return passthrough(tracer, thread, call)
    outcome = tracer.kernel.execute(thread, call)   # still validate the path
    if outcome[0] == "error":
        return outcome
    tracer.poke_memory(3)
    return ("value", CANONICAL_STATFS)


def handle_affinity(tracer, thread, call) -> Outcome:
    """A single canonical core, like sysinfo/cpuid (§5.8)."""
    if not tracer.config.mask_machine:
        return passthrough(tracer, thread, call)
    return ("value", [0])


HANDLERS = {
    "uname": handle_uname,
    "sysinfo": handle_sysinfo,
    "times": handle_times,
    "statfs": handle_statfs,
    "sched_getaffinity": handle_affinity,
}
