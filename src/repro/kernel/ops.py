"""Operations guest programs yield to the simulated kernel.

A guest program is a Python generator.  Each ``yield`` hands the kernel an
operation; the value the kernel sends back is the operation's result.  The
four operation kinds map onto the two interfaces the paper analyzes (§4):
the Linux syscall API (:class:`Syscall`, :class:`VdsoCall`) and the x86-64
ISA (:class:`Instr`, :class:`Compute`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional


@dataclasses.dataclass
class Compute:
    """Burn CPU: *work* seconds at the reference 2.2 GHz machine.

    Actual duration scales with the machine's clock rate and carries a
    small host-specific jitter, so racing threads interleave differently
    across runs — the scheduler-nondeterminism arrow of Figure 1.
    """

    work: float


@dataclasses.dataclass
class Syscall:
    """A system call request: always visible to a ptrace tracer."""

    name: str
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def replaced(self, name: Optional[str] = None, **arg_updates) -> "Syscall":
        """A copy with the given name/argument rewrites (tracer use)."""
        new_args = dict(self.args)
        new_args.update(arg_updates)
        return Syscall(name if name is not None else self.name, new_args)


@dataclasses.dataclass
class Instr:
    """A raw CPU instruction (rdtsc, rdrand, cpuid, xbegin, ...).

    Invisible to ptrace; only trappable where the hardware allows (§5.8).
    """

    name: str


@dataclasses.dataclass
class VdsoCall:
    """A timing call through the vDSO fast path (§5.3).

    Implemented as a library call, so ptrace does *not* see it unless the
    tracer has replaced the process's vDSO — which is precisely what
    DetTrace does after each execve.
    """

    name: str
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class VvarRead:
    """A direct load from the vvar page — the raw nondeterministic data
    vDSO timing calls use.  Natively it returns clock bits without any
    syscall; DetTrace makes the page unreadable, so the access faults
    (reproducibly) instead of leaking time (§5.3).
    """
