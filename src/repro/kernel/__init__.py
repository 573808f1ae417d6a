"""The simulated Linux substrate (the unmodified box of Figure 2)."""

from .errors import (
    DeadlockError,
    Errno,
    GuestCrash,
    KernelPanic,
    SimTimeout,
    SyscallError,
)
from .kernel import Kernel
from .ops import Compute, Instr, RerunSyscall, SkipSyscall, Syscall, VdsoCall

__all__ = [
    "Compute",
    "DeadlockError",
    "Errno",
    "GuestCrash",
    "Instr",
    "Kernel",
    "KernelPanic",
    "RerunSyscall",
    "SimTimeout",
    "SkipSyscall",
    "Syscall",
    "SyscallError",
    "VdsoCall",
]
