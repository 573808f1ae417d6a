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
from .ops import Compute, Instr, Syscall, VdsoCall

__all__ = [
    "Compute",
    "DeadlockError",
    "Errno",
    "GuestCrash",
    "Instr",
    "Kernel",
    "KernelPanic",
    "SimTimeout",
    "Syscall",
    "SyscallError",
    "VdsoCall",
]
