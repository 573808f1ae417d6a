"""Simulated x86-64 CPU: machine specs and irreproducible instructions."""

from .instructions import (
    ALL_INSTRUCTIONS,
    CPUID,
    RDPMC,
    RDRAND,
    RDSEED,
    RDTSC,
    RDTSCP,
    TSX_STARTED,
    XBEGIN,
    XEND,
    Cpu,
    trappable,
)
from .machine import (
    ALL_MACHINES,
    BROADWELL_XEON,
    HASWELL_XEON,
    OLD_KERNEL_SKYLAKE,
    SANDY_BRIDGE,
    SKYLAKE_CLOUDLAB,
    HostEnvironment,
    MachineSpec,
)

__all__ = [
    "ALL_INSTRUCTIONS",
    "ALL_MACHINES",
    "BROADWELL_XEON",
    "CPUID",
    "Cpu",
    "HASWELL_XEON",
    "HostEnvironment",
    "MachineSpec",
    "OLD_KERNEL_SKYLAKE",
    "RDPMC",
    "RDRAND",
    "RDSEED",
    "RDTSC",
    "RDTSCP",
    "SANDY_BRIDGE",
    "SKYLAKE_CLOUDLAB",
    "TSX_STARTED",
    "XBEGIN",
    "XEND",
    "trappable",
]
