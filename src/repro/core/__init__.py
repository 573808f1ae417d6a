"""DetTrace: the reproducible container abstraction (paper §5)."""

from .config import (
    CANONICAL_ENV,
    CacheConfig,
    CheckpointConfig,
    ContainerConfig,
    ablated,
    full_config,
)
from .container import (
    CRASHED,
    DEADLOCK,
    OK,
    RESUMED,
    RETRIED,
    TIMEOUT,
    UNSUPPORTED,
    ContainerResult,
    DetTrace,
    NativeRunner,
)
from .errors import (
    BusyWaitError,
    ContainerError,
    ContainerTimeout,
    UnsupportedSyscallError,
)
from .image import Image
from .inode_table import InodeTable
from .logical_time import DETTRACE_EPOCH, LogicalClock
from .prng import Lfsr
from .scheduler import ReproducibleScheduler
from .tracer import DetTraceTracer

__all__ = [
    "BusyWaitError",
    "CANONICAL_ENV",
    "CRASHED",
    "CacheConfig",
    "CheckpointConfig",
    "RESUMED",
    "RETRIED",
    "ContainerConfig",
    "ContainerError",
    "ContainerResult",
    "ContainerTimeout",
    "DEADLOCK",
    "DETTRACE_EPOCH",
    "DetTrace",
    "DetTraceTracer",
    "Image",
    "InodeTable",
    "Lfsr",
    "LogicalClock",
    "NativeRunner",
    "OK",
    "ReproducibleScheduler",
    "TIMEOUT",
    "UNSUPPORTED",
    "UnsupportedSyscallError",
    "ablated",
    "full_config",
]
