"""Container-level errors (all reproducible: paper §4, §5.9)."""

from __future__ import annotations


class ContainerError(Exception):
    """Base for reproducible DetTrace container errors."""


class UnsupportedSyscallError(ContainerError):
    """The program used an operation DetTrace does not support (§5.9)."""

    def __init__(self, syscall: str, reason: str = ""):
        self.syscall = syscall
        self.reason = reason
        msg = "unsupported operation: %s" % syscall
        if reason:
            msg += " (%s)" % reason
        super().__init__(msg)


class BusyWaitError(ContainerError):
    """A thread busy-waited past the scheduler's compute budget (§5.9)."""

    def __init__(self, pid: int, tid: int):
        self.pid = pid
        self.tid = tid
        super().__init__("busy-waiting detected in pid %d (tid %d)" % (pid, tid))


class ContainerTimeout(ContainerError):
    """The containerized run exceeded its virtual-time budget."""

    def __init__(self, limit: float):
        self.limit = limit
        super().__init__("container exceeded %g virtual seconds" % limit)
