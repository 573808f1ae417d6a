"""Error model for the simulated kernel.

The simulated syscall layer reports failures the same way Linux does: a
negative errno value.  Guest code receives these as ``SyscallError``
exceptions raised by the guest runtime helpers, while the raw syscall
dispatch layer passes errno integers around so that a tracer (DetTrace or
the record-and-replay baseline) can observe and rewrite them.
"""

from __future__ import annotations

import enum


class Errno(enum.IntEnum):
    """The subset of Linux errno values used by the simulated kernel."""

    EPERM = 1
    ENOENT = 2
    ESRCH = 3
    EINTR = 4
    EIO = 5
    EBADF = 9
    ECHILD = 10
    EAGAIN = 11
    ENOMEM = 12
    EACCES = 13
    EFAULT = 14
    EBUSY = 16
    EEXIST = 17
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    ENFILE = 23
    EMFILE = 24
    ENOTTY = 25
    ENOSPC = 28
    ESPIPE = 29
    EROFS = 30
    EPIPE = 32
    ERANGE = 34
    EDEADLK = 35
    ENOSYS = 38
    ENOTEMPTY = 39
    ELOOP = 40
    ENODATA = 61
    ETIME = 62
    ENOTSOCK = 88
    EOPNOTSUPP = 95
    EAFNOSUPPORT = 97
    EADDRINUSE = 98
    EADDRNOTAVAIL = 99
    EISCONN = 106
    ENOTCONN = 107
    ECONNREFUSED = 111
    ETIMEDOUT = 110


#: Human-readable messages, mirroring ``strerror(3)`` for the errnos above.
_MESSAGES = {
    Errno.EPERM: "Operation not permitted",
    Errno.ENOENT: "No such file or directory",
    Errno.ESRCH: "No such process",
    Errno.EINTR: "Interrupted system call",
    Errno.EIO: "Input/output error",
    Errno.EBADF: "Bad file descriptor",
    Errno.ECHILD: "No child processes",
    Errno.EAGAIN: "Resource temporarily unavailable",
    Errno.ENOMEM: "Cannot allocate memory",
    Errno.EACCES: "Permission denied",
    Errno.EFAULT: "Bad address",
    Errno.EBUSY: "Device or resource busy",
    Errno.EEXIST: "File exists",
    Errno.ENOTDIR: "Not a directory",
    Errno.EISDIR: "Is a directory",
    Errno.EINVAL: "Invalid argument",
    Errno.ENFILE: "Too many open files in system",
    Errno.EMFILE: "Too many open files",
    Errno.ENOTTY: "Inappropriate ioctl for device",
    Errno.ENOSPC: "No space left on device",
    Errno.ESPIPE: "Illegal seek",
    Errno.EROFS: "Read-only file system",
    Errno.EPIPE: "Broken pipe",
    Errno.ERANGE: "Numerical result out of range",
    Errno.EDEADLK: "Resource deadlock avoided",
    Errno.ENOSYS: "Function not implemented",
    Errno.ENOTEMPTY: "Directory not empty",
    Errno.ELOOP: "Too many levels of symbolic links",
    Errno.ENODATA: "No data available",
    Errno.ETIME: "Timer expired",
    Errno.ENOTSOCK: "Socket operation on non-socket",
    Errno.EOPNOTSUPP: "Operation not supported",
    Errno.EAFNOSUPPORT: "Address family not supported by protocol",
    Errno.EADDRINUSE: "Address already in use",
    Errno.EADDRNOTAVAIL: "Cannot assign requested address",
    Errno.EISCONN: "Transport endpoint is already connected",
    Errno.ENOTCONN: "Transport endpoint is not connected",
    Errno.ECONNREFUSED: "Connection refused",
    Errno.ETIMEDOUT: "Connection timed out",
}


def strerror(errno: int) -> str:
    """Return the message for *errno*, like ``strerror(3)``.

    Indexed by the int itself: an ``Errno`` key hashes and compares as
    its value, so no enum is built per error."""
    return _MESSAGES.get(errno) or "Unknown error %d" % errno


class SyscallError(Exception):
    """Raised into guest code when a syscall fails.

    Mirrors the libc convention of raising/returning ``-errno``; guest
    runtime helpers convert negative syscall results into this exception.
    """

    def __init__(self, errno: int, syscall: str = "", detail: str = ""):
        self.errno = int(errno)
        self.syscall = syscall
        msg = "%s: %s" % (syscall or "syscall", strerror(errno))
        if detail:
            msg += " (%s)" % detail
        super().__init__(msg)


class KernelPanic(Exception):
    """An internal invariant of the simulated kernel was violated."""


class SimTimeout(Exception):
    """The simulation exceeded its virtual-time deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        super().__init__("virtual deadline %gs exceeded" % deadline)


class DeadlockError(Exception):
    """No runnable work remains but live threads exist."""


class GuestCrash(Exception):
    """A guest process performed an unrecoverable illegal action.

    Corresponds to a fatal signal (SIGSEGV/SIGILL/...) terminating the
    process.  The DES loop converts this into a process exit with the
    conventional ``128 + signum`` status rather than unwinding the world.
    """

    def __init__(self, signum: int, reason: str = ""):
        self.signum = signum
        self.reason = reason
        super().__init__("fatal signal %d%s" % (signum, (": " + reason) if reason else ""))
