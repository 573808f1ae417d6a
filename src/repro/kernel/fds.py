"""File descriptors and per-process descriptor tables."""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Dict, List, Optional

from .errors import Errno, SyscallError
from .inode import Inode
from .pipes import Pipe
from .types import Dirent


class FdKind(enum.Enum):
    FILE = "file"
    DIRECTORY = "directory"
    DEVICE = "device"
    #: A pipe or FIFO end.  A read end holds only ``pipe``, a write end
    #: only ``peer_pipe``, and a FIFO opened ``O_RDWR`` both.
    PIPE = "pipe"
    #: A stream socket (repro.kernel.sockets): unbound, listening, or
    #: connected, when ``pipe`` and ``peer_pipe`` carry its two
    #: directions.  A socketpair end is a connected AF_UNIX socket.
    SOCKET = "socket"


@dataclasses.dataclass(eq=False)
class OpenFile:
    """An open file description (shared across dup'd descriptors).

    Every stream description — a ``PIPE`` or a ``SOCKET`` — has one
    model: ``pipe`` is its receive direction and ``peer_pipe`` its send
    direction, either None when the description cannot move bytes that
    way.  Reads, writes and the last close act on those two fields
    alone, so sockets add no second data path.

    ``path`` records the absolute container path the description was
    opened with; DetTrace's inode virtualization reads it back the way the
    real system reads ``/proc/self/fd`` (paper §5.5).  A description is
    an identity, not a value: two opens of one file are two descriptions
    however alike their fields, so equality and hashing are by object.
    """

    kind: FdKind
    flags: int = 0
    offset: int = 0
    path: str = ""
    inode: Optional[Inode] = None
    #: The receive direction of a stream description.
    pipe: Optional[Pipe] = None
    refcount: int = 1

    #: The send direction of a stream description.
    peer_pipe: Optional[Pipe] = None

    #: True when this description was counted in its inode's
    #: ``open_count`` (set by sys_open); the last close must then report
    #: back to the filesystem so unlinked-but-open inode numbers are
    #: recycled only after the final descriptor goes away.
    counts_inode: bool = False

    # -- SOCKET state (repro.kernel.sockets) ---------------------------
    #: Local address ("127.0.0.1:32768" or an AF_UNIX path; "" unbound).
    sock_local: str = ""
    #: Peer address once connected.
    sock_peer: str = ""
    #: Address family (sockets.AF_UNIX / AF_INET) of a SOCKET.
    sock_family: int = 0
    #: True when this description claimed its address via bind (close
    #: must release it back to the registry).
    sock_bound: bool = False
    #: The registry Listener this description owns (listening sockets).
    listener: Optional[object] = None
    #: shutdown(2) state: directions already torn down (close must not
    #: double-close the underlying pipe ends).
    shut_rd: bool = False
    shut_wr: bool = False
    #: The fake external network peer a SOCKET description connected to
    #: a host outside the container talks to (set only by connect).
    socket: Optional[object] = None

    # -- DIRECTORY listing served by DetTrace (core.handlers) ----------
    #: The sorted entries of the tracer's drain of this description's
    #: kernel cursor (None until the first getdents), and how many of
    #: them the guest has been served.  The drain leaves the kernel
    #: cursor at the end, so a snapshot must carry both.
    dirents: Optional[List[Dirent]] = None
    dirents_pos: int = 0

    @property
    def is_pipe(self) -> bool:
        """A stream description: a pipe or FIFO end, or a socket."""
        return self.kind is FdKind.PIPE or self.kind is FdKind.SOCKET


class FDTable:
    """Per-process mapping of descriptor numbers to open file descriptions."""

    MAX_FDS = 1024

    def __init__(self):
        self._fds: Dict[int, OpenFile] = {}

    def lowest_free(self, minimum: int = 0) -> int:
        fd = minimum
        while fd in self._fds:
            fd += 1
        if fd >= self.MAX_FDS:
            raise SyscallError(Errno.EMFILE, "open")
        return fd

    def install(self, of: OpenFile, minimum: int = 0) -> int:
        fd = self.lowest_free(minimum)
        self._fds[fd] = of
        return fd

    def install_at(self, fd: int, of: OpenFile) -> None:
        self._fds[fd] = of

    def get(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise SyscallError(Errno.EBADF, "fd %d" % fd) from None

    def remove(self, fd: int) -> OpenFile:
        try:
            return self._fds.pop(fd)
        except KeyError:
            raise SyscallError(Errno.EBADF, "fd %d" % fd) from None

    def has(self, fd: int) -> bool:
        return fd in self._fds

    def dup(self, fd: int, minimum: int = 0) -> int:
        of = self.get(fd)
        of.refcount += 1
        return self.install(of, minimum)

    def dup2(self, oldfd: int, newfd: int,
             dropper: Optional[Callable[[OpenFile], None]] = None) -> int:
        """dup2(2): *newfd* becomes another name for *oldfd*'s description.

        A displaced *newfd* is implicitly closed.  That close must be a
        *full* close when it was the description's last reference —
        pipe reader/writer teardown, deferred inode-number release — so
        callers pass the kernel's drop hook as *dropper*.  A bare
        refcount decrement (the pre-fix behaviour, kept as the fallback
        for hookless unit-test tables) leaks reader/writer counts and
        EOF/EPIPE are never delivered on the other end.
        """
        of = self.get(oldfd)
        if oldfd == newfd:
            return newfd
        existing = self._fds.pop(newfd, None)
        of.refcount += 1
        self._fds[newfd] = of
        if existing is not None:
            if dropper is not None:
                dropper(existing)
            else:
                existing.refcount -= 1
        return newfd

    def items(self):
        return list(self._fds.items())

    def fork_copy(self) -> "FDTable":
        """Duplicate the table for a forked child (descriptions shared)."""
        table = FDTable()
        for fd, of in self._fds.items():
            of.refcount += 1
            table._fds[fd] = of
        return table

    def __len__(self) -> int:
        return len(self._fds)
