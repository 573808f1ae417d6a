"""Inodes for the simulated filesystem.

An :class:`Inode` is the on-disk object; open-file state (offsets, flags)
lives in :mod:`repro.kernel.fds`.  Inode *numbers* are allocated by the
filesystem with a recycling free-list, because the paper's virtual-inode
logic (§5.5) must specifically cope with the OS recycling a real inode for
a newly-created file.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from .errors import Errno, KernelPanic
from .types import DEFAULT_DIR_MODE, DEFAULT_FILE_MODE, FileKind


@dataclasses.dataclass
class Inode:
    """One filesystem object: file, directory, device, FIFO or symlink."""

    ino: int
    kind: FileKind
    mode: int = DEFAULT_FILE_MODE
    uid: int = 0
    gid: int = 0
    nlink: int = 1
    #: Timestamps in host wall-clock seconds.  These are exactly the
    #: irreproducible metadata DetTrace virtualizes.
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    #: Content for regular files.
    data: bytearray = dataclasses.field(default_factory=bytearray)
    #: Children for directories (insertion order preserved; the *reported*
    #: getdents order is a salted hash order, see Filesystem.dirent_order).
    entries: Dict[str, "Inode"] = dataclasses.field(default_factory=dict)
    #: Target path for symlinks.
    symlink_target: str = ""
    #: Read/write hooks for character devices (wired up by devices.py).
    dev_read: Optional[Callable[[int], bytes]] = None
    dev_write: Optional[Callable[[bytes], int]] = None
    #: Backing pipe for FIFO (named pipe) inodes.
    fifo_pipe: Optional[object] = None
    #: The allocation serial this inode's number was handed out at
    #: (InodeAllocator): unique per object for the whole run, so
    #: ``(ino, generation)`` tells a recycled number's objects apart.
    generation: int = 0

    # Unannotated class attributes (NOT dataclass fields, so equality and
    # repr are unaffected):
    #
    # ``namei_epoch`` is the *global* structural-removal epoch backing
    # the Filesystem namei cache: any entry removed anywhere — unlink,
    # rmdir, rename, including direct ``remove_entry`` callers that
    # bypass the Filesystem API — bumps it, so a cached path resolution
    # is valid exactly while the epoch stands still.  Additions don't
    # bump it: only *successful* resolutions are cached, and adding an
    # entry can never change where an existing path already resolves
    # (hard links are non-directories, so even ``..`` parents only move
    # on removal/rename).  Mode/timestamp changes don't bump it because
    # resolution never consults them.
    #
    # ``_dirent_cache`` memoizes this directory's salted-hash getdents
    # order *on the inode itself* (so a recycled object can never
    # inherit a stale order); any entry mutation clears it.
    #
    # ``open_count`` counts open file *descriptions* referencing this
    # inode: POSIX keeps an unlinked inode (and its number) alive until
    # the last close, so the allocator must not recycle the number while
    # any description is live (Filesystem.inode_opened/inode_closed).
    namei_epoch = 0
    _dirent_cache = None
    open_count = 0

    @property
    def size(self) -> int:
        if self.kind is FileKind.REGULAR:
            return len(self.data)
        if self.kind is FileKind.SYMLINK:
            return len(self.symlink_target)
        return 0

    @property
    def is_dir(self) -> bool:
        return self.kind is FileKind.DIRECTORY

    @property
    def is_regular(self) -> bool:
        return self.kind is FileKind.REGULAR

    @property
    def full_mode(self) -> int:
        """Mode including the file-type bits, as stat reports it."""
        return self.kind.mode_bits | (self.mode & 0o7777)

    # -- directory operations -------------------------------------------------

    def lookup(self, name: str) -> Optional["Inode"]:
        if not self.is_dir:
            raise KernelPanic("lookup on non-directory inode %d" % self.ino)
        return self.entries.get(name)

    def add_entry(self, name: str, child: "Inode") -> None:
        if not self.is_dir:
            raise KernelPanic("add_entry on non-directory inode %d" % self.ino)
        if name in self.entries:
            raise KernelPanic("duplicate entry %r in inode %d" % (name, self.ino))
        self.entries[name] = child
        self._dirent_cache = None

    def remove_entry(self, name: str) -> "Inode":
        if name not in self.entries:
            raise KernelPanic("missing entry %r in inode %d" % (name, self.ino))
        self._dirent_cache = None
        Inode.namei_epoch += 1
        return self.entries.pop(name)


class InodeAllocator:
    """Allocates inode numbers with recycling.

    Freed numbers are reused lowest-first, mimicking ext4's per-group
    reuse behaviour closely enough that "new file gets the dead file's
    inode" happens regularly under create/unlink churn.
    """

    def __init__(self, start: int):
        self._next = start
        self._free: list = []
        #: Allocations so far: each allocation's serial is its inode's
        #: generation, so ``(ino, generation)`` names one object for the
        #: whole run even across number recycling.  The checkpoint plane
        #: keys delta records on this pair.
        self._serial = 0

    def allocate(self) -> int:
        if self._free:
            self._free.sort()
            ino = self._free.pop(0)
        else:
            ino = self._next
            self._next += 1
        self._serial += 1
        return ino

    @property
    def generation(self) -> int:
        """The generation of the number :meth:`allocate` last returned."""
        return self._serial

    def release(self, ino: int) -> None:
        self._free.append(ino)

    @property
    def outstanding_free(self) -> int:
        return len(self._free)


def new_directory(ino: int, mode: int = DEFAULT_DIR_MODE, uid: int = 0, gid: int = 0,
                  now: float = 0.0) -> Inode:
    """Create a fresh directory inode (``.``/``..`` are implicit)."""
    return Inode(ino=ino, kind=FileKind.DIRECTORY, mode=mode, uid=uid, gid=gid,
                 nlink=2, atime=now, mtime=now, ctime=now)


def new_file(ino: int, mode: int = DEFAULT_FILE_MODE, uid: int = 0, gid: int = 0,
             now: float = 0.0, data: bytes = b"") -> Inode:
    """Create a fresh regular-file inode."""
    return Inode(ino=ino, kind=FileKind.REGULAR, mode=mode, uid=uid, gid=gid,
                 atime=now, mtime=now, ctime=now, data=bytearray(data))


ERRNO_BY_KIND_MISMATCH = {
    FileKind.DIRECTORY: Errno.EISDIR,
    FileKind.REGULAR: Errno.ENOTDIR,
}
