"""The simulated VFS: path resolution, namei operations, chroot.

Irreproducibility sources modelled here (paper §5.5):

* **inode numbers** — allocated from a per-boot offset, recycled on
  unlink, so they differ across runs and machines;
* **directory entry order** — ``getdents`` returns entries in a
  salted-hash order (the "filesystem implementation" order), which
  differs per boot;
* **timestamps** — every namei operation stamps real wall-clock times;
* **directory sizes** — reported via the machine-specific model
  (:meth:`repro.cpu.machine.MachineSpec.directory_size`), which is the
  §7.3 portability hazard;
* **disk exhaustion** — optional ENOSPC injection for quasi-determinism
  experiments.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from ..cpu.machine import HostEnvironment
from .errors import Errno, SyscallError
from .inode import Inode, InodeAllocator, new_directory, new_file
from .types import DEFAULT_DIR_MODE, DEFAULT_FILE_MODE, Dirent, FileKind, StatResult

MAX_SYMLINK_DEPTH = 8


def split_path(path: str) -> List[str]:
    """Split a path into components, dropping empty ones and ``.``."""
    return [c for c in path.split("/") if c and c != "."]


def normalize(path: str) -> str:
    """Normalize an absolute path string (resolve ``.`` and ``..`` lexically)."""
    parts: List[str] = []
    for comp in split_path(path):
        if comp == "..":
            if parts:
                parts.pop()
        else:
            parts.append(comp)
    return "/" + "/".join(parts)


class Filesystem:
    """A single-mount in-memory filesystem tree."""

    def __init__(self, host: HostEnvironment):
        self.host = host
        self._alloc = InodeAllocator(host.inode_start)
        #: Dirty tracking for incremental checkpoints (repro.ckpt):
        #: every mutation registers the touched inode here, keyed by
        #: ``(ino, generation)``, until the next ``clear_dirty()``.
        #: Purely observational — nothing below ever reads these.
        self._dirty: Dict[Tuple[int, int], Inode] = {}
        self._dead: List[Tuple[int, int]] = []
        #: Live FIFO inodes by pipe identity, so the snapshot layer can
        #: find FIFO-backing pipes without walking the whole tree.
        self._fifo_nodes: Dict[int, Inode] = {}
        #: Host-only version stamp of the checkpoint plane's ``fs_meta``
        #: section (repro.ckpt.snapshot.section_stamps): bumped by every
        #: inode-number allocation and release.
        self.meta_version = 0
        self.root = new_directory(self._alloc.allocate(), now=host.boot_epoch)
        self.register_new_inode(self.root)
        #: A constant of every filesystem, so snapshots leave it out.
        self.device_id = 0x801
        self._bytes_written = 0
        #: Deterministic fault plane consult point (repro.faults):
        #: disk_full rules cap cumulative bytes written.
        self.fault_injector = None
        #: Hot-path caches (dentry/namei + getdents order).  Both are
        #: pure memoization over the directory structure — resolution
        #: never consults modes or timestamps, and the salted-hash order
        #: depends only on the entry names — so enabling them cannot
        #: change any result (``ContainerConfig.fs_caches`` toggles them
        #: for the identity tests).
        self.cache_enabled = True
        self._namei_cache: Dict[Tuple[int, int, str, bool], Inode] = {}
        self._namei_epoch_seen = Inode.namei_epoch
        self.resolve_hits = 0
        self.resolve_misses = 0
        self.dirent_hits = 0
        self.dirent_misses = 0

    # -- allocation ---------------------------------------------------------

    def _new_ino(self) -> int:
        self.meta_version += 1
        return self._alloc.allocate()

    # -- dirty tracking (incremental checkpoints) ---------------------------
    #
    # The snapshot layer names every inode ``(ino, generation)`` — stable
    # across number recycling — and only re-serializes the dirty set at a
    # barrier.  ``note`` is called by every mutator below and by the
    # syscall layer for direct inode mutations (truncate, chmod, atime).

    def key_of(self, node: Inode) -> Tuple[int, int]:
        """The ``(ino, generation)`` identity of *node*."""
        return (node.ino, node.generation)

    def register_new_inode(self, node: Inode) -> None:
        """Stamp a freshly-allocated inode's generation and mark it dirty.

        Every creation site must route here (or through the create_*
        helpers, which do) right after allocating the node's number, so
        the ``(ino, generation)`` key is live before the object can
        appear in a snapshot.
        """
        node.generation = self._alloc.generation
        if node.kind is FileKind.FIFO and node.fifo_pipe is not None:
            self._fifo_nodes[id(node.fifo_pipe)] = node
        self.note(node)

    def note(self, node: Inode) -> None:
        """Register *node* as mutated since the last ``clear_dirty()``."""
        self._dirty[(node.ino, node.generation)] = node

    def dirty_nodes(self) -> Dict[Tuple[int, int], Inode]:
        """Inodes mutated since the last ``clear_dirty()``."""
        return self._dirty

    def dead_keys(self) -> List[Tuple[int, int]]:
        """Keys of inodes fully released since the last ``clear_dirty()``."""
        return self._dead

    def fifo_inodes(self) -> List[Inode]:
        """All live FIFO inodes (for pipe discovery at capture)."""
        return list(self._fifo_nodes.values())

    def clear_dirty(self) -> None:
        """Start a new dirty set after a successful snapshot."""
        self._dirty = {}
        self._dead = []

    def reset_dirty_state(self, nodes: Iterable[Inode]) -> None:
        """Re-arm dirty tracking after a restore rebuilds the tree.

        The restored run's first snapshot is always a full capture, so
        the dirty set starts empty; only the FIFO registry (pipe
        discovery for capture) needs rebuilding from *nodes*.
        """
        self._dirty = {}
        self._dead = []
        self._fifo_nodes = {}
        for node in nodes:
            if node.kind is FileKind.FIFO and node.fifo_pipe is not None:
                self._fifo_nodes[id(node.fifo_pipe)] = node

    def charge_disk(self, nbytes: int) -> None:
        """Account *nbytes* of new data; the fault plane's ``disk_full``
        rule raises ENOSPC past its cap."""
        if nbytes > 0:
            self._bytes_written += nbytes
        if self.fault_injector is not None:
            self.fault_injector.disk_charge(self._bytes_written)

    # -- path resolution ------------------------------------------------------

    def resolve(self, root: Inode, cwd: Inode, path: str, follow_last: bool = True,
                _depth: int = 0) -> Inode:
        """Resolve *path* to an inode, honouring chroot *root* and *cwd*.

        Raises :class:`SyscallError` with ENOENT/ENOTDIR/ELOOP on failure.

        Successful resolutions are memoized in a dentry cache keyed on
        (root, cwd, path, follow_last) identities.  The whole cache is
        dropped whenever the global removal epoch moves (any entry
        removed anywhere — unlink, rmdir, rename): removals are rare
        next to lookups, additions can never invalidate a cached
        *positive* resolution (failures are never cached, so new entries
        only ever turn misses into hits), and a global epoch makes
        id-reuse safe — an inode can only die via an epoch-bumping
        removal, so no stale id ever survives in the cache.
        Symlink-chase recursion bypasses the cache so ELOOP accounting
        is untouched.
        """
        if self.cache_enabled and _depth == 0:
            epoch = Inode.namei_epoch
            if epoch != self._namei_epoch_seen:
                self._namei_cache.clear()
                self._namei_epoch_seen = epoch
            key = (id(root), id(cwd), path, follow_last)
            node = self._namei_cache.get(key)
            if node is not None:
                self.resolve_hits += 1
                return node
            self.resolve_misses += 1
            node = self._resolve_walk(root, cwd, path, follow_last, 0)
            self._namei_cache[key] = node
            return node
        return self._resolve_walk(root, cwd, path, follow_last, _depth)

    def _resolve_walk(self, root: Inode, cwd: Inode, path: str,
                      follow_last: bool, _depth: int) -> Inode:
        if _depth > MAX_SYMLINK_DEPTH:
            raise SyscallError(Errno.ELOOP, "resolve", path)
        node = root if path.startswith("/") else cwd
        comps = split_path(path)
        for i, comp in enumerate(comps):
            if not node.is_dir:
                raise SyscallError(Errno.ENOTDIR, "resolve", path)
            if comp == "..":
                node = self._parent_of(root, node) or node
                continue
            child = node.lookup(comp)
            if child is None:
                raise SyscallError(Errno.ENOENT, "resolve", path)
            is_last = i == len(comps) - 1
            if child.kind is FileKind.SYMLINK and (follow_last or not is_last):
                target = child.symlink_target
                rest = "/".join(comps[i + 1:])
                newpath = target + ("/" + rest if rest else "")
                base = node if not target.startswith("/") else root
                return self.resolve(root, base, newpath, follow_last, _depth + 1)
            node = child
        return node

    def _parent_of(self, root: Inode, node: Inode) -> Optional[Inode]:
        """Find *node*'s parent by walking from *root* (small trees only)."""
        if node is root:
            return root
        stack = [root]
        while stack:
            cur = stack.pop()
            if not cur.is_dir:
                continue
            for child in cur.entries.values():
                if child is node:
                    return cur
                if child.is_dir:
                    stack.append(child)
        return None

    def resolve_parent(self, root: Inode, cwd: Inode, path: str) -> Tuple[Inode, str]:
        """Resolve the parent directory of *path*; return (parent, basename)."""
        comps = split_path(path)
        if not comps:
            raise SyscallError(Errno.EINVAL, "resolve_parent", path)
        name = comps[-1]
        parent_path = "/".join(comps[:-1])
        if path.startswith("/"):
            parent_path = "/" + parent_path
        parent = self.resolve(root, cwd, parent_path) if parent_path else cwd
        if not parent.is_dir:
            raise SyscallError(Errno.ENOTDIR, "resolve_parent", path)
        return parent, name

    # -- namei operations ---------------------------------------------------

    def create_file(self, parent: Inode, name: str, mode: int = DEFAULT_FILE_MODE,
                    uid: int = 0, gid: int = 0, now: float = 0.0,
                    data: bytes = b"") -> Inode:
        if parent.lookup(name) is not None:
            raise SyscallError(Errno.EEXIST, "create", name)
        node = new_file(self._new_ino(), mode=mode, uid=uid, gid=gid, now=now, data=data)
        self.charge_disk(len(data))
        parent.add_entry(name, node)
        parent.mtime = parent.ctime = now
        self.register_new_inode(node)
        self.note(parent)
        return node

    def create_dir(self, parent: Inode, name: str, mode: int = DEFAULT_DIR_MODE,
                   uid: int = 0, gid: int = 0, now: float = 0.0) -> Inode:
        if parent.lookup(name) is not None:
            raise SyscallError(Errno.EEXIST, "mkdir", name)
        node = new_directory(self._new_ino(), mode=mode, uid=uid, gid=gid, now=now)
        parent.add_entry(name, node)
        parent.nlink += 1
        parent.mtime = parent.ctime = now
        self.register_new_inode(node)
        self.note(parent)
        return node

    def create_symlink(self, parent: Inode, name: str, target: str, uid: int = 0,
                       gid: int = 0, now: float = 0.0) -> Inode:
        if parent.lookup(name) is not None:
            raise SyscallError(Errno.EEXIST, "symlink", name)
        node = Inode(ino=self._new_ino(), kind=FileKind.SYMLINK, mode=0o777, uid=uid,
                     gid=gid, atime=now, mtime=now, ctime=now, symlink_target=target)
        parent.add_entry(name, node)
        parent.mtime = parent.ctime = now
        self.register_new_inode(node)
        self.note(parent)
        return node

    def create_device(self, parent: Inode, name: str, dev_read=None, dev_write=None,
                      mode: int = 0o666, now: float = 0.0) -> Inode:
        node = Inode(ino=self._new_ino(), kind=FileKind.CHARDEV, mode=mode,
                     atime=now, mtime=now, ctime=now, dev_read=dev_read,
                     dev_write=dev_write)
        parent.add_entry(name, node)
        self.register_new_inode(node)
        self.note(parent)
        return node

    def hard_link(self, parent: Inode, name: str, target: Inode, now: float = 0.0) -> None:
        if parent.lookup(name) is not None:
            raise SyscallError(Errno.EEXIST, "link", name)
        if target.is_dir:
            raise SyscallError(Errno.EPERM, "link", name)
        parent.add_entry(name, target)
        target.nlink += 1
        target.ctime = now
        parent.mtime = parent.ctime = now
        self.note(target)
        self.note(parent)

    # -- open-description accounting ----------------------------------------
    #
    # POSIX keeps an unlinked-but-open inode alive until its last close;
    # releasing the inode *number* early lets the allocator hand the same
    # st_ino to a new file while the orphan is still fstat-able — two live
    # objects sharing an identity.  The syscall layer reports opens and
    # closes here so unlink/rmdir/rename defer the release.

    def inode_opened(self, node: Inode) -> None:
        """An open file description now references *node*."""
        node.open_count += 1
        self.note(node)

    def inode_closed(self, node: Inode) -> None:
        """The last descriptor on one description closed."""
        node.open_count -= 1
        self.note(node)
        self._maybe_release(node)

    def _maybe_release(self, node: Inode) -> None:
        """Recycle the inode number once no name and no open fd keeps it."""
        if node.nlink <= 0 and node.open_count <= 0:
            self._alloc.release(node.ino)
            self.meta_version += 1
            key = (node.ino, node.generation)
            self._dirty.pop(key, None)
            self._dead.append(key)
            if node.fifo_pipe is not None:
                # Capture finds FIFO pipes through this registry only.
                self._fifo_nodes.pop(id(node.fifo_pipe), None)
                node.fifo_pipe.touch()

    def unlink(self, parent: Inode, name: str, now: float = 0.0) -> None:
        node = parent.lookup(name)
        if node is None:
            raise SyscallError(Errno.ENOENT, "unlink", name)
        if node.is_dir:
            raise SyscallError(Errno.EISDIR, "unlink", name)
        parent.remove_entry(name)
        node.nlink -= 1
        node.ctime = now
        parent.mtime = parent.ctime = now
        self.note(node)
        self.note(parent)
        self._maybe_release(node)

    def rmdir(self, parent: Inode, name: str, now: float = 0.0) -> None:
        node = parent.lookup(name)
        if node is None:
            raise SyscallError(Errno.ENOENT, "rmdir", name)
        if not node.is_dir:
            raise SyscallError(Errno.ENOTDIR, "rmdir", name)
        if node.entries:
            raise SyscallError(Errno.ENOTEMPTY, "rmdir", name)
        parent.remove_entry(name)
        parent.nlink -= 1
        node.nlink = 0  # the name and the self-referential "." both die
        parent.mtime = parent.ctime = now
        self.note(node)
        self.note(parent)
        self._maybe_release(node)

    def rename(self, old_parent: Inode, old_name: str, new_parent: Inode,
               new_name: str, now: float = 0.0) -> None:
        node = old_parent.lookup(old_name)
        if node is None:
            raise SyscallError(Errno.ENOENT, "rename", old_name)
        existing = new_parent.lookup(new_name)
        if existing is node:
            return  # POSIX: renaming a file onto itself is a no-op
        if existing is not None:
            if node.is_dir and not existing.is_dir:
                raise SyscallError(Errno.ENOTDIR, "rename", new_name)
            if not node.is_dir and existing.is_dir:
                raise SyscallError(Errno.EISDIR, "rename", new_name)
            if existing.is_dir and existing.entries:
                raise SyscallError(Errno.ENOTEMPTY, "rename", new_name)
            new_parent.remove_entry(new_name)
            if existing.is_dir:
                # An empty directory victim: its name and its "." die,
                # and its ".." stops linking to new_parent.
                new_parent.nlink -= 1
                existing.nlink = 0
            else:
                existing.nlink -= 1
                existing.ctime = now
            self.note(existing)
            self._maybe_release(existing)
        old_parent.remove_entry(old_name)
        new_parent.add_entry(new_name, node)
        if node.is_dir and old_parent is not new_parent:
            # The moved directory's ".." now links new_parent, not old.
            old_parent.nlink -= 1
            new_parent.nlink += 1
        node.ctime = now
        old_parent.mtime = old_parent.ctime = now
        new_parent.mtime = new_parent.ctime = now
        self.note(node)
        self.note(old_parent)
        self.note(new_parent)

    # -- metadata --------------------------------------------------------------

    def stat(self, node: Inode) -> StatResult:
        """Build the raw (irreproducible) stat result for *node*."""
        if node.is_dir:
            size = self.host.machine.directory_size(len(node.entries))
        else:
            size = node.size
        blksize = self.host.machine.fs_block_size
        return StatResult(
            st_dev=self.device_id,
            st_ino=node.ino,
            st_mode=node.full_mode,
            st_nlink=node.nlink,
            st_uid=node.uid,
            st_gid=node.gid,
            st_size=size,
            st_blksize=blksize,
            st_blocks=(size + 511) // 512,
            st_atime=node.atime,
            st_mtime=node.mtime,
            st_ctime=node.ctime,
        )

    def dirent_order(self, node: Inode) -> List[Dirent]:
        """Entries of directory *node* in filesystem (salted-hash) order.

        This is the raw ``getdents`` order: deterministic for one boot but
        different across boots/machines, which is why DetTrace must sort.

        The order is memoized on the inode itself until the directory
        mutates (``add_entry``/``remove_entry`` clear it), saving the
        per-name hashing on every re-listing.  Callers get a fresh list
        so cursor arithmetic can never alias the cache.
        """
        if self.cache_enabled:
            cached = node._dirent_cache
            if cached is not None:
                self.dirent_hits += 1
                return list(cached)
            self.dirent_misses += 1
        salt = self.host.dirent_hash_salt

        def hash_key(name: str) -> bytes:
            return hashlib.md5(("%d:%s" % (salt, name)).encode()).digest()

        names = sorted(node.entries, key=hash_key)
        order = [Dirent(d_ino=node.entries[n].ino, d_name=n, d_type=node.entries[n].kind)
                 for n in names]
        if self.cache_enabled:
            node._dirent_cache = list(order)
        return order

    # -- convenience for image construction / inspection -------------------------

    def mkdirs(self, path: str, now: float = 0.0) -> Inode:
        """Create all missing directories along absolute *path*."""
        node = self.root
        for comp in split_path(path):
            child = node.lookup(comp)
            if child is None:
                child = self.create_dir(node, comp, now=now)
            node = child
        return node

    def write_file(self, path: str, data: bytes, mode: int = DEFAULT_FILE_MODE,
                   now: float = 0.0) -> Inode:
        """Create or replace the file at absolute *path* with *data*."""
        parent = self.mkdirs("/".join(path.split("/")[:-1]), now=now)
        name = split_path(path)[-1]
        node = parent.lookup(name)
        if node is None:
            node = self.create_file(parent, name, mode=mode, now=now, data=data)
        else:
            node.data = bytearray(data)
            node.mtime = node.ctime = now
            self.note(node)
        return node

    def read_file(self, path: str) -> bytes:
        node = self.resolve(self.root, self.root, path)
        if not node.is_regular:
            raise SyscallError(Errno.EISDIR, "read_file", path)
        return bytes(node.data)

    def exists(self, path: str) -> bool:
        try:
            self.resolve(self.root, self.root, path)
            return True
        except SyscallError:
            return False

    def walk(self, start: Optional[Inode] = None, prefix: str = "") -> Iterable[Tuple[str, Inode]]:
        """Yield ``(path, inode)`` for every object under *start*, sorted."""
        node = start if start is not None else self.root
        yield (prefix or "/", node)
        if node.is_dir:
            for name in sorted(node.entries):
                child = node.entries[name]
                yield from self.walk(child, prefix + "/" + name)

    def snapshot(self, include_metadata: bool = False) -> Dict[str, bytes]:
        """Flatten the tree to ``{path: content}`` for artifact comparison.

        With *include_metadata*, each entry also encodes mode/uid/gid (the
        metadata diffoscope would compare inside an archive).
        """
        out: Dict[str, bytes] = {}
        for path, node in self.walk():
            if node.is_regular:
                content = bytes(node.data)
                if include_metadata:
                    content = (b"%o:%d:%d|" % (node.mode, node.uid, node.gid)) + content
                out[path] = content
            elif node.kind is FileKind.SYMLINK:
                out[path] = b"->" + node.symlink_target.encode()
        return out
