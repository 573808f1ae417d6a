"""The simulated Linux system call table.

Each ``sys_<name>`` method implements one syscall with native — i.e.
*irreproducible* — semantics.  Determinization happens strictly in the
tracer layer (:mod:`repro.core.handlers`), never here, mirroring the
paper's architecture where the kernel is completely unmodified (Figure 2).

Control flow out of a syscall body:

* return a value — success;
* raise :class:`~repro.kernel.errors.SyscallError` — failure (``-errno``);
* raise :class:`~repro.kernel.waiting.WouldBlock` — park/retry protocol;
* raise :class:`Sleep` — timed block (nanosleep);
* raise :class:`ExitProcess` / :class:`ExitThread` — termination;
* raise :class:`ExecveReplace` — replace the process image.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .errors import Errno, SyscallError
from .fds import FdKind, FDTable, OpenFile
from .filesystem import normalize
from .inode import Inode
from .ops import Syscall
from .pipes import Pipe
from .process import Process, Thread
from . import sockets as socklib
from .types import (
    CLOCK_MONOTONIC,
    StatfsResult,
    TimesResult,
    CLOCK_REALTIME,
    FUTEX_WAIT,
    FUTEX_WAKE,
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_NONBLOCK,
    O_TRUNC,
    O_WRONLY,
    ACCMODE_MASK,
    O_RDONLY,
    O_RDWR,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    SIGALRM,
    SIGCHLD,
    SIGPIPE,
    SysInfo,
    UtsName,
    WaitResult,
    WNOHANG,
    FileKind,
)
from .waiting import WouldBlock

#: fcntl(F_SETFL) may change only the *file status* flags; access mode
#: (O_RDONLY/O_WRONLY/O_RDWR) and creation flags (O_CREAT/O_EXCL/O_TRUNC)
#: are fixed at open time and must be masked out of the argument (POSIX).
SETFL_MASK = O_APPEND | O_NONBLOCK


class Sleep(Exception):
    """nanosleep: park the thread for a fixed virtual duration."""

    def __init__(self, seconds: float):
        self.seconds = max(0.0, float(seconds))
        super().__init__("sleep %gs" % seconds)


class ExitProcess(Exception):
    def __init__(self, code: int):
        self.code = int(code)
        super().__init__("exit(%d)" % code)


class ExitThread(Exception):
    pass


class ExecveReplace(Exception):
    """Replace the calling process's image with a new program."""

    def __init__(self, path: str, argv: List[str], env: Optional[Dict[str, str]]):
        self.path = path
        self.argv = argv
        self.env = env
        super().__init__("execve %s" % path)


class _LoopbackSocket:
    """A trivially fake network peer: answers with host-tainted data.

    Exists so that packages using sockets *build* natively (and embed
    irreproducible network answers in their artifacts); DetTrace refuses
    the socket syscall instead (§5.9).
    """

    def __init__(self, clock):
        self._clock = clock
        self._pending: List[bytes] = []

    def write(self, data: bytes) -> int:
        self._pending.append(data)
        return len(data)

    def read(self, n: int) -> bytes:
        sent = b"".join(self._pending)
        self._pending = []
        reply = b"pong %.6f len=%d" % (self._clock.wall, len(sent))
        return reply[:n]


class SyscallTable:
    """Dispatches syscalls against one simulated kernel instance."""

    def __init__(self, kernel):
        self.kernel = kernel

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(self, thread: Thread, call: Syscall) -> Any:
        kernel = self.kernel
        faults = kernel.faults
        if faults is not None:
            # Apply any fault armed at dispatch time for this instance:
            # may raise the injected errno or rewrite the call into a
            # short transfer.  Probes/retries of the same instance find
            # the slot cleared and run unfaulted.
            call = faults.consume(thread, call)
        method = (kernel.syscall_names.get(call.name)
                  or kernel.syscall_name(call.name)).method
        if method is None:
            raise SyscallError(Errno.ENOSYS, call.name)
        return method(self, thread, **call.args)

    # -- small helpers ---------------------------------------------------

    @property
    def _fs(self):
        return self.kernel.fs

    @property
    def _now(self) -> float:
        return self.kernel.clock.wall

    def _abs_path(self, proc: Process, path: str) -> str:
        if path.startswith("/"):
            return normalize(path)
        return normalize(proc.cwd_path + "/" + path)

    def _resolve(self, proc: Process, path: str, follow_last: bool = True) -> Inode:
        return self._fs.resolve(proc.root, proc.cwd, path, follow_last=follow_last)

    def _resolve_parent(self, proc: Process, path: str):
        return self._fs.resolve_parent(proc.root, proc.cwd, path)

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------

    def sys_open(self, t: Thread, path: str, flags: int = O_RDONLY, mode: int = 0o644):
        proc = t.process
        abspath = self._abs_path(proc, path)
        node: Optional[Inode]
        try:
            node = self._resolve(proc, path)
        except SyscallError as err:
            if err.errno != Errno.ENOENT or not (flags & O_CREAT):
                raise
            node = None
        if node is not None and (flags & O_CREAT) and (flags & O_EXCL):
            raise SyscallError(Errno.EEXIST, "open", path)
        if node is None:
            parent, name = self._resolve_parent(proc, path)
            node = self._fs.create_file(parent, name,
                                        mode=mode & ~proc.umask & 0o7777,
                                        uid=proc.uid, gid=proc.gid,
                                        now=self._now)
        if node.kind is FileKind.DIRECTORY:
            if (flags & ACCMODE_MASK) != O_RDONLY:
                raise SyscallError(Errno.EISDIR, "open", path)
            of = OpenFile(kind=FdKind.DIRECTORY, flags=flags, path=abspath, inode=node)
        elif node.kind is FileKind.CHARDEV:
            of = OpenFile(kind=FdKind.DEVICE, flags=flags, path=abspath, inode=node)
        elif node.kind is FileKind.FIFO:
            # The open registers the end immediately; the rendezvous with
            # the other end happens at the first read/write (pipes.py),
            # which the retryable-probe protocol handles both natively
            # and through DetTrace's Blocked queue.
            accmode = flags & ACCMODE_MASK
            fifo = node.fifo_pipe
            if accmode == O_RDONLY:
                fifo.open_reader()
                self.kernel.notify(fifo.reader_arrived)
                of = OpenFile(kind=FdKind.PIPE_READ, flags=flags, path=abspath,
                              inode=node, pipe=fifo)
            else:
                fifo.open_writer()
                self.kernel.notify(fifo.writer_arrived)
                of = OpenFile(kind=FdKind.PIPE_WRITE, flags=flags, path=abspath,
                              inode=node, pipe=fifo)
        elif node.kind is FileKind.REGULAR:
            if flags & O_TRUNC and (flags & ACCMODE_MASK) in (O_WRONLY, O_RDWR):
                node.data = bytearray()
                node.mtime = node.ctime = self._now
                self._fs.note(node)
            of = OpenFile(kind=FdKind.FILE, flags=flags, path=abspath, inode=node)
        else:
            raise SyscallError(Errno.EINVAL, "open", path)
        if of.inode is not None:
            # Keep the inode number alive until the last close even if
            # every name is unlinked meanwhile (POSIX orphan semantics).
            self._fs.inode_opened(of.inode)
            of.counts_inode = True
        return proc.fdtable.install(of)

    def sys_close(self, t: Thread, fd: int):
        of = t.process.fdtable.remove(fd)
        self._drop_open_file(of)
        return 0

    def _drop_open_file(self, of: OpenFile) -> None:
        of.refcount -= 1
        if of.refcount > 0:
            return
        if of.counts_inode and of.inode is not None:
            self._fs.inode_closed(of.inode)
        if of.kind is FdKind.PIPE_READ and of.pipe is not None:
            self.kernel.notify(of.pipe.close_reader())
        elif of.kind is FdKind.PIPE_WRITE and of.pipe is not None:
            self.kernel.notify(of.pipe.close_writer())
        elif of.kind in (FdKind.SOCKETPAIR, FdKind.SOCKET):
            listener = of.listener
            if listener is not None:
                # Closing a listener refuses every queued-but-unaccepted
                # connection: the client sees EOF on read and EPIPE on
                # the next write, like a RST-free orderly close.
                for to_server, to_client, _peer in listener.pending:
                    self.kernel.notify(to_server.close_reader())
                    self.kernel.notify(to_client.close_writer())
                listener.pending.clear()
                # Wake connecters parked on a full backlog; their retry
                # finds no listener and fails with ECONNREFUSED.
                self.kernel.notify(listener.accept_slot)
                self.kernel.sockets.release(of.sock_family, of.sock_local)
                of.listener = None
            elif of.sock_bound:
                self.kernel.sockets.release(of.sock_family, of.sock_local)
            # shutdown(2) already closed a direction: don't double-close.
            if of.pipe is not None and not of.shut_rd:
                self.kernel.notify(of.pipe.close_reader())
            peer = getattr(of, "peer_pipe", None)
            if peer is not None and not of.shut_wr:
                self.kernel.notify(peer.close_writer())

    def _broken_pipe(self, t: Thread, name: str) -> None:
        """Writing with no reader: POSIX delivers SIGPIPE *and* fails the
        write with EPIPE.  The signal honors the writer's sigmask here;
        ``deliver_signal``'s disposition logic honors SIG_IGN/handlers.
        The default disposition terminates the process — which is why
        ``Errno.EPIPE`` alone (the pre-fix behaviour) was a conformance
        bug: guests that never install a handler survived writes that
        must kill them."""
        proc = t.process
        if SIGPIPE not in proc.sigmask:
            self.kernel.deliver_signal(proc, SIGPIPE)
        raise SyscallError(Errno.EPIPE, name)

    def _pipe_write(self, t: Thread, pipe: Pipe, data: bytes, name: str) -> int:
        try:
            n = pipe.write(data)
        except SyscallError as err:
            if err.errno != Errno.EPIPE:
                raise
            n = None
        if n is None:
            # Past the clause: SIGPIPE's default action ends the process,
            # which can step a queued sibling.
            self._broken_pipe(t, name)
        if n:
            self.kernel.notify(pipe.readable)
        self.kernel.charge_io(t, n)
        return n

    def sys_read(self, t: Thread, fd: int, count: int):
        of = t.process.fdtable.get(fd)
        if of.kind is FdKind.FILE:
            node = of.inode
            data = bytes(node.data[of.offset:of.offset + count])
            of.offset += len(data)
            node.atime = self._now
            self._fs.note(node)
            self.kernel.charge_io(t, len(data))
            return data
        if of.kind is FdKind.DEVICE:
            if of.inode is not None and of.inode.dev_read is not None:
                # Device reads advance internal cursors (procfs position),
                # which the snapshot layer captures off the inode.
                self._fs.note(of.inode)
                return of.inode.dev_read(count)
            return b""
        if of.kind is FdKind.PIPE_READ:
            data = of.pipe.read(count)
            if data:
                self.kernel.notify(of.pipe.writable)
            self.kernel.charge_io(t, len(data))
            return data
        if of.kind is FdKind.SOCKETPAIR:
            if of.shut_rd:
                return b""               # SHUT_RD: immediate EOF
            data = of.pipe.read(count)   # our receive direction
            if data:
                self.kernel.notify(of.pipe.writable)
            self.kernel.charge_io(t, len(data))
            return data
        if of.kind is FdKind.SOCKET:
            if of.socket is not None:    # external fake peer (§5.9)
                return of.socket.read(count)
            if of.shut_rd:
                return b""               # SHUT_RD: immediate EOF
            if of.pipe is None:
                raise SyscallError(Errno.ENOTCONN, "read")
            data = of.pipe.read(count)
            if data:
                self.kernel.notify(of.pipe.writable)
            self.kernel.charge_io(t, len(data))
            return data
        if of.kind is FdKind.DIRECTORY:
            raise SyscallError(Errno.EISDIR, "read")
        raise SyscallError(Errno.EBADF, "read")

    def sys_write(self, t: Thread, fd: int, data: bytes):
        of = t.process.fdtable.get(fd)
        if isinstance(data, str):
            data = data.encode()
        if of.kind is FdKind.FILE:
            node = of.inode
            if of.flags & O_APPEND:
                of.offset = len(node.data)
            end = of.offset + len(data)
            if end > len(node.data):
                self._fs.charge_disk(end - len(node.data))
                node.data.extend(b"\x00" * (end - len(node.data)))
            node.data[of.offset:end] = data
            of.offset = end
            node.mtime = node.ctime = self._now
            self._fs.note(node)
            self.kernel.charge_io(t, len(data))
            return len(data)
        if of.kind is FdKind.DEVICE:
            if of.inode is not None and of.inode.dev_write is not None:
                self._fs.note(of.inode)
                return of.inode.dev_write(data)
            return len(data)
        if of.kind is FdKind.PIPE_WRITE:
            return self._pipe_write(t, of.pipe, data, "write")
        if of.kind is FdKind.SOCKETPAIR:
            if of.shut_wr:
                self._broken_pipe(t, "write")
            return self._pipe_write(t, of.peer_pipe, data, "write")
        if of.kind is FdKind.SOCKET:
            if of.socket is not None:    # external fake peer (§5.9)
                return of.socket.write(data)
            if of.shut_wr:
                self._broken_pipe(t, "write")
            if of.peer_pipe is None:
                raise SyscallError(Errno.ENOTCONN, "write")
            return self._pipe_write(t, of.peer_pipe, data, "write")
        raise SyscallError(Errno.EBADF, "write")

    def sys_lseek(self, t: Thread, fd: int, offset: int, whence: int = SEEK_SET):
        of = t.process.fdtable.get(fd)
        # Every non-seekable kind: pipes, FIFOs, socketpairs and sockets.
        if of.is_pipe:
            raise SyscallError(Errno.ESPIPE, "lseek")
        if whence == SEEK_SET:
            of.offset = offset
        elif whence == SEEK_CUR:
            of.offset += offset
        elif whence == SEEK_END:
            of.offset = (of.inode.size if of.inode else 0) + offset
        else:
            raise SyscallError(Errno.EINVAL, "lseek")
        if of.offset < 0:
            raise SyscallError(Errno.EINVAL, "lseek")
        return of.offset

    def sys_pipe(self, t: Thread):
        pipe = self.kernel.new_pipe()
        pipe.open_reader()
        pipe.open_writer()
        r = OpenFile(kind=FdKind.PIPE_READ, pipe=pipe, path="pipe:[%d]" % pipe.pipe_id)
        w = OpenFile(kind=FdKind.PIPE_WRITE, pipe=pipe, path="pipe:[%d]" % pipe.pipe_id)
        rfd = t.process.fdtable.install(r)
        wfd = t.process.fdtable.install(w)
        return (rfd, wfd)

    def sys_dup(self, t: Thread, fd: int):
        return t.process.fdtable.dup(fd)

    def sys_dup2(self, t: Thread, oldfd: int, newfd: int):
        # The displaced newfd's implicit close must run full teardown
        # (EOF/EPIPE delivery, inode-number release), not a bare decref.
        return t.process.fdtable.dup2(oldfd, newfd, self._drop_open_file)

    def sys_stat(self, t: Thread, path: str):
        node = self._resolve(t.process, path)
        return self._fs.stat(node)

    def sys_lstat(self, t: Thread, path: str):
        node = self._resolve(t.process, path, follow_last=False)
        return self._fs.stat(node)

    def sys_fstat(self, t: Thread, fd: int):
        of = t.process.fdtable.get(fd)
        if of.inode is None:
            raise SyscallError(Errno.EBADF, "fstat")
        return self._fs.stat(of.inode)

    def sys_access(self, t: Thread, path: str, mode: int = 0):
        self._resolve(t.process, path)
        return 0

    def sys_getdents(self, t: Thread, fd: int, max_entries: Optional[int] = None):
        """Return the next chunk of directory entries.

        Like the real syscall, the result is bounded (by *max_entries*
        here, by the buffer size in Linux) and the fd keeps a cursor, so
        a full listing takes several calls ending with an empty one.
        This is exactly why DetTrace must buffer and sort the *whole*
        stream before handing anything back (§5.5).
        """
        of = t.process.fdtable.get(fd)
        if of.kind is not FdKind.DIRECTORY:
            raise SyscallError(Errno.ENOTDIR, "getdents")
        entries = self._fs.dirent_order(of.inode)
        if max_entries is None:
            chunk = entries[of.offset:]
        else:
            chunk = entries[of.offset:of.offset + max_entries]
        of.offset += len(chunk)
        return chunk

    def sys_mkfifo(self, t: Thread, path: str, mode: int = 0o644):
        """Create a named pipe — the mechanism DetTrace itself uses to
        feed /dev/[u]random from its PRNG (§5.2)."""
        from .inode import Inode

        proc = t.process
        parent, name = self._resolve_parent(proc, path)
        if parent.lookup(name) is not None:
            raise SyscallError(Errno.EEXIST, "mkfifo", path)
        node = Inode(ino=self._fs._new_ino(), kind=FileKind.FIFO,
                     mode=mode & ~proc.umask & 0o7777,
                     uid=proc.uid, gid=proc.gid,
                     atime=self._now, mtime=self._now, ctime=self._now)
        node.fifo_pipe = self.kernel.new_pipe()
        parent.add_entry(name, node)
        parent.mtime = parent.ctime = self._now
        self._fs.register_new_inode(node)
        self._fs.note(parent)
        return 0

    def sys_mkdir(self, t: Thread, path: str, mode: int = 0o755):
        proc = t.process
        parent, name = self._resolve_parent(proc, path)
        self._fs.create_dir(parent, name, mode=mode & ~proc.umask & 0o7777,
                            uid=proc.uid, gid=proc.gid, now=self._now)
        return 0

    def sys_rmdir(self, t: Thread, path: str):
        parent, name = self._resolve_parent(t.process, path)
        self._fs.rmdir(parent, name, now=self._now)
        return 0

    def sys_unlink(self, t: Thread, path: str):
        parent, name = self._resolve_parent(t.process, path)
        self._fs.unlink(parent, name, now=self._now)
        return 0

    def sys_rename(self, t: Thread, old: str, new: str):
        proc = t.process
        op, oname = self._resolve_parent(proc, old)
        np, nname = self._resolve_parent(proc, new)
        self._fs.rename(op, oname, np, nname, now=self._now)
        return 0

    def sys_link(self, t: Thread, target: str, linkpath: str):
        proc = t.process
        node = self._resolve(proc, target)
        parent, name = self._resolve_parent(proc, linkpath)
        self._fs.hard_link(parent, name, node, now=self._now)
        return 0

    def sys_symlink(self, t: Thread, target: str, linkpath: str):
        proc = t.process
        parent, name = self._resolve_parent(proc, linkpath)
        self._fs.create_symlink(parent, name, target, uid=proc.uid, gid=proc.gid,
                                now=self._now)
        return 0

    def sys_readlink(self, t: Thread, path: str):
        node = self._resolve(t.process, path, follow_last=False)
        if node.kind is not FileKind.SYMLINK:
            raise SyscallError(Errno.EINVAL, "readlink", path)
        return node.symlink_target

    def sys_chmod(self, t: Thread, path: str, mode: int):
        node = self._resolve(t.process, path)
        node.mode = mode & 0o7777
        node.ctime = self._now
        self._fs.note(node)
        return 0

    def sys_chown(self, t: Thread, path: str, uid: int, gid: int):
        node = self._resolve(t.process, path)
        node.uid, node.gid = uid, gid
        node.ctime = self._now
        self._fs.note(node)
        return 0

    def sys_truncate(self, t: Thread, path: str, length: int):
        # Linux checks the length before the file type: a negative length
        # is EINVAL even on a directory.
        if length < 0:
            raise SyscallError(Errno.EINVAL, "truncate", path)
        node = self._resolve(t.process, path)
        if node.is_dir:
            raise SyscallError(Errno.EISDIR, "truncate", path)
        if not node.is_regular:
            raise SyscallError(Errno.EINVAL, "truncate", path)
        if length > len(node.data):
            self._fs.charge_disk(length - len(node.data))
            node.data.extend(b"\x00" * (length - len(node.data)))
        else:
            del node.data[length:]
        node.mtime = node.ctime = self._now
        self._fs.note(node)
        return 0

    def sys_utime(self, t: Thread, path: str, times=None):
        node = self._resolve(t.process, path)
        if times is None:
            node.atime = node.mtime = self._now
        else:
            node.atime, node.mtime = times
        node.ctime = self._now
        self._fs.note(node)
        return 0

    def sys_fsync(self, t: Thread, fd: int):
        # POSIX: fsync on a descriptor with no backing store — pipes,
        # FIFOs, sockets — fails with EINVAL.  Regular files, directories
        # and devices succeed as a no-op (all writes are immediately
        # durable in the simulated fs).  The verdict depends only on
        # per-process fd state, so fsync stays on the seccomp
        # NATURALLY_REPRODUCIBLE allow-list.
        of = t.process.fdtable.get(fd)
        if of.is_pipe:
            raise SyscallError(Errno.EINVAL, "fsync", "fd %d" % fd)
        return 0

    def sys_getcwd(self, t: Thread):
        return t.process.cwd_path

    def sys_chdir(self, t: Thread, path: str):
        proc = t.process
        node = self._resolve(proc, path)
        if not node.is_dir:
            raise SyscallError(Errno.ENOTDIR, "chdir", path)
        proc.cwd = node
        proc.cwd_path = self._abs_path(proc, path)
        return 0

    def sys_chroot(self, t: Thread, path: str):
        proc = t.process
        node = self._resolve(proc, path)
        if not node.is_dir:
            raise SyscallError(Errno.ENOTDIR, "chroot", path)
        proc.root = node
        proc.cwd = node
        proc.cwd_path = "/"
        return 0

    def sys_umask(self, t: Thread, mask: int = 0o022):
        proc = t.process
        previous = proc.umask
        proc.umask = mask & 0o777
        return previous

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def sys_getpid(self, t: Thread):
        return t.process.nspid

    def sys_getppid(self, t: Thread):
        parent = t.process.parent
        return parent.nspid if parent is not None else 0

    def sys_gettid(self, t: Thread):
        return t.tid

    def sys_getuid(self, t: Thread):
        return t.process.uid

    def sys_getgid(self, t: Thread):
        return t.process.gid

    def sys_setuid(self, t: Thread, uid: int):
        t.process.uid = uid
        return 0

    def sys_setgid(self, t: Thread, gid: int):
        t.process.gid = gid
        return 0

    def sys_uname(self, t: Thread):
        machine = self.kernel.host.machine
        return UtsName(
            sysname="Linux",
            nodename=machine.hostname,
            release="%d.%d.0-generic" % machine.kernel_version,
            version="#1 SMP %s" % machine.os_name,
            machine="x86_64",
        )

    def sys_sysinfo(self, t: Thread):
        return SysInfo(
            uptime=self.kernel.clock.now,
            total_ram=self.kernel.host.machine.total_ram_gb << 30,
            nprocs=self.kernel.host.ncores,
        )

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def sys_time(self, t: Thread):
        return int(self.kernel.clock.wall)

    def sys_gettimeofday(self, t: Thread):
        return self.kernel.clock.wall

    def sys_clock_gettime(self, t: Thread, clock_id: int = CLOCK_REALTIME):
        if clock_id == CLOCK_MONOTONIC:
            return self.kernel.clock.monotonic
        return self.kernel.clock.wall

    def sys_nanosleep(self, t: Thread, seconds: float):
        raise Sleep(seconds)

    def sys_times(self, t: Thread):
        """CPU accounting: depends on jittered scheduling — irreproducible."""
        utime = sum(th.cpu_time for th in t.process.threads)
        return TimesResult(utime=utime, stime=utime * 0.1,
                           cutime=0.0, cstime=0.0)

    def sys_statfs(self, t: Thread, path: str):
        """Filesystem stats: free-space counters are host state."""
        self._resolve(t.process, path)
        machine = self.kernel.host.machine
        total_blocks = (machine.total_ram_gb << 30) // machine.fs_block_size
        used = self._fs._bytes_written // machine.fs_block_size
        return StatfsResult(
            f_type=0xEF53, f_bsize=machine.fs_block_size,
            f_blocks=total_blocks, f_bfree=total_blocks - used - 777,
            f_files=1 << 20, f_ffree=(1 << 20) - len(list(self._fs.walk())))

    def sys_sched_getaffinity(self, t: Thread):
        """The visible CPU set: directly exposes core count."""
        return list(range(self.kernel.host.ncores))

    def sys_getgroups(self, t: Thread):
        return [t.process.gid]

    def sys_sigprocmask(self, t: Thread, how: str = "SIG_SETMASK", mask=()):
        old = t.process.sigmask
        current = set(old)
        if how == "SIG_BLOCK":
            current |= set(mask)
        elif how == "SIG_UNBLOCK":
            current -= set(mask)
        else:
            current = set(mask)
        t.process.sigmask = tuple(sorted(current))
        return old

    def sys_setsid(self, t: Thread):
        return t.process.nspid

    def sys_fcntl(self, t: Thread, fd: int, cmd: str = "F_GETFL", arg: int = 0):
        of = t.process.fdtable.get(fd)
        if cmd == "F_GETFL":
            return of.flags
        if cmd == "F_SETFL":
            # Only file-status flags are settable; the access mode and
            # creation flags from open time must survive (POSIX).
            of.flags = (of.flags & ~SETFL_MASK) | (arg & SETFL_MASK)
            return 0
        if cmd == "F_DUPFD":
            return t.process.fdtable.dup(fd, minimum=arg)
        raise SyscallError(Errno.EINVAL, "fcntl", cmd)

    def sys_sync(self, t: Thread):
        return 0

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------

    def sys_getrandom(self, t: Thread, count: int):
        return self.kernel.host.entropy_bytes(count)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def sys_spawn_process(self, t: Thread, path: str, argv: Optional[List[str]] = None,
                          env: Optional[Dict[str, str]] = None,
                          stdin: Optional[int] = None, stdout: Optional[int] = None,
                          stderr: Optional[int] = None,
                          close_fds: Optional[List[int]] = None):
        """fork + execve in one step (how our guests launch children)."""
        return self.kernel.spawn_child(
            t.process, path, argv=argv, env=env,
            stdio={0: stdin, 1: stdout, 2: stderr}, close_fds=close_fds or [],
            caller=t)

    def sys_execve(self, t: Thread, path: str, argv: Optional[List[str]] = None,
                   env: Optional[Dict[str, str]] = None):
        raise ExecveReplace(path, argv or [path], env)

    def sys_exit(self, t: Thread, code: int = 0):
        raise ExitProcess(code)

    def sys_exit_thread(self, t: Thread):
        raise ExitThread()

    def sys_wait4(self, t: Thread, pid: int = -1, options: int = 0):
        proc = t.process
        candidates = [c for c in proc.children if not c.reaped]
        if pid != -1:
            candidates = [c for c in candidates if c.nspid == pid]
        if not candidates:
            raise SyscallError(Errno.ECHILD, "wait4")
        zombies = [c for c in candidates if c.exit_status is not None]
        if zombies:
            child = zombies[0]
            child.reaped = True
            return WaitResult(pid=child.nspid, status=child.exit_status)
        if options & WNOHANG:
            return WaitResult(pid=0, status=0)
        raise WouldBlock([c.exit_channel for c in candidates])

    def sys_spawn_thread(self, t: Thread, func):
        return self.kernel.spawn_thread(t.process, func, caller=t)

    def sys_sched_yield(self, t: Thread):
        return 0

    # ------------------------------------------------------------------
    # signals & timers
    # ------------------------------------------------------------------

    def sys_sigaction(self, t: Thread, signum: int, action):
        if self.kernel.ckpt is not None:
            # Taped at *execution* time (a traced sigaction may execute
            # long after its yield, or never): fast-forward replays the
            # handler-table update at exactly this point.
            self.kernel.ckpt.record_sigact(t.tid, signum)
        old = t.process.signal_handlers.get(signum, "default")
        t.process.signal_handlers[signum] = action
        return old

    def sys_kill(self, t: Thread, pid: int, signum: int):
        target = self.kernel.find_process_by_nspid(pid)
        if target is None or not target.alive:
            raise SyscallError(Errno.ESRCH, "kill")
        self.kernel.deliver_signal(target, signum)
        return 0

    def sys_alarm(self, t: Thread, seconds: float):
        return self.kernel.register_alarm(t.process, seconds, SIGALRM)

    def sys_pause(self, t: Thread):
        proc = t.process
        delivered = proc._signals_delivered
        if t.pending_signals or delivered > proc._pause_acks:
            # A signal arrived since the last pause: consume it.  (Under
            # DetTrace's instant timers the handler already ran before
            # this pause; POSIX pause would hang, but the paper's timer
            # emulation makes the pause observe the emulated expiry.)
            proc._pause_acks = delivered
            raise SyscallError(Errno.EINTR, "pause")
        raise WouldBlock([proc.signal_channel])

    # ------------------------------------------------------------------
    # futex
    # ------------------------------------------------------------------

    def sys_futex(self, t: Thread, op: int, addr, val: int = 0):
        proc = t.process
        if op == FUTEX_WAIT:
            current = proc.memory.get(addr, 0)
            if current != val:
                raise SyscallError(Errno.EAGAIN, "futex")
            raise WouldBlock([proc.futex_channel(addr)])
        if op == FUTEX_WAKE:
            return self.kernel.notify(proc.futex_channel(addr))
        raise SyscallError(Errno.EINVAL, "futex")

    def replay_test(self, t: Thread,
                    call: Syscall) -> Optional[Callable[[], bool]]:
        """For *call*, which just returned would-block: a test that holds
        while executing it again must block again, so a probe may replay
        the answer instead.  None when only executing it can tell.

        Each test is its syscall's own blocking decision, read without
        running the call:

        * ``wait4`` blocks until a candidate child exits, and every exit
          notifies the child's exit channel, so it blocks again while
          the wake epoch holds still and no exiting process is between
          showing its zombie and that notification;
        * ``FUTEX_WAIT`` blocks exactly while the word holds the value
          waited on.  That is a read of plain memory, so a store needs
          to notify nothing.
        """
        if call.name == "futex" and call.args["op"] == FUTEX_WAIT:
            memory, addr = t.process.memory, call.args["addr"]
            val = call.args.get("val", 0)
            return lambda: memory.get(addr, 0) == val
        if call.name == "wait4":
            kernel = self.kernel
            epoch = kernel.wake_epoch
            return lambda: (kernel.wake_epoch == epoch
                            and not kernel.exits_in_flight)
        return None

    # ------------------------------------------------------------------
    # sockets & ioctl
    # ------------------------------------------------------------------

    def sys_download(self, t: Thread, url: str):
        """Fetch *url* from the (simulated) network.

        Returns ``(body, headers)``; the headers carry the usual
        irreproducible metadata (Date, Server, timing) that naive guests
        embed into artifacts.
        """
        body = self.kernel.network.get(url)
        if body is None:
            raise SyscallError(Errno.ECONNREFUSED, "download", url)
        self.kernel.charge_io(t, len(body))
        headers = {
            "Date": "%.3f" % self.kernel.clock.wall,
            "Server": self.kernel.host.machine.hostname,
            "X-Request-Id": self.kernel.host.entropy_bytes(8).hex(),
        }
        return (body, headers)

    def sys_socketpair(self, t: Thread):
        """AF_UNIX socketpair: two connected bidirectional endpoints.

        Modelled as a crossed pair of pipes; entirely container-internal,
        which is why it is determinizable where network sockets are not
        (the paper's §5.9 future-work item).
        """
        a_to_b, b_to_a = self.kernel.new_pipe(), self.kernel.new_pipe()
        for pipe in (a_to_b, b_to_a):
            pipe.open_reader()
            pipe.open_writer()
        end_a = OpenFile(kind=FdKind.SOCKETPAIR, path="socketpair:[a]",
                         pipe=b_to_a)
        end_a.peer_pipe = a_to_b
        end_b = OpenFile(kind=FdKind.SOCKETPAIR, path="socketpair:[b]",
                         pipe=a_to_b)
        end_b.peer_pipe = b_to_a
        fd_a = t.process.fdtable.install(end_a)
        fd_b = t.process.fdtable.install(end_b)
        return (fd_a, fd_b)

    def sys_socket(self, t: Thread, family: int = socklib.AF_INET,
                   type: int = socklib.SOCK_STREAM):
        if family not in (socklib.AF_UNIX, socklib.AF_INET):
            raise SyscallError(Errno.EAFNOSUPPORT, "socket")
        if type != socklib.SOCK_STREAM:
            raise SyscallError(Errno.EOPNOTSUPP, "socket")
        of = OpenFile(kind=FdKind.SOCKET, path="socket:[unbound]",
                      sock_family=family)
        return t.process.fdtable.install(of)

    def _sock(self, t: Thread, fd: int, name: str) -> OpenFile:
        of = t.process.fdtable.get(fd)
        if of.kind is not FdKind.SOCKET:
            raise SyscallError(Errno.ENOTSOCK, name)
        return of

    @staticmethod
    def _sock_family_for(address: str) -> Optional[int]:
        """The in-container family for *address*, or None if it names an
        external host (only the fake, irreproducible peer can serve it)."""
        if socklib.is_unix_address(address):
            return socklib.AF_UNIX
        if socklib.is_loopback_address(address):
            return socklib.AF_INET
        return None

    @staticmethod
    def _canon_inet(address: str) -> str:
        """Normalize loopback spellings so bind("localhost:80") and
        connect("127.0.0.1:80") meet in the same registry slot."""
        host, _, port = address.rpartition(":")
        if host in socklib.LOOPBACK_HOSTS:
            return "127.0.0.1:%s" % port
        return address

    def sys_bind(self, t: Thread, fd: int, address: str):
        of = self._sock(t, fd, "bind")
        if of.sock_bound or of.pipe is not None:
            raise SyscallError(Errno.EINVAL, "bind")
        family = self._sock_family_for(address)
        if family is None:
            raise SyscallError(Errno.EADDRNOTAVAIL, "bind", address)
        if family != of.sock_family:
            raise SyscallError(Errno.EAFNOSUPPORT, "bind", address)
        if family == socklib.AF_INET:
            address = self._canon_inet(address)
        of.sock_local = self.kernel.sockets.bind(family, address)
        of.sock_bound = True
        return 0

    def sys_listen(self, t: Thread, fd: int, backlog: int = socklib.SOMAXCONN):
        of = self._sock(t, fd, "listen")
        if of.pipe is not None:
            raise SyscallError(Errno.EISCONN, "listen")
        if not of.sock_bound:
            # Linux autobinds an unbound INET listener to an ephemeral
            # port; ours comes off the deterministic counter.
            if of.sock_family != socklib.AF_INET:
                raise SyscallError(Errno.EINVAL, "listen")
            of.sock_local = self.kernel.sockets.bind(
                socklib.AF_INET, "127.0.0.1:0")
            of.sock_bound = True
        of.listener = self.kernel.sockets.listen(
            of.sock_family, of.sock_local, backlog)
        of.path = "socket:[%s]" % of.sock_local
        return 0

    def sys_accept(self, t: Thread, fd: int):
        """Returns ``(connfd, peer_address)``; blocks on virtual time
        while the backlog is empty, exactly like a pipe read."""
        of = self._sock(t, fd, "accept")
        listener = of.listener
        if listener is None:
            raise SyscallError(Errno.EINVAL, "accept")
        if not listener.pending:
            raise WouldBlock([listener.accept_ready])
        to_server, to_client, peer = listener.pending.pop(0)
        self.kernel.sockets.touch()
        self.kernel.notify(listener.accept_slot)
        conn = OpenFile(kind=FdKind.SOCKET,
                        path="socket:[%s]" % of.sock_local,
                        pipe=to_server, peer_pipe=to_client,
                        sock_family=of.sock_family,
                        sock_local=of.sock_local, sock_peer=peer)
        return (t.process.fdtable.install(conn), peer)

    def sys_connect(self, t: Thread, fd: int, address: str = "example.com:80"):
        of = t.process.fdtable.get(fd)
        if of.kind is not FdKind.SOCKET:
            raise SyscallError(Errno.ENOTSOCK, "connect")
        if of.pipe is not None or of.socket is not None:
            raise SyscallError(Errno.EISCONN, "connect")
        if of.listener is not None:
            raise SyscallError(Errno.EINVAL, "connect")
        family = self._sock_family_for(address)
        if family is None:
            # External host: attach the fake network peer so packages
            # still *build* natively (and embed its irreproducible
            # answers); DetTrace's policy layer rejects this path.
            of.socket = _LoopbackSocket(self.kernel.clock)
            of.sock_peer = address
            return 0
        if family != of.sock_family:
            raise SyscallError(Errno.EAFNOSUPPORT, "connect", address)
        if family == socklib.AF_INET:
            address = self._canon_inet(address)
        listener = self.kernel.sockets.lookup(family, address)
        if listener is None:
            raise SyscallError(Errno.ECONNREFUSED, "connect", address)
        if listener.full:
            # Bounded backlog: park until an accept frees a slot.  This
            # check precedes every side effect because a retry re-runs
            # the whole body.
            raise WouldBlock([listener.accept_slot])
        to_server = self.kernel.new_pipe()
        to_client = self.kernel.new_pipe()
        for pipe in (to_server, to_client):
            pipe.open_reader()
            pipe.open_writer()
        if family == socklib.AF_INET:
            local = "127.0.0.1:%d" % self.kernel.sockets.alloc_port()
        else:
            local = ""  # unnamed AF_UNIX client end (autobind)
        of.sock_local = local
        of.sock_peer = address
        of.pipe = to_client          # receive direction
        of.peer_pipe = to_server     # send direction
        of.path = "socket:[%s->%s]" % (local or "unnamed", address)
        listener.pending.append((to_server, to_client, local))
        self.kernel.sockets.touch()
        self.kernel.notify(listener.accept_ready)
        return 0

    def sys_send(self, t: Thread, fd: int, data: bytes):
        of = t.process.fdtable.get(fd)
        if of.kind not in (FdKind.SOCKET, FdKind.SOCKETPAIR):
            raise SyscallError(Errno.ENOTSOCK, "send")
        return self.sys_write(t, fd, data)

    def sys_recv(self, t: Thread, fd: int, count: int):
        of = t.process.fdtable.get(fd)
        if of.kind not in (FdKind.SOCKET, FdKind.SOCKETPAIR):
            raise SyscallError(Errno.ENOTSOCK, "recv")
        return self.sys_read(t, fd, count)

    def sys_shutdown(self, t: Thread, fd: int, how: int = socklib.SHUT_RDWR):
        of = t.process.fdtable.get(fd)
        if of.kind not in (FdKind.SOCKET, FdKind.SOCKETPAIR):
            raise SyscallError(Errno.ENOTSOCK, "shutdown")
        if of.pipe is None or of.peer_pipe is None:
            raise SyscallError(Errno.ENOTCONN, "shutdown")
        if how not in (socklib.SHUT_RD, socklib.SHUT_WR, socklib.SHUT_RDWR):
            raise SyscallError(Errno.EINVAL, "shutdown")
        if how in (socklib.SHUT_RD, socklib.SHUT_RDWR) and not of.shut_rd:
            of.shut_rd = True
            self.kernel.notify(of.pipe.close_reader())
        if how in (socklib.SHUT_WR, socklib.SHUT_RDWR) and not of.shut_wr:
            of.shut_wr = True
            # The peer's pending reads drain the buffer, then see EOF.
            self.kernel.notify(of.peer_pipe.close_writer())
        return 0

    def sys_getsockname(self, t: Thread, fd: int):
        of = self._sock(t, fd, "getsockname")
        return of.sock_local

    def sys_ioctl(self, t: Thread, fd: int, request: str):
        of = t.process.fdtable.get(fd)
        if request == "TIOCGWINSZ":
            return (80, 24)
        if request == "FIONREAD":
            if of.is_pipe and of.pipe is not None:
                return of.pipe.bytes_buffered
            return 0
        raise SyscallError(Errno.ENOTTY, "ioctl", request)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def sys_prctl(self, t: Thread, option: str = "", value: int = 0):
        return 0

    def sys_perf_event_open(self, t: Thread, config: int = 0):
        """Perf counters: host-specific values; DetTrace rejects this."""
        return t.process.fdtable.install(OpenFile(kind=FdKind.DEVICE, path="perf:"))

    def sys_inotify_init(self, t: Thread):
        """Filesystem watches: event arrival is timing; DetTrace rejects."""
        return t.process.fdtable.install(OpenFile(kind=FdKind.DEVICE, path="inotify:"))

    def sys_bpf(self, t: Thread, prog: str = ""):
        return 0

    def sys_getauxval(self, t: Thread, key: str = "AT_SYSINFO_EHDR"):
        """Expose the vDSO base address, as libc's mkstemp path does (§5.3)."""
        if key == "AT_SYSINFO_EHDR":
            return t.process.aslr_base + 0x7000_0000
        return 0
