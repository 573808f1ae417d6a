"""The fuzzer's guest-side interpreter.

One fixed, module-level guest program (:func:`fuzz_guest_main`) executes
whatever op list it finds at ``/fuzz/program.json``.  Keeping the binary
fixed and shipping the program as image *content* means:

* the image stays a pure function of the :class:`~repro.fuzz.grammar.
  ProgramSpec` (the paper's input model);
* the parallel axis can rebuild the image inside forked workers from a
  plain dict — only JSON crosses the pickle boundary.

The interpreter logs one line per op (so any behavioral difference shows
up in stdout, which every matrix cell compares byte-for-byte) and embeds
a small POSIX oracle:

* ``rename`` outcomes are checked against the POSIX kind rules — a
  non-directory landing on a directory must fail EISDIR, a directory on
  a non-directory ENOTDIR — and a silent success prints ``VIOLATION``;
* the ``audit`` op walks the tree and checks that every directory's
  nlink is ``2 + subdirs``, every regular file's nlink equals the number
  of names sharing its inode, and that no *orphan* (open fd with
  ``st_nlink == 0``) shares an inode number with a live named file —
  the unlink-while-open recycling bug in one line of output;
* the late ``spawnwait`` variant checks that a blocked ``wait4(-1)``
  reaps a child spawned after it first blocked;
* ``lockwait`` checks that a futex lock loses no update of the counter
  it guards, also when a release is a plain store with no FUTEX_WAKE.

Harnesses treat any ``VIOLATION`` line (or nonzero exit) as a failed
run, independent of the cross-config comparison.
"""

from __future__ import annotations

import json

from ..core.image import Image
from ..kernel.errors import Errno, SyscallError
from ..kernel.types import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_WRONLY,
    S_IFLNK,
    S_IFMT,
    SIGALRM,
    SIGPIPE,
)

SPEC_PATH = "/fuzz/program.json"
#: The binary a ``spawnwait`` op runs in its child processes.
CHILD_PATH = "/bin/fuzz-child"

_OPEN_MODES = {
    "r": O_RDONLY,
    "w": O_WRONLY | O_CREAT,
    "rw": O_RDWR | O_CREAT,
}


def _errname(err: SyscallError) -> str:
    try:
        return Errno(err.errno).name
    except ValueError:  # pragma: no cover - unknown errno
        return "E%d" % err.errno


def _kind_char(st) -> str:
    if st.is_dir():
        return "d"
    if st.is_regular():
        return "f"
    if (st.st_mode & S_IFMT) == S_IFLNK:
        return "l"
    return "o"


def build_image(spec) -> Image:
    """The container image for one program spec."""
    image = Image()
    image.add_dir("/fuzz")
    image.add_file(SPEC_PATH, spec.to_json())
    image.add_binary("/bin/fuzz", fuzz_guest_main)
    image.add_binary(CHILD_PATH, fuzz_child_main)
    return image


def fuzz_guest_main(sys):
    """Interpret the op list at SPEC_PATH.  Returns exit code 0 unless
    the interpreter itself breaks (oracle failures print VIOLATION lines
    instead, so the run stays comparable across configs)."""
    raw = yield from sys.read_file(SPEC_PATH)
    ops = json.loads(raw.decode())["ops"]
    slots = {}

    for i, op in enumerate(ops):
        tag = "%03d" % i
        out = yield from _interpret(sys, op, slots, tag, "m")
        yield from sys.println("%s %s %s" % (tag, op["op"], out))
    # Close leftover slots so the kernel-side teardown path is exercised
    # identically no matter which ops survived shrinking.
    for slot in sorted(slots):
        try:
            yield from sys.close(slots[slot])
        except SyscallError:
            pass
    return 0


def fuzz_child_main(sys):
    """A ``spawnwait`` child: argv is (path, log tag, JSON op body,
    gate).  A ``gated`` child first reads stdin to EOF."""
    _path, tag, body, gate = sys.argv
    if gate == "gated":
        while (yield from sys.read(0, 64)):
            pass
    slots = {}
    for j, op in enumerate(json.loads(body)):
        out = yield from _interpret(sys, op, slots, "%s.%d" % (tag, j), "c")
        yield from sys.println("%s.%d %s %s" % (tag, j, op["op"], out))
    return 0


def _interpret(sys, op, slots, tag, who):
    """Execute one op; returns the outcome string to log."""
    kind = op["op"]
    try:
        if kind == "write":
            yield from sys.write_file(op["path"], op["data"].encode())
            return "ok"
        if kind == "append":
            fd = yield from sys.open(op["path"],
                                     O_WRONLY | O_CREAT | O_APPEND)
            n = yield from sys.write_all(fd, op["data"].encode())
            yield from sys.close(fd)
            return "ok:%d" % n
        if kind == "mkdir":
            yield from sys.mkdir(op["path"])
            return "ok"
        if kind == "rename":
            return (yield from _rename_with_oracle(sys, op))
        if kind == "link":
            yield from sys.syscall("link", target=op["target"],
                                   linkpath=op["path"])
            return "ok"
        if kind == "symlink":
            yield from sys.symlink(op["target"], op["path"])
            return "ok"
        if kind == "unlink":
            yield from sys.unlink(op["path"])
            return "ok"
        if kind == "rmdir":
            yield from sys.syscall("rmdir", path=op["path"])
            return "ok"
        if kind == "open":
            if op["slot"] in slots:
                try:
                    yield from sys.close(slots.pop(op["slot"]))
                except SyscallError:
                    pass
            fd = yield from sys.open(op["path"], _OPEN_MODES[op["mode"]])
            slots[op["slot"]] = fd
            return "ok"
        if kind == "close":
            if op["slot"] not in slots:
                return "empty"
            yield from sys.close(slots.pop(op["slot"]))
            return "ok"
        if kind == "writefd":
            if op["slot"] not in slots:
                return "empty"
            n = yield from sys.write_all(slots[op["slot"]],
                                         op["data"].encode())
            return "ok:%d" % n
        if kind == "readfd":
            if op["slot"] not in slots:
                return "empty"
            data = yield from sys.read(slots[op["slot"]], op["count"])
            return "ok:%r" % (bytes(data),)
        if kind == "fstat":
            if op["slot"] not in slots:
                return "empty"
            st = yield from sys.fstat(slots[op["slot"]])
            return "nlink=%d size=%d %s" % (st.st_nlink, st.st_size,
                                            _kind_char(st))
        if kind == "stat":
            st = yield from sys.stat(op["path"])
            return "nlink=%d size=%d %s" % (st.st_nlink, st.st_size,
                                            _kind_char(st))
        if kind == "listdir":
            names = sorted((yield from sys.listdir(op["path"])))
            return ",".join(names) or "(empty)"
        if kind == "readfile":
            data = yield from sys.read_file(op["path"])
            return "ok:%d:%r" % (len(data), bytes(data[:16]))
        if kind == "time":
            return "t=%d" % (yield from sys.time())
        if kind == "random":
            return (yield from sys.getrandom(op["count"])).hex()
        if kind == "pipe":
            r, w = yield from sys.pipe()
            yield from sys.write_all(w, op["data"].encode())
            yield from sys.close(w)
            data = yield from sys.read_exact(r, len(op["data"]))
            yield from sys.close(r)
            return "ok:%r" % (bytes(data),)
        if kind == "sleep":
            yield from sys.sleep(op["seconds"])
            return "ok"
        if kind == "compute":
            yield from sys.compute(op["work"])
            return "ok"
        if kind == "alarm":
            return (yield from _alarm(sys, op["seconds"]))
        if kind == "killself":
            return (yield from _killself(sys))
        if kind == "threads":
            return (yield from _threads(sys, op, tag))
        if kind == "spawnwait":
            return (yield from _spawnwait(sys, op, tag))
        if kind == "lockwait":
            return (yield from _lockwait(sys, op, tag))
        if kind == "audit":
            return (yield from _audit(sys, slots))
        if kind == "sock":
            return (yield from _sock(sys, op))
        if kind == "dup2pipe":
            return (yield from _dup2pipe(sys, op))
        if kind == "sigpipe":
            return (yield from _sigpipe(sys))
        return "unknown-op"
    except SyscallError as err:
        return _errname(err)


def _rename_with_oracle(sys, op):
    """rename plus the POSIX kind oracle (EISDIR/ENOTDIR rules)."""
    old_st = new_st = None
    try:
        old_st = yield from sys.lstat(op["old"])
    except SyscallError:
        pass
    try:
        new_st = yield from sys.lstat(op["new"])
    except SyscallError:
        pass
    try:
        yield from sys.rename(op["old"], op["new"])
    except SyscallError as err:
        return _errname(err)
    if old_st is None:
        return "VIOLATION rename-of-missing-succeeded %s" % op["old"]
    if new_st is not None and old_st.is_dir() and not new_st.is_dir():
        return "VIOLATION rename-dir-onto-nondir-succeeded want=ENOTDIR"
    if new_st is not None and not old_st.is_dir() and new_st.is_dir():
        return "VIOLATION rename-nondir-onto-dir-succeeded want=EISDIR"
    return "ok"


def _sock(sys, op):
    """One full stream-socket exchange: listen, connect (the backlog
    queues it), accept, echo, half-close.  Single-threaded on purpose —
    connect completes before accept per TCP backlog semantics, so the
    whole connect/accept/send/recv/shutdown surface runs without any
    scheduler dependence.  Oracles: the echo must round-trip uppercased
    and the client's SHUT_WR must read back as EOF on the server."""
    from ..guest import libc

    data = op["data"].encode()
    lfd = yield from libc.sock_stream_server(sys, op["address"],
                                             op.get("backlog", 8))
    address = yield from sys.getsockname(lfd)   # resolves ":0" draws
    cfd = yield from libc.sock_stream_client(sys, address)
    conn, peer = yield from sys.accept(lfd)
    yield from libc.send_all(sys, cfd, data)
    got = yield from libc.recv_exact(sys, conn, len(data))
    yield from libc.send_all(sys, conn, got.upper())
    echo = yield from libc.recv_exact(sys, cfd, len(data))
    yield from sys.shutdown(cfd, 1)             # SHUT_WR
    eof = yield from sys.recv(conn, 8)
    for fd in (conn, cfd, lfd):
        yield from sys.close(fd)
    if echo != data.upper():
        return "VIOLATION sock-echo-mismatch got=%r" % (bytes(echo),)
    if eof != b"":
        return "VIOLATION sock-shutdown-not-eof got=%r" % (bytes(eof),)
    return "ok:%d addr=%s peer=%s" % (len(echo), address, peer or "unnamed")


def _dup2pipe(sys, op):
    """dup2 over a pipe's last write fd: the displaced fd must go
    through full close teardown, so the reader drains the buffer and
    then sees EOF instead of blocking forever (FDTable.dup2 fix)."""
    data = op["data"].encode()
    r, w = yield from sys.pipe()
    spare = yield from sys.open("/fuzz/dup2-spare", _OPEN_MODES["w"])
    yield from sys.write_all(w, data)
    yield from sys.dup2(spare, w)               # implicit close of w
    got = yield from sys.read(r, len(data))
    eof = yield from sys.read(r, 8)
    for fd in (r, w, spare):
        try:
            yield from sys.close(fd)
        except SyscallError:
            pass
    if eof != b"":
        return "VIOLATION dup2-missing-eof got=%r" % (bytes(eof),)
    return "ok:%d" % len(got)


def _sigpipe(sys):
    """Write to a reader-less pipe twice: once with a counting handler
    (SIGPIPE must be *delivered*, not just mapped to EPIPE) and once
    with SIG_IGN (plain EPIPE, no death).  Restores SIG_IGN before
    returning so later ops can't be killed by a stray SIGPIPE."""
    fired_key = "sigpipe_fired"

    def on_sigpipe(hsys, signum):
        hsys.mem[fired_key] = hsys.mem.get(fired_key, 0) + 1
        yield from hsys.compute(1e-6)

    outcomes = []
    before = sys.mem.get(fired_key, 0)      # a program may run this twice
    yield from sys.sigaction(SIGPIPE, on_sigpipe)
    r, w = yield from sys.pipe()
    yield from sys.close(r)
    try:
        yield from sys.write_all(w, b"x")
        outcomes.append("wrote")
    except SyscallError as err:
        outcomes.append(_errname(err))
    yield from sys.sched_yield()                # drain the handler frame
    yield from sys.close(w)

    yield from sys.sigaction(SIGPIPE, "ignore")
    r, w = yield from sys.pipe()
    yield from sys.close(r)
    try:
        yield from sys.write_all(w, b"y")
        outcomes.append("wrote")
    except SyscallError as err:
        outcomes.append(_errname(err))
    yield from sys.close(w)

    fired = sys.mem.get(fired_key, 0) - before
    if outcomes != ["EPIPE", "EPIPE"]:
        return "VIOLATION sigpipe-not-epipe outcomes=%s" % ",".join(outcomes)
    if fired != 1:
        return "VIOLATION sigpipe-not-delivered fired=%d want=1" % fired
    return "ok:fired=%d" % fired


def _alarm(sys, seconds):
    """sigaction + alarm + pause; logs whether the handler fired."""
    def on_alarm(hsys, signum):
        hsys.mem["alarm_fired"] = hsys.mem.get("alarm_fired", 0) + 1
        yield from hsys.compute(1e-6)

    yield from sys.sigaction(SIGALRM, on_alarm)
    yield from sys.alarm(seconds)
    try:
        yield from sys.pause()
    except SyscallError as err:
        if err.errno != Errno.EINTR:
            return _errname(err)
    return "fired=%d" % sys.mem.get("alarm_fired", 0)


def _killself(sys):
    """Deliver SIGALRM to self through kill(2) (handler, not death)."""
    def on_sig(hsys, signum):
        hsys.mem["self_sig"] = hsys.mem.get("self_sig", 0) + 1
        yield from hsys.compute(1e-6)

    yield from sys.sigaction(SIGALRM, on_sig)
    pid = yield from sys.getpid()
    yield from sys.kill(pid, SIGALRM)
    return "sig=%d" % sys.mem.get("self_sig", 0)


def _threads(sys, op, tag):
    """Spawn one thread per body; each interprets its ops, then main
    joins on a shared-memory counter (the futex-free idiom)."""
    bodies = op["bodies"]
    done_key = "threads_done_" + tag

    def worker_for(index, body):
        def worker(wsys):
            wslots = {}
            for j, wop in enumerate(body):
                out = yield from _interpret(wsys, wop, wslots,
                                            "%s.t%d.%d" % (tag, index, j),
                                            "t%d" % index)
                yield from wsys.println(
                    "%s.t%d.%d %s %s" % (tag, index, j, wop["op"], out))
            for slot in sorted(wslots):
                try:
                    yield from wsys.close(wslots[slot])
                except SyscallError:
                    pass
            wsys.mem[done_key] = wsys.mem.get(done_key, 0) + 1
        return worker

    for index, body in enumerate(bodies):
        yield from sys.spawn_thread(worker_for(index, body))
    # Join on a blocking syscall, not a sched_yield spin: under the
    # serialized-thread scheduler only a *blocking* call reliably cedes
    # the quantum to the workers.
    while sys.mem.get(done_key, 0) < len(bodies):
        yield from sys.sleep(0.01)
    return "joined=%d" % len(bodies)


def _spawnwait(sys, op, tag):
    """A child process interprets a thread-menu body while this thread
    blocks in wait4.

    With ``late``, a sibling thread spawns a second, empty child once
    this thread has announced its wait, so that child was no candidate
    when the wait4(-1) first blocked.  The first child reads a pipe to
    EOF before its body, and this thread holds the write end until the
    first wait4 returns: that wait4 can only reap the late child, and
    reaping them in any other order prints VIOLATION."""
    argv = [CHILD_PATH, tag + ".c", json.dumps(op["body"])]
    if not op["late"]:
        pid = yield from sys.spawn(CHILD_PATH, argv + ["free"])
        res = yield from sys.waitpid(pid)
        return "ok:status=%d" % res.status
    waiting_key, late_key = "spawnwait_wait_" + tag, "spawnwait_late_" + tag
    r, w = yield from sys.pipe()
    early = yield from sys.spawn(CHILD_PATH, argv + ["gated"], stdin=r,
                                 close_fds=[w])
    yield from sys.close(r)

    def spawner(tsys):
        while not tsys.mem.get(waiting_key):
            yield from tsys.sleep(0.01)
        tsys.mem[late_key] = yield from tsys.spawn(
            CHILD_PATH, [CHILD_PATH, tag + ".l", "[]", "free"],
            close_fds=[w])

    yield from sys.spawn_thread(spawner)
    sys.mem[waiting_key] = 1
    first = yield from sys.waitpid(-1)
    yield from sys.close(w)
    second = yield from sys.waitpid(-1)
    while late_key not in sys.mem:          # join the spawner
        yield from sys.sleep(0.01)
    if (first.pid, second.pid) != (sys.mem[late_key], early):
        return "VIOLATION spawnwait-late-child-not-reaped-first"
    return "ok:status=%d,%d" % (first.status, second.status)


def _lockwait(sys, op, tag):
    """Worker threads add to a shared counter under a futex lock
    (``lock_acquire``/``lock_release``), while main joins on a
    shared-memory count as ``threads`` does.

    Each worker makes two syscalls while it holds the lock.  Each
    serviced call hands the step token on, so the other workers run,
    and their acquires block in FUTEX_WAIT.  With ``store``, a worker
    releases by a plain store of 0 and makes no FUTEX_WAKE, so its
    waiters can only learn of the release by probing the word.  A lost
    update prints VIOLATION."""
    lock = "lockwait_lock_" + tag
    count_key, done_key = "lockwait_n_" + tag, "lockwait_done_" + tag

    def worker(wsys):
        for _ in range(op["rounds"]):
            yield from wsys.lock_acquire(lock)
            seen = wsys.mem.get(count_key, 0)
            yield from wsys.stat(".")
            yield from wsys.stat(".")
            wsys.mem[count_key] = seen + 1
            if op["store"]:
                wsys.mem[lock] = 0
            else:
                yield from wsys.lock_release(lock)
        wsys.mem[done_key] = wsys.mem.get(done_key, 0) + 1

    for _ in range(op["threads"]):
        yield from sys.spawn_thread(worker)
    while sys.mem.get(done_key, 0) < op["threads"]:
        yield from sys.sleep(0.01)
    if sys.mem[count_key] != op["threads"] * op["rounds"]:
        return "VIOLATION lockwait-lost-update"
    return "ok:count=%d" % sys.mem[count_key]


def _audit(sys, slots):
    """Walk the tree and check the POSIX bookkeeping invariants."""
    pending = ["."]
    dir_info = []          # (path, st_nlink, n_subdirs)
    ino_groups = {}        # st_ino -> [(path, st_nlink)]
    while pending:
        d = pending.pop(0)
        try:
            names = sorted((yield from sys.listdir(d)))
        except SyscallError:
            continue
        nsub = 0
        for name in names:
            path = d + "/" + name
            try:
                st = yield from sys.lstat(path)
            except SyscallError:
                continue
            if st.is_dir():
                nsub += 1
                pending.append(path)
            elif st.is_regular():
                ino_groups.setdefault(st.st_ino, []).append(
                    (path, st.st_nlink))
        try:
            dst = yield from sys.stat(d)
            dir_info.append((d, dst.st_nlink, nsub))
        except SyscallError:
            continue
    violations = []
    for d, nlink, nsub in dir_info:
        if nlink != 2 + nsub:
            violations.append("dir-nlink %s have=%d want=%d"
                              % (d, nlink, 2 + nsub))
    for ino in sorted(ino_groups):
        group = ino_groups[ino]
        for path, nlink in group:
            if nlink != len(group):
                violations.append("file-nlink %s have=%d want=%d"
                                  % (path, nlink, len(group)))
    # Orphan identity: an unlinked-but-open file must keep its inode
    # number to itself until the last close.
    for slot in sorted(slots):
        try:
            st = yield from sys.fstat(slots[slot])
        except SyscallError:
            continue
        if st.is_regular() and st.st_nlink == 0 and st.st_ino in ino_groups:
            violations.append("ino-reuse slot=%s ino=%d shared-with=%s"
                              % (slot, st.st_ino,
                                 ino_groups[st.st_ino][0][0]))
    for v in violations:
        yield from sys.println("VIOLATION " + v)
    return "dirs=%d files=%d viol=%d" % (
        len(dir_info), sum(len(g) for g in ino_groups.values()),
        len(violations))
