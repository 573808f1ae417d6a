"""Files and directories (paper §5.5, §7.3).

* ``open`` — detect file creation by checking path existence before the
  call reaches the kernel and identifying the new real inode afterwards
  (the /proc trick), so recycled real inodes get fresh virtual inodes;
* ``stat``/``lstat``/``fstat`` — rewrite inode, timestamps, uid/gid,
  device and (the §7.3 portability extension) directory sizes;
* ``getdents`` — sort entries by name and virtualize their inode numbers;
* ``utime`` — replace null timestamps with reproducible ones, allocated
  in the tracee scratch page (§5.10).
"""

from __future__ import annotations

import dataclasses

from ...kernel.types import Dirent, StatResult
from . import Outcome, passthrough

#: The block size and device id DetTrace presents (§5.8's "canonical
#: cache size" idea applied to the filesystem).
CANONICAL_BLKSIZE = 4096
CANONICAL_DEV = 1

#: Deterministic directory size model: a pure function of entry count
#: (the extension §7.3 added after the cross-machine experiment).
DIR_SIZE_BASE = 4096
DIR_SIZE_PER_ENTRY = 32

RANDOM_DEVICES = ("/dev/random", "/dev/urandom")


def _deterministic_dir_size(n_entries: int) -> int:
    return DIR_SIZE_BASE + DIR_SIZE_PER_ENTRY * n_entries


def handle_open(tracer, thread, call) -> Outcome:
    path = call.args.get("path", "")
    tracer.peek_memory(1 + len(path) // 32)  # read the path string
    if path in RANDOM_DEVICES:
        tracer.obs.count(("tracer", "urandom_opens"))
    existed = tracer.resolve(thread, path) is not None
    outcome = tracer.kernel.execute(thread, call)
    if outcome[0] == "value" and tracer.config.virtualize_inodes:
        # Examine the newly-opened fd (the /proc/<pid>/fd analog) to find
        # the real inode, and detect creation via the pre/post check.
        of = thread.process.fdtable.get(outcome[1])
        if of.inode is not None and not existed:
            tracer.inodes.register_new_file(of.inode.ino)
    return outcome


def _virtualize_stat(tracer, st: StatResult,
                     n_dir_entries: int = 0) -> StatResult:
    cfg = tracer.config
    new = dataclasses.replace(st)
    if cfg.virtualize_inodes:
        new.st_ino = tracer.inodes.virtual_ino(st.st_ino)
        new.st_atime = 0.0
        new.st_ctime = 0.0
        new.st_mtime = float(tracer.inodes.virtual_mtime(st.st_ino))
        new.st_dev = CANONICAL_DEV
        new.st_blksize = CANONICAL_BLKSIZE
    if cfg.map_user_to_root:
        new.st_uid = tracer.uidmap.to_container_uid(st.st_uid)
        new.st_gid = tracer.uidmap.to_container_gid(st.st_gid)
    if cfg.deterministic_dir_sizes and st.is_dir():
        new.st_size = _deterministic_dir_size(n_dir_entries)
    new.st_blocks = (new.st_size + 511) // 512
    return new


def _stat_family(tracer, thread, call, resolve_node) -> Outcome:
    if "path" in call.args:
        tracer.peek_memory(1)
    outcome = tracer.kernel.execute(thread, call)
    if outcome[0] == "error":
        return outcome
    if outcome[0] != "value":
        raise AssertionError("stat: unexpected outcome %r" % outcome[0])
    node = resolve_node()
    n_entries = len(node.entries) if node is not None and node.is_dir else 0
    tracer.poke_memory(4)  # write the stat struct back
    return ("value", _virtualize_stat(tracer, outcome[1], n_entries))


def handle_stat(tracer, thread, call) -> Outcome:
    return _stat_family(tracer, thread, call,
                        lambda: tracer.resolve(thread, call.args["path"]))


def handle_fstat(tracer, thread, call) -> Outcome:
    def node():
        try:
            return thread.process.fdtable.get(call.args["fd"]).inode
        except Exception:
            return None

    return _stat_family(tracer, thread, call, node)


def _virtual_dirents(tracer, entries):
    return [Dirent(d_ino=tracer.inodes.virtual_ino(d.d_ino),
                   d_name=d.d_name, d_type=d.d_type)
            for d in entries]


def handle_getdents(tracer, thread, call) -> Outcome:
    """The chunked API means the fs hands entries back a buffer at a
    time; to sort, DetTrace drains the whole stream on the first call
    (injecting repeat syscalls, §5.10), sorts once, and serves the
    caller's chunks from the sorted buffer."""
    if not tracer.config.sort_getdents:
        outcome = tracer.kernel.execute(thread, call)
        if outcome[0] != "value" or not tracer.config.virtualize_inodes:
            return outcome
        return ("value", _virtual_dirents(tracer, outcome[1]))

    fd = call.args.get("fd")
    max_entries = call.args.get("max_entries")
    try:
        of = thread.process.fdtable.get(fd)
    except Exception:
        return passthrough(tracer, thread, call)
    entries = of.dirents
    if entries is not None and of.offset == 0 and of.dirents_pos > 0:
        entries = None   # the guest lseek'd back: rewind means re-drain
    if entries is None:
        # Drain: re-execute until the kernel's cursor is exhausted
        # (syscall injection, §5.10), then sort once.
        collected = []
        while True:
            outcome = tracer.kernel.execute(thread,
                                            call.replaced(max_entries=None))
            if outcome[0] == "error":
                return outcome
            if outcome[0] != "value":
                raise AssertionError("getdents: unexpected outcome %r"
                                     % outcome[0])
            if not outcome[1]:
                break
            collected.extend(outcome[1])
        entries = sorted(collected, key=lambda d: d.d_name)
        if tracer.config.virtualize_inodes:
            entries = _virtual_dirents(tracer, entries)
        tracer.obs.count(("tracer", "getdents_sorted"))
        of.dirents = entries
        of.dirents_pos = 0
    pos = of.dirents_pos
    chunk = entries[pos:] if max_entries is None else entries[pos:pos + max_entries]
    of.dirents_pos = pos + len(chunk)
    tracer.poke_memory(1 + len(chunk) // 4)
    return ("value", chunk)


def handle_utime(tracer, thread, call) -> Outcome:
    if not tracer.config.virtualize_inodes:
        return passthrough(tracer, thread, call)
    # A touch must be *visible* through the virtual mtime map, or
    # touch-driven incremental rebuilds stop working (§5.5's "could
    # easily be added" extension).
    node = tracer.resolve(thread, call.args.get("path", ""))
    if node is not None:
        stamp = tracer.inodes.touch(node.ino)
    else:
        stamp = tracer.inodes.mtime_clock
    if call.args.get("times") is None:
        # Null times would make the kernel stamp wall-clock now; allocate
        # a reproducible timespec in the tracee scratch page instead.
        tracer.poke_memory(4)
        call = call.replaced(times=(0.0, float(stamp)))
    return passthrough(tracer, thread, call)


HANDLERS = {
    "open": handle_open,
    "stat": handle_stat,
    "lstat": handle_stat,
    "fstat": handle_fstat,
    "getdents": handle_getdents,
    "utime": handle_utime,
}
