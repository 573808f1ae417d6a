"""Host-side durability primitives shared by every on-disk writer.

Two primitives, one per kind of write:

* :func:`atomic_write` replaces a whole file: a temp file beside the
  destination, fsynced, renamed over the final name, then a directory
  fsync so the rename itself survives a power loss.  The checkpoint
  journal (:mod:`repro.ckpt.journal`, a chain's full snapshot), the
  run cache (:mod:`repro.cache.store`), structured reports
  (:mod:`repro.obs.jsonio`) and the fuzz corpus persist files through
  it.  It is the one place in the tree that writes a file to rename it.
* :func:`append` adds one self-checking record to the end of an
  existing file (the journal's delta snapshots).  A crash mid-append
  leaves a torn tail, which the record's own length and checksum let
  a reader detect; the bytes before it are never touched.

This module is the bottom of that stack: it imports nothing from
``repro``, so any layer can depend on it without an import cycle.
"""

from __future__ import annotations

import itertools
import os

#: Per-process call counter naming temp files (with the pid).
_tmp_seq = itertools.count()


def fsync_dir(directory: str) -> None:
    """Best-effort directory fsync: persists completed renames."""
    try:
        dfd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


def atomic_write(path: str, data: bytes, durable: bool = True) -> None:
    """Replace *path* with *data*: a crash leaves old bytes or new, never torn.

    The bytes go to ``.tmp-<basename>.<pid>.<seq>`` beside *path* (same
    filesystem, so the rename is atomic), created exclusively with mode
    ``0o644`` less the umask.  The name is unique per process and call
    because fan-out workers store the same cache key at the same
    moment: with one shared temp name, one worker's rename takes the
    file from under another's.  Every byte is written (``os.write`` may
    write fewer), the file fsynced, renamed over *path*, and the
    directory fsynced.  On any failure the temp file is removed and the
    error re-raised.

    ``durable=False`` skips both fsyncs (the journal's group-committed
    deltas): still atomic, but a host crash may lose the write until a
    later durable write's directory fsync persists the rename.
    ``fsync`` and ``rename`` are looked up on :mod:`os` at call time:
    the benchmark counts fsyncs and tests fail renames by patching them.
    """
    directory = os.path.dirname(path) or "."
    prefix = os.path.join(directory, ".tmp-%s.%d." % (os.path.basename(path),
                                                     os.getpid()))
    while True:
        tmp = prefix + str(next(_tmp_seq))
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            break
        except FileExistsError:
            # Left by a killed process whose pid this one reuses.
            continue
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if durable:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.rename(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(directory)


def append(path: str, data: bytes, durable: bool = True) -> int:
    """Append *data* to the existing file *path*; returns its offset.

    The offset is where the file ended when the write began, so the
    caller learns where its record starts without a second stat.  Every
    byte is written (``os.write`` may write fewer), then the file is
    fsynced when *durable*; the directory is not, since the file's name
    is already as durable as the write that created it.  On any failure
    the file is cut back to its old length (best effort) and the error
    re-raised, so a failed append leaves no torn tail behind.  A host
    crash can still tear the tail: readers must detect a torn record.

    ``fsync`` is looked up on :mod:`os` at call time, like
    :func:`atomic_write`'s, so the benchmark can count it.
    """
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        offset = os.lseek(fd, 0, os.SEEK_END)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if durable:
                os.fsync(fd)
        except BaseException:
            try:
                os.ftruncate(fd, offset)
            except OSError:
                pass
            raise
    finally:
        os.close(fd)
    return offset
