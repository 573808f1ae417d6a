"""Host-side durability primitives shared by every on-disk writer.

The checkpoint journal (:mod:`repro.ckpt.journal`), the run cache
(:mod:`repro.cache.store`), structured reports (:mod:`repro.obs.jsonio`)
and the fuzz corpus all persist files through :func:`atomic_write`: a
temp file beside the destination, fsynced, renamed over the final name,
then a directory fsync so the rename itself survives a power loss.  It
is the one place in the tree that writes a file to rename it.  This
module is the bottom of that stack: it imports nothing from ``repro``,
so any layer can depend on it without an import cycle.
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
