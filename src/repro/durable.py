"""Host-side durability primitives shared by every on-disk writer.

The checkpoint journal (:mod:`repro.ckpt.journal`), the run cache
(:mod:`repro.cache.store`) and structured reports
(:mod:`repro.obs.jsonio`) all write a temp file, fsync it, rename it
over the final name and then fsync the directory so the rename itself
survives a power loss.  This module is the bottom of that stack: it
imports nothing from ``repro``, so any layer can depend on it without
an import cycle.
"""

from __future__ import annotations

import os


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
