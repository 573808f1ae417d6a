"""Crash-consistent JSON persistence shared by structured reports.

``crash-report.json`` (:class:`repro.faults.report.CrashReport`) and
``divergence-report.json`` (:class:`repro.diag.report.DivergenceReport`)
use the same write discipline as the checkpoint journal: write to a
temp file in the same directory, flush, fsync, atomically rename over
the final name, then fsync the directory so the rename survives a power
loss.  A crash mid-write can leave a stale ``.tmp`` file behind but
never a truncated report at the destination path.

Like :mod:`repro.obs.events`, this module must stay dependency-free
within the tree (both the fault plane and the diagnosis plane import
it); its one import, :mod:`repro.durable`, imports nothing from
``repro``.
"""

from __future__ import annotations

import json
import os
from typing import Any

from ..durable import fsync_dir


def dumps_canonical(data: Any) -> str:
    """Deterministic, human-diffable JSON text (sorted keys, trailing
    newline) — byte-identical for equal report contents."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_json_atomic(path: str, data: Any) -> str:
    """Persist *data* as canonical JSON at *path*, atomically."""
    text = dumps_canonical(data)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.rename(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")
    return path
