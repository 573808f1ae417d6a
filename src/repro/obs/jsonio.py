"""Crash-consistent JSON persistence shared by structured reports.

``crash-report.json`` (:class:`repro.faults.report.CrashReport`),
``divergence-report.json`` (:class:`repro.diag.report.DivergenceReport`)
and fuzz corpus entries are written through the tree's one durable
writer, :func:`repro.durable.atomic_write`: a temp file in the same
directory, fsynced, atomically renamed over the final name, then a
directory fsync so the rename survives a power loss.  A crash mid-write
can leave a stale ``.tmp-`` file behind but never a truncated report at
the destination path.

Like :mod:`repro.obs.events`, this module must stay dependency-free
within the tree (both the fault plane and the diagnosis plane import
it); its one import, :mod:`repro.durable`, imports nothing from
``repro``.
"""

from __future__ import annotations

import json
from typing import Any

from ..durable import atomic_write


def dumps_canonical(data: Any) -> str:
    """Deterministic, human-diffable JSON text (sorted keys, trailing
    newline) — byte-identical for equal report contents."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_json_atomic(path: str, data: Any) -> str:
    """Persist *data* as canonical JSON at *path*, atomically."""
    atomic_write(path, dumps_canonical(data).encode("utf-8"))
    return path
