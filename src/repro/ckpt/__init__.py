"""Crash-consistent checkpoint/restore with deterministic resume.

A checkpoint is a *complete* serialization of the deterministic state of
a run — kernel (filesystem, inodes, fds, pipes, signals, timers,
procfs), the reproducible scheduler's heaps and token state, guest
process continuations, the tracer's PRNG/logical clocks, and the
observability counters — taken at a virtual-time barrier between kernel
events.  Restoring a checkpoint and continuing the run produces
byte-identical traces, metrics and output to a never-interrupted run:
the strongest robustness property a deterministic container can claim.

Layout:

* :mod:`repro.ckpt.tape` — the resume tape: guest continuations are
  Python generator frames (unserializable by design), so every value or
  exception the kernel ever feeds a guest generator is recorded on an
  append-only tape.  Restore rebuilds the frames by *fast-forwarding*:
  re-driving the (pure) guest code with the taped inputs.
* :mod:`repro.ckpt.snapshot` — capture/restore of everything else,
  which is plain data and snapshots wholesale.  It records the kernel's
  own data once: a pending event as the name of one of the kernel's
  five event methods, a target id and its arguments, and a device node
  by its inode key like any other inode (restore grafts its live hooks
  from the fresh kernel's node with that key).
* :mod:`repro.ckpt.journal` — the on-disk journal, one file per chain:
  a full snapshot starts the file (temp file + fsync + atomic rename)
  and each delta on it is appended as one more record, every record
  under a header carrying the format version, the config fingerprint
  and a content checksum, so a torn record is always detected and
  never used.
* :mod:`repro.ckpt.merkle` — Merkle fingerprints over payloads:
  per-inode leaves, directory interior nodes and one digest per section
  as captured, maintained incrementally along delta chains so
  verification and bisection hash O(changed).  Digests hash values,
  not pickle's sharing of objects, so a run resumed from any barrier
  fingerprints equal to the uninterrupted run.
* :mod:`repro.ckpt.manager` — the barrier hook the kernel drives
  (``kernel.ckpt``) and the startup recovery scan.

Snapshots come in two kinds since format 2: periodic **full** captures
and **delta** records between them, carrying only the inodes in the
filesystem's dirty set plus the payload sections whose version stamps
moved — making checkpoint cost proportional to state *changed*, not
state *held*.

Journals are outputs: every id a payload records (pipe ids, open
description keys) is a function of the run, so two runs of the same
command, config and host write byte-identical journals.
"""

from .journal import JournalError, SnapshotInfo, prune, scan, write_snapshot
from .manager import CheckpointManager, RecoveryManager
from .merkle import MerkleCursor, merkle_fingerprint
from .snapshot import (
    FULL_SCOPE,
    GUEST_SCOPE,
    CheckpointUnsupported,
    RestoreError,
    Snapshot,
    capture,
    capture_delta,
    materialize_delta,
    restore,
    section_stamps,
)
from .tape import OPAQUE, encode_value, decode_value

__all__ = [
    "CheckpointManager",
    "CheckpointUnsupported",
    "FULL_SCOPE",
    "GUEST_SCOPE",
    "JournalError",
    "MerkleCursor",
    "OPAQUE",
    "RecoveryManager",
    "RestoreError",
    "Snapshot",
    "SnapshotInfo",
    "capture",
    "capture_delta",
    "decode_value",
    "encode_value",
    "materialize_delta",
    "merkle_fingerprint",
    "prune",
    "restore",
    "scan",
    "section_stamps",
    "write_snapshot",
]
