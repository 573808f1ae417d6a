"""Barrier-driven checkpoint manager and the startup recovery scan.

The :class:`CheckpointManager` lives on ``kernel.ckpt`` for the whole
run.  It plays two roles:

* **tape recorder** — the kernel calls the ``record_*`` hooks at every
  generator interaction so guest continuations stay reconstructible
  (see :mod:`repro.ckpt.tape`);
* **barrier trigger** — after each event the kernel calls
  :meth:`maybe_barrier`, which snapshots when the configured interval
  elapses or an external request (SIGTERM) is pending.

A snapshot failure (e.g. :class:`CheckpointUnsupported` state such as
an open loopback socket) is recorded on ``last_error`` and never kills
the run — checkpointing is strictly best-effort and must not perturb
the run it protects.

The :class:`RecoveryManager` is the startup half: scan the journal
(each chain file read once), skip torn/corrupt records, hand back the
newest valid snapshot, materialized from the bytes the scan read.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import journal
from .merkle import MerkleCursor
from .snapshot import (
    GUEST_SCOPE,
    CheckpointUnsupported,
    Snapshot,
    capture,
    capture_delta,
    materialize_delta,
    section_stamps,
)
from .tape import encode_tape, shallow_copy


class CheckpointManager:
    """Records the resume tape and writes barrier snapshots.

    With ``full_every > 1`` the manager writes **delta snapshots**
    between periodic full ones and appends each to its chain's file
    (:mod:`repro.ckpt.journal`).  A delta carries the inodes in the
    filesystem's dirty set, the volatile sections and the sections
    whose version stamp moved since the record before it
    (:func:`repro.ckpt.snapshot.section_stamps`).  ``full_every=1``
    writes every snapshot full, one file each.  Any capture or write
    failure resets the incremental state so the next snapshot is a
    self-contained full one, in a new file.

    Pruning runs over an in-memory *manifest* of the journal: one
    :func:`repro.ckpt.journal.scan` the first time the manager prunes
    (which also finds files an earlier run left behind), then one entry
    per record this manager writes and the entries of every file it
    removes dropped.  A file can fall out only while the newest chain
    holds at most ``keep`` records (once it holds more, the newest
    ``keep`` all live in its file and every older file is already
    gone), so the manager prunes at those barriers only.  That relies
    on the manager being the journal directory's only writer; recovery
    still re-validates every record it reads.
    """

    def __init__(self, directory: str, every: int = 0, keep: int = 3,
                 fingerprint: str = "", full_every: int = 4) -> None:
        self.directory = directory
        self.every = every
        self.keep = keep
        self.fingerprint = fingerprint
        self.full_every = max(1, int(full_every))
        #: Set asynchronously (e.g. from a SIGTERM handler); the next
        #: barrier check snapshots and clears it.
        self.requested = False
        self.tape: List[Tuple] = []
        self.snapshots_taken = 0
        self.last_barrier = -1
        self.last_error = ""
        #: Manager-local gauges (never routed through ``kernel.obs``:
        #: checkpointing must not perturb the run it protects).
        self.snapshots_delta = 0
        self.snapshot_bytes = 0
        #: Incrementally-maintained ``encode_tape`` of ``self.tape``:
        #: each entry is encoded once, at the first snapshot after it
        #: was recorded, so full snapshots never re-encode the whole
        #: history.  Deliberately *not* cleared by
        #: ``_reset_incremental`` — the tape itself only ever appends.
        self._tape_encoded: List[Tuple] = []
        #: What :func:`journal.scan` would return for ``directory``,
        #: newest first; ``None`` until the first prune seeds it.
        self._manifest: Optional[List[journal.SnapshotInfo]] = None
        #: Whether the journal directory is known to exist.
        self._directory_made = False
        self._reset_incremental()

    def _reset_incremental(self) -> None:
        """Forget the delta base: the next snapshot will be full."""
        #: The newest record of the current chain, and the section
        #: stamps at its barrier.
        self._base: Optional[journal.SnapshotInfo] = None
        self._stamps: Dict[str, Any] = {}
        self._last_tape_len = 0

    # -- external trigger -----------------------------------------------

    def request(self) -> None:
        """Ask for a snapshot at the next barrier (signal-safe: only
        flips a flag)."""
        self.requested = True

    # -- tape hooks (hot path: keep them allocation-light) ---------------

    def record_step(self, tid: int, value: Any,
                    exc: Optional[BaseException]) -> None:
        if exc is not None:
            self.tape.append(("throw", tid, exc))
        else:
            self.tape.append(("send", tid, shallow_copy(value)))

    def record_push(self, tid: int, signum: int, saved_value: Any,
                    saved_exc: Optional[BaseException]) -> None:
        self.tape.append(
            ("push", tid, signum, shallow_copy(saved_value), saved_exc))

    def record_spawn(self, tid: int, path: str, argv, env) -> None:
        self.tape.append(("spawn", tid, path, list(argv), dict(env)))

    def record_exec(self, tid: int, path: str, argv, env) -> None:
        self.tape.append(("exec", tid, path, list(argv), dict(env)))

    def record_tspawn(self, tid: int, caller_tid: int) -> None:
        self.tape.append(("tspawn", tid, caller_tid))

    def record_sigact(self, tid: int, signum: int) -> None:
        self.tape.append(("sigact", tid, signum))

    # -- barrier ----------------------------------------------------------

    def maybe_barrier(self, kernel) -> None:
        tick = kernel.events_processed
        requested = self.requested
        due = requested or (self.every > 0 and tick % self.every == 0)
        if not due or tick == self.last_barrier:
            return
        self.requested = False
        try:
            # Periodic deltas are group-committed (no fsync) — the next
            # full snapshot is the durability barrier.  Requested
            # snapshots (SIGTERM) must survive the imminent kill, so
            # they are always written durably.
            self.snapshot(kernel, durable=requested)
        except CheckpointUnsupported as err:
            self.last_error = str(err)
            self._reset_incremental()
        except (pickle.PicklingError, TypeError, OSError) as err:
            self.last_error = "%s: %s" % (type(err).__name__, err)
            self._reset_incremental()

    def snapshot(self, kernel, durable: bool = True) -> str:
        """Capture and persist a snapshot right now; returns its
        ``path@offset`` address.

        Appends a delta to the current chain while it holds fewer than
        ``full_every`` records; otherwise starts a new chain file with a
        full snapshot.  Full snapshots are always fsynced; *durable*
        controls whether a delta is too (periodic deltas group-commit,
        see :func:`repro.ckpt.journal.write_snapshot`).
        """
        tick = kernel.events_processed
        stamps = section_stamps(kernel)
        base = self._base
        if base is not None and base.chain_depth + 1 < self.full_every:
            delta = capture_delta(
                kernel, self._stamps, stamps, self._encoded_tape(),
                self._last_tape_len)
            blob = pickle.dumps(delta, pickle.HIGHEST_PROTOCOL)
            info = journal.write_snapshot(
                self.directory, tick, kernel.clock.now, self.fingerprint,
                blob, base=base, durable=durable)
            self.snapshots_delta += 1
        else:
            payload = capture(kernel, self._encoded_tape())
            blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
            if not self._directory_made:
                os.makedirs(self.directory, exist_ok=True)
                self._directory_made = True
            info = journal.write_snapshot(
                self.directory, tick, kernel.clock.now, self.fingerprint,
                blob)
        self._base = info
        self._stamps = stamps
        self._last_tape_len = len(self.tape)
        # Only after the journal write landed: a failed capture must
        # leave the dirty set intact for the next (full) snapshot.
        kernel.fs.clear_dirty()
        self.snapshot_bytes += len(blob)
        self.snapshots_taken += 1
        self.last_barrier = tick
        self.last_error = ""
        if self._manifest is not None:
            if info.offset == 0:
                # A new chain file, possibly over an older one's name.
                self._manifest = [i for i in self._manifest
                                  if i.path != info.path]
            self._manifest.append(info)
            journal.newest_first(self._manifest)
        if 0 < self.keep and info.chain_depth < self.keep:
            self._prune()
        return info.address

    def _encoded_tape(self) -> List[Tuple]:
        """The whole tape, encoded: the one tape both capture paths
        read.  Entries recorded since the last call are encoded now."""
        new = self.tape[len(self._tape_encoded):]
        if new:
            self._tape_encoded.extend(encode_tape(new))
        return self._tape_encoded

    def _prune(self) -> None:
        """:func:`journal.prune`'s selection, run over the manifest."""
        if self._manifest is None:
            self._manifest = journal.scan(self.directory)
        removed = set(journal.remove(
            self.directory,
            journal.prune_selection(self._manifest, self.keep)))
        if removed:
            self._manifest = [i for i in self._manifest
                              if i.path not in removed]


class RecoveryManager:
    """Startup-side journal scan, chain composition and selection.

    Each scan reads every chain file once and keeps the payload bytes
    of its valid records, so materializing any of them reads nothing
    again.
    """

    def __init__(self, directory: str,
                 fingerprint: Optional[str] = None) -> None:
        self.directory = directory
        self.fingerprint = fingerprint
        #: The last scan's records by chain file, each with its payload.
        self._chains: Dict[str, List[Tuple[journal.SnapshotInfo, Any]]] = {}

    def scan(self) -> List[journal.SnapshotInfo]:
        """All journal records, newest first, torn records marked
        invalid."""
        self._chains = journal.read_journal(self.directory,
                                            fingerprint=self.fingerprint)
        return journal.newest_first([info for chain in self._chains.values()
                                     for info, _payload in chain])

    def latest(self) -> Optional[journal.SnapshotInfo]:
        """The newest materializable snapshot to resume from, or None."""
        return next((info for info in self.scan() if info.valid), None)

    def _chain_of(self, info: journal.SnapshotInfo) -> List[Any]:
        """The payloads of *info*'s chain: its file's records up to and
        including it, full snapshot first."""
        chain = self._chains.get(info.path)
        if chain is None or not any(i.offset == info.offset and i.valid
                                    for i, _p in chain):
            chain = self._chains[info.path] = journal.read_chain(
                info.path, fingerprint=self.fingerprint)
        payloads = []
        for record, payload in chain:
            if not record.valid:
                raise journal.JournalError(record.error)
            payloads.append(payload)
            if record.offset == info.offset:
                return payloads
        raise journal.JournalError("%s: no record starts there"
                                   % info.address)

    def record(self, info: journal.SnapshotInfo) -> Any:
        """The payload bytes of the record *info* itself (a delta's are
        its delta record)."""
        return self._chain_of(info)[-1]

    def materialize(self, info: journal.SnapshotInfo) -> Dict[str, Any]:
        """The full payload at *info*'s barrier: its chain's full
        snapshot plus every delta up to *info*, composed in order."""
        chain = self._chain_of(info)
        payload = pickle.loads(chain[0])
        for blob in chain[1:]:
            payload = materialize_delta(payload, pickle.loads(blob))
        return payload

    def load(self, info: Optional[journal.SnapshotInfo] = None,
             ) -> Tuple[journal.SnapshotInfo, Dict[str, Any]]:
        """Load a snapshot payload for restore: *info*'s, or the newest
        valid one's.  Raises :class:`JournalError` when there is none,
        or when *info* (or a record before it in its file) is invalid.
        """
        if info is None:
            info = self.latest()
        if info is None:
            raise journal.JournalError(
                "no valid snapshot in %s" % self.directory)
        return info, self.materialize(info)

    def _walk(self) -> Iterator[Tuple[journal.SnapshotInfo, Any]]:
        """Every valid record with its decoded payload (full or delta),
        oldest barrier first."""
        for info in reversed(self.scan()):
            if info.valid:
                yield info, pickle.loads(self.record(info))

    def snapshots(self) -> List[Snapshot]:
        """Every materializable snapshot as a live :class:`Snapshot`,
        oldest barrier first — the walk checkpoint bisection and
        ``repro ckpt verify`` fingerprint.  Each chain is composed
        incrementally: a delta builds on the materialization of the
        record before it."""
        current: Dict[str, Dict[str, Any]] = {}
        out: List[Snapshot] = []
        for info, record in self._walk():
            if info.snapshot_kind != "delta":
                payload = record
            else:
                payload = materialize_delta(current[info.path], record)
            current[info.path] = payload
            out.append(Snapshot(barrier=info.barrier, vclock=info.vclock,
                                payload=payload, path=info.address))
        return out

    def chain_fingerprints(self, scope: str = GUEST_SCOPE,
                           ) -> Dict[int, Tuple[str, float]]:
        """``{barrier: (fingerprint, vclock)}`` for every materializable
        snapshot, computed with an incremental Merkle cursor: one full
        tree build per chain, then O(changed) per delta — the fast path
        checkpoint bisection probes through."""
        cursors: Dict[str, MerkleCursor] = {}
        out: Dict[int, Tuple[str, float]] = {}
        for info, record in self._walk():
            if info.snapshot_kind != "delta":
                cursor = cursors[info.path] = MerkleCursor(record,
                                                           scope=scope)
            else:
                cursor = cursors[info.path]
                cursor.advance(record)
            out[info.barrier] = (cursor.root, info.vclock)
        return out
