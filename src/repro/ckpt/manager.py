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

The :class:`RecoveryManager` is the startup half: scan the journal,
skip torn/corrupt files, hand back the newest valid snapshot.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Tuple

from . import journal
from .merkle import MerkleCursor
from .snapshot import (
    GUEST_SCOPE,
    CheckpointUnsupported,
    DeltaUnsupported,
    Snapshot,
    capture,
    capture_delta,
    materialize_delta,
    section_hashes,
)
from .tape import encode_tape, shallow_copy


class CheckpointManager:
    """Records the resume tape and writes barrier snapshots.

    With ``full_every > 1`` the manager writes **delta snapshots**
    between periodic full ones: the kernel's dirty-epoch tracking
    enumerates exactly the inodes mutated since the previous barrier,
    per-section hashes of the runtime state pick out the changed
    sections, and the journal entry references its base by payload
    sha256.  ``full_every=1`` restores the all-full legacy behaviour.
    Any capture or write failure resets the incremental caches so the
    next snapshot is a self-contained full one.

    Pruning runs over an in-memory *manifest* of the journal: one
    :func:`repro.ckpt.journal.scan` the first time the manager prunes
    (which also finds files an earlier run left behind), then one entry
    per snapshot this manager writes and one dropped per file it
    removes.  That relies on the manager being the journal directory's
    only writer; recovery still re-validates every file it reads.
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
        self.snapshots_full = 0
        self.snapshots_delta = 0
        self.snapshot_bytes = 0
        self.last_dirty_objects = 0
        #: Incrementally-maintained ``encode_tape`` of ``self.tape``:
        #: each entry is encoded once, at the first snapshot after it
        #: was recorded, so full snapshots never re-encode the whole
        #: history.  Deliberately *not* cleared by
        #: ``_reset_incremental`` — the tape itself only ever appends.
        self._tape_encoded: List[Tuple] = []
        #: What :func:`journal.scan` would return for ``directory``,
        #: newest first; ``None`` until the first prune seeds it.
        self._manifest: Optional[List[journal.SnapshotInfo]] = None
        self._reset_incremental()

    def _reset_incremental(self) -> None:
        """Forget the delta base: the next snapshot will be full."""
        self._section_hashes: Optional[Dict[str, str]] = None
        self._last_payload_sha = ""
        self._last_chain_depth = 0
        self._since_full = 0
        self._last_tape_len = 0
        #: Device-path hints by (ino, generation): deltas of device
        #: nodes need the graft path a full capture records.
        self._device_paths: Dict[Tuple[int, int], str] = {}

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
        """Capture and atomically persist a snapshot right now.

        Writes a delta against the previous snapshot when a base exists
        and the full interval has not elapsed; otherwise a full one.
        Full snapshots are always fsynced; *durable* controls whether a
        delta is too (periodic deltas group-commit, see
        :func:`repro.ckpt.journal.write_snapshot`).
        """
        if self._delta_due():
            try:
                return self._snapshot_delta(kernel, durable=durable)
            except DeltaUnsupported:
                pass  # fall through to a self-contained full snapshot
        return self._snapshot_full(kernel)

    def _delta_due(self) -> bool:
        return (self.full_every > 1
                and self._section_hashes is not None
                and bool(self._last_payload_sha)
                and self._since_full < self.full_every - 1)

    def _encode_tape_tail(self) -> List[Tuple]:
        new = self.tape[len(self._tape_encoded):]
        if new:
            self._tape_encoded.extend(encode_tape(new))
        return self._tape_encoded

    def _snapshot_full(self, kernel) -> str:
        tick = kernel.events_processed
        payload = capture(kernel, tape_encoded=self._encode_tape_tail())
        blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        info = self._note_written(journal.write_snapshot(
            self.directory, tick, kernel.clock.now, self.fingerprint, blob))
        self._section_hashes = section_hashes(payload)
        self._last_payload_sha = info.payload_sha256
        self._last_chain_depth = 0
        self._since_full = 0
        self._last_tape_len = len(self.tape)
        self._device_paths = {
            key: rec["path"] for key, rec in payload["fs_nodes"].items()
            if rec["device"]}
        self.snapshots_full += 1
        self._finish(kernel, tick, len(blob))
        return info.path

    def _snapshot_delta(self, kernel, durable: bool = True) -> str:
        tick = kernel.events_processed
        delta, new_hashes, dirty_objects = capture_delta(
            kernel, self._section_hashes, self._last_tape_len,
            self._device_paths, tape_encoded=self._encode_tape_tail())
        blob = pickle.dumps(delta, pickle.HIGHEST_PROTOCOL)
        info = self._note_written(journal.write_snapshot(
            self.directory, tick, kernel.clock.now, self.fingerprint, blob,
            snapshot_kind="delta", base_sha256=self._last_payload_sha,
            chain_depth=self._last_chain_depth + 1, durable=durable))
        self._section_hashes = new_hashes
        self._last_payload_sha = info.payload_sha256
        self._last_chain_depth += 1
        self._since_full += 1
        self._last_tape_len = len(self.tape)
        for key, rec in delta["fs_dirty"].items():
            if rec["device"]:
                self._device_paths[key] = rec["path"]
        for key in delta["fs_dead"]:
            self._device_paths.pop(key, None)
        self.snapshots_delta += 1
        self.last_dirty_objects = dirty_objects
        self._finish(kernel, tick, len(blob))
        return info.path

    def _note_written(self, info: journal.SnapshotInfo,
                      ) -> journal.SnapshotInfo:
        """Fold a snapshot that just landed into the manifest, replacing
        any entry for the path it overwrote."""
        if self._manifest is not None:
            self._manifest = [i for i in self._manifest
                              if i.path != info.path]
            self._manifest.append(info)
            journal.link_chains(self._manifest)
        return info

    def _finish(self, kernel, tick: int, blob_len: int) -> None:
        # Only after the journal write landed: a failed capture must
        # leave the dirty set intact for the next (full) snapshot.
        kernel.fs.clear_dirty()
        self.snapshot_bytes += blob_len
        self.snapshots_taken += 1
        self.last_barrier = tick
        self.last_error = ""
        if self.keep > 0:
            self._prune()

    def _prune(self) -> None:
        """:func:`journal.prune`'s selection, run over the manifest."""
        if self._manifest is None:
            self._manifest = journal.scan(self.directory)
        removed = set(journal.remove(
            self.directory,
            journal.prune_selection(self._manifest, self.keep)))
        if removed:
            self._manifest = journal.link_chains(
                [i for i in self._manifest if i.path not in removed])


class RecoveryManager:
    """Startup-side journal scan, chain composition and selection."""

    def __init__(self, directory: str,
                 fingerprint: Optional[str] = None) -> None:
        self.directory = directory
        self.fingerprint = fingerprint

    def scan(self) -> List[journal.SnapshotInfo]:
        """All journal entries, newest first, torn files marked invalid."""
        return journal.scan(self.directory, fingerprint=self.fingerprint)

    def latest(self) -> Optional[journal.SnapshotInfo]:
        """The newest materializable snapshot to resume from, or None."""
        return journal.latest_valid(self.directory,
                                    fingerprint=self.fingerprint)

    def _read_payload(self, info: journal.SnapshotInfo) -> Dict[str, Any]:
        _header, blob = journal.load_snapshot(
            info.path, fingerprint=self.fingerprint)
        return pickle.loads(blob)

    def _chain_of(self, info: journal.SnapshotInfo,
                  infos: Optional[List[journal.SnapshotInfo]] = None,
                  ) -> List[journal.SnapshotInfo]:
        """*info*'s chain, full base first, ending at *info* itself."""
        if infos is None:
            infos = self.scan()
        by_sha = {i.payload_sha256: i for i in infos
                  if i.valid and i.payload_sha256}
        chain = [info]
        node = info
        while node.snapshot_kind == "delta":
            base = by_sha.get(node.base_sha256)
            if base is None:
                raise journal.JournalError(
                    "%s: delta snapshot's base (payload sha256 %s...) is "
                    "missing or invalid — the chain cannot be materialized"
                    % (node.path, node.base_sha256[:12]))
            chain.append(base)
            node = base
        chain.reverse()
        return chain

    def materialize(self, info: journal.SnapshotInfo,
                    infos: Optional[List[journal.SnapshotInfo]] = None,
                    ) -> Dict[str, Any]:
        """The full payload at *info*'s barrier: its base plus every
        delta in the chain, composed in order."""
        chain = self._chain_of(info, infos)
        payload = self._read_payload(chain[0])
        for link in chain[1:]:
            payload = materialize_delta(payload, self._read_payload(link))
        return payload

    def load(self, info: Optional[journal.SnapshotInfo] = None,
             ) -> Tuple[journal.SnapshotInfo, Dict[str, Any]]:
        """Load (and re-validate) a snapshot payload for restore.

        A delta snapshot is materialized against its chain; a missing
        or torn base raises :class:`JournalError` naming the base.
        """
        infos = None
        if info is None:
            infos = self.scan()
            info = next((i for i in infos if i.chain_valid), None)
        if info is None:
            raise journal.JournalError(
                "no valid snapshot in %s" % self.directory)
        return info, self.materialize(info, infos)

    def snapshots(self) -> List[Snapshot]:
        """Every materializable snapshot as a live :class:`Snapshot`,
        oldest barrier first — the walk checkpoint bisection and
        ``repro ckpt verify`` fingerprint.  Delta chains are composed
        incrementally: each barrier's payload builds on the previous
        materialization instead of re-reading the whole chain."""
        infos = self.scan()
        by_sha: Dict[str, Dict[str, Any]] = {}
        out: List[Snapshot] = []
        for info in reversed(infos):  # oldest barrier first
            if not info.chain_valid:
                continue
            if info.snapshot_kind != "delta":
                payload = self._read_payload(info)
            else:
                base = by_sha.get(info.base_sha256)
                if base is None:
                    payload = self.materialize(info, infos)
                else:
                    payload = materialize_delta(
                        base, self._read_payload(info))
            by_sha[info.payload_sha256] = payload
            out.append(Snapshot(barrier=info.barrier, vclock=info.vclock,
                                payload=payload, path=info.path))
        return out

    def chain_fingerprints(self, scope: str = GUEST_SCOPE,
                           ) -> Dict[int, Tuple[str, float]]:
        """``{barrier: (fingerprint, vclock)}`` for every materializable
        snapshot, computed with an incremental Merkle cursor: one full
        tree build per chain, then O(changed) per delta — the fast path
        checkpoint bisection probes through."""
        infos = self.scan()
        cursors: Dict[str, MerkleCursor] = {}
        out: Dict[int, Tuple[str, float]] = {}
        for info in reversed(infos):  # oldest barrier first
            if not info.chain_valid:
                continue
            if info.snapshot_kind != "delta":
                cursor = MerkleCursor(self._read_payload(info), scope=scope)
            else:
                cursor = cursors.pop(info.base_sha256, None)
                if cursor is None:
                    cursor = MerkleCursor(self.materialize(info, infos),
                                          scope=scope)
                else:
                    cursor.advance(self._read_payload(info))
            cursors[info.payload_sha256] = cursor
            out[info.barrier] = (cursor.root, info.vclock)
        return out
