"""The on-disk checkpoint journal: torn-write-proof snapshot files.

One snapshot is one file, ``ckpt-<barrier>.snap``::

    <header JSON>\\n<payload bytes>

The header is a single JSON line carrying the format version, the
config fingerprint, the barrier coordinates (event tick + virtual
clock) and a SHA-256 checksum + length of the payload.  Files are
written write-ahead style through :func:`repro.durable.atomic_write` —
to a temp file in the same directory, fsynced, then atomically renamed
over the final name, followed by a directory fsync — so a crash
mid-write leaves either the old state or a temp file the scan ignores,
never a torn ``.snap``.  A torn or bit-rotted snapshot is *detected*
(length/checksum mismatch) and the recovery scan falls back to the
next-newest valid one.

A snapshot is either full or a **delta**: a file whose payload is a
:data:`repro.ckpt.snapshot.DELTA_KIND` record encoding only the state
changed since a *base* snapshot, named in the header by the base
payload's sha256 (``base_sha256``).  A delta is only usable when its
whole chain back to a full snapshot validates — the scan computes this
transitively (``chain_valid``), recovery falls back past torn chains to
the newest fully-valid one, and :func:`prune` keeps the transitive base
closure of everything it retains so a kept delta is never orphaned.
Pruning is one pure selection (:func:`prune_selection`) over a journal
listing plus a removal step, so a writer that tracks its own listing in
memory prunes by exactly the rule a fresh :func:`scan` would.

Only the current format is read: a scan reports a file of any other
format invalid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from ..durable import atomic_write, fsync_dir

#: On-disk format version; bumped on any incompatible payload change.
FORMAT_VERSION = 4

_PREFIX = "ckpt-"
_SUFFIX = ".snap"


class JournalError(ValueError):
    """A snapshot file is unreadable, torn, or from a different world."""


@dataclasses.dataclass
class SnapshotInfo:
    """One scanned journal entry (valid or not)."""

    path: str
    barrier: int = -1
    vclock: float = 0.0
    fingerprint: str = ""
    payload_len: int = 0
    valid: bool = False
    error: str = ""
    #: ``"full"`` or ``"delta"``.
    snapshot_kind: str = "full"
    #: For deltas: sha256 of the base snapshot's payload bytes.
    base_sha256: str = ""
    #: Number of deltas between this snapshot and its full base
    #: (0 for a full snapshot).
    chain_depth: int = 0
    #: sha256 of this file's payload bytes (how deltas name their base).
    payload_sha256: str = ""
    #: True when this file *and every base under it* validate: the only
    #: state a snapshot can actually be materialized from.  For a full
    #: snapshot ``chain_valid == valid``.
    chain_valid: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def snapshot_path(directory: str, barrier: int) -> str:
    return os.path.join(directory, "%s%012d%s" % (_PREFIX, barrier, _SUFFIX))


def write_snapshot(directory: str, barrier: int, vclock: float,
                   fingerprint: str, payload: bytes,
                   snapshot_kind: str = "full", base_sha256: str = "",
                   chain_depth: int = 0, durable: bool = True) -> SnapshotInfo:
    """Atomically persist *payload* as the snapshot for *barrier*.

    Returns the new file's entry as :func:`scan` would read it back
    (``chain_valid`` is left to :func:`link_chains`, which needs the
    rest of the journal), so a writer can track the journal without
    re-reading what it just wrote.

    ``durable=False`` skips both fsyncs (group commit): the write is
    still atomic-via-rename and checksummed, but a host crash may lose
    it — the next durable snapshot's directory fsync retroactively
    persists earlier renames.  The manager uses this for delta
    snapshots, whose loss recovery already tolerates: a missing or torn
    delta merely chain-breaks its descendants, and recovery falls back
    to the newest chain-valid snapshot.  Full snapshots are always
    durability barriers.
    """
    os.makedirs(directory, exist_ok=True)
    info = SnapshotInfo(
        path=snapshot_path(directory, barrier), barrier=int(barrier),
        vclock=float(vclock), fingerprint=fingerprint,
        payload_len=len(payload), valid=True, snapshot_kind=snapshot_kind,
        base_sha256=base_sha256, chain_depth=chain_depth,
        payload_sha256=hashlib.sha256(payload).hexdigest())
    header = json.dumps({
        "format": FORMAT_VERSION,
        "barrier": barrier,
        "vclock": vclock,
        "fingerprint": fingerprint,
        "payload_len": info.payload_len,
        "payload_sha256": info.payload_sha256,
        "snapshot_kind": snapshot_kind,
        "base_sha256": base_sha256,
        "chain_depth": chain_depth,
    }, sort_keys=True).encode("utf-8")
    atomic_write(info.path, header + b"\n" + payload, durable=durable)
    return info


def read_header(path: str) -> Dict[str, Any]:
    """Parse and sanity-check the header line of a snapshot file."""
    with open(path, "rb") as fh:
        line = fh.readline(1 << 20)
    if not line.endswith(b"\n"):
        raise JournalError("%s: truncated header" % path)
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        raise JournalError("%s: unparsable header: %s" % (path, err))
    if not isinstance(header, dict):
        raise JournalError("%s: header is not an object" % path)
    if header.get("format") != FORMAT_VERSION:
        raise JournalError("%s: format %r, expected %d"
                           % (path, header.get("format"), FORMAT_VERSION))
    return header


def load_snapshot(path: str,
                  fingerprint: Optional[str] = None) -> Tuple[Dict[str, Any], bytes]:
    """Read and *validate* one snapshot; returns (header, payload).

    Raises :class:`JournalError` on any torn/corrupt/mismatched file.
    """
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.readline(1 << 20)
        payload = fh.read()
    want_len = header.get("payload_len")
    if not isinstance(want_len, int) or len(payload) != want_len:
        raise JournalError("%s: payload length %d != header %r (torn write?)"
                           % (path, len(payload), want_len))
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise JournalError("%s: payload checksum mismatch (corrupt snapshot)"
                           % path)
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise JournalError(
            "%s: config fingerprint %s does not match this run's %s"
            % (path, header.get("fingerprint"), fingerprint))
    return header, payload


def scan(directory: str,
         fingerprint: Optional[str] = None) -> List[SnapshotInfo]:
    """Scan the journal, newest barrier first, validating every file.

    Per-file validation (length/checksum/fingerprint) fills ``valid``;
    a second pass resolves every delta's base by ``base_sha256`` and
    fills ``chain_valid`` transitively, so callers can tell a readable
    delta from a *materializable* one.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    out: List[SnapshotInfo] = []
    for name in names:
        if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
            continue
        path = os.path.join(directory, name)
        info = SnapshotInfo(path=path)
        try:
            header, _payload = load_snapshot(path, fingerprint=fingerprint)
            info.barrier = int(header.get("barrier", -1))
            info.vclock = float(header.get("vclock", 0.0))
            info.fingerprint = str(header.get("fingerprint", ""))
            info.payload_len = int(header.get("payload_len", 0))
            info.snapshot_kind = str(header.get("snapshot_kind", "full"))
            info.base_sha256 = str(header.get("base_sha256", ""))
            info.chain_depth = int(header.get("chain_depth", 0))
            info.payload_sha256 = str(header.get("payload_sha256", ""))
            info.valid = True
        except JournalError as err:
            info.error = str(err)
            try:
                header = read_header(path)
                info.barrier = int(header.get("barrier", -1))
                info.fingerprint = str(header.get("fingerprint", ""))
                info.snapshot_kind = str(header.get("snapshot_kind", "full"))
                info.base_sha256 = str(header.get("base_sha256", ""))
                info.chain_depth = int(header.get("chain_depth", 0))
            except JournalError:
                pass
        out.append(info)
    return link_chains(out)


def link_chains(infos: List[SnapshotInfo]) -> List[SnapshotInfo]:
    """Sort *infos* newest first and fill every ``chain_valid``.

    Reads no files: a delta is chain-valid when it validates and the
    newest older valid entry whose payload hash is its ``base_sha256``
    is chain-valid.  :func:`scan` ends here, and a writer tracking the
    journal in memory re-runs it after each change, so an overwritten
    base chain-breaks its old descendants exactly as a re-scan would.
    """
    infos.sort(key=lambda i: (i.barrier, i.path), reverse=True)
    by_sha: Dict[str, SnapshotInfo] = {}
    # Oldest first, so a base is resolved before any delta on it.
    for info in reversed(infos):
        info.chain_valid = False
        if info.valid:
            if info.snapshot_kind != "delta":
                info.chain_valid = True
            else:
                base = by_sha.get(info.base_sha256)
                info.chain_valid = base is not None and base.chain_valid
            if info.payload_sha256:
                by_sha[info.payload_sha256] = info
    return infos


def latest_valid(directory: str,
                 fingerprint: Optional[str] = None) -> Optional[SnapshotInfo]:
    """The newest *materializable* snapshot, or None.

    For a full snapshot that means it validates; for a delta, that its
    whole chain does — a readable delta over a torn base is skipped.
    """
    for info in scan(directory, fingerprint=fingerprint):
        if info.chain_valid:
            return info
    return None


def prune_selection(infos: List[SnapshotInfo],
                    keep: int) -> List[SnapshotInfo]:
    """The entries pruning to the newest *keep* materializable
    snapshots deletes, given a newest-first journal listing.

    Invalid and chain-broken files are always selected (they are
    unrecoverable dead weight); for every kept delta the transitive
    base closure is kept too, so pruning never orphans a delta it
    retains.
    """
    by_sha = {i.payload_sha256: i for i in infos
              if i.valid and i.payload_sha256}
    keep_paths: set = set()
    kept = 0
    for info in infos:  # newest first
        if not info.chain_valid or kept >= keep:
            continue
        kept += 1
        node: Optional[SnapshotInfo] = info
        while node is not None and node.path not in keep_paths:
            keep_paths.add(node.path)
            node = (by_sha.get(node.base_sha256)
                    if node.snapshot_kind == "delta" else None)
    return [info for info in infos if info.path not in keep_paths]


def remove(directory: str, doomed: List[SnapshotInfo]) -> List[str]:
    """Delete *doomed* files; returns the paths actually removed."""
    removed: List[str] = []
    for info in doomed:
        try:
            os.remove(info.path)
            removed.append(info.path)
        except OSError:
            pass
    if removed:
        fsync_dir(directory)
    return removed


def prune(directory: str, keep: int) -> List[str]:
    """Remove all but the newest *keep* materializable snapshots (see
    :func:`prune_selection`); returns the removed paths."""
    return remove(directory, prune_selection(scan(directory), keep))
