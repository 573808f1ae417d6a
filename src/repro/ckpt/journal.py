"""The on-disk checkpoint journal: one append-only file per chain.

A **chain** is one full snapshot and the delta snapshots taken on top
of it, and it lives in one file, ``ckpt-<barrier>.snap``, named after
the barrier of its full snapshot.  The file is a sequence of records::

    <header JSON>\\n<payload bytes>
    <header JSON>\\n<payload bytes>
    ...

Each header is a single JSON line carrying the format version, the
config fingerprint, the barrier coordinates (event tick + virtual
clock), the record's kind and chain depth, and a SHA-256 checksum +
length of its payload.  A record is addressed as ``path@offset``.

* The first record is a **full** snapshot.  It creates the file through
  :func:`repro.durable.atomic_write` (temp file, fsync, rename,
  directory fsync), so a crash mid-write leaves the old state or a temp
  file the scan ignores, never a torn full snapshot.
* Every later record is a **delta**: a
  :data:`repro.ckpt.snapshot.DELTA_KIND` payload encoding only the state
  changed since the record before it, which the header names by
  payload sha256 (``base_sha256``).  Deltas are appended with
  :func:`repro.durable.append`: no fsync for a periodic delta (the next
  full snapshot is the durability barrier), fsync for a requested one.

A host crash or a torn append can cost only records at the end of a
chain file: the scan reads each file's records in order, and the first
one that fails validation (truncated header, short or corrupt payload,
foreign fingerprint when scoped, a record that does not extend its
chain) is listed invalid and ends that file's listing.  Bytes after it
are never read.  Every listed valid record can therefore be
materialized from the valid records before it in the same file.

Pruning keeps the newest *keep* valid records and removes a file once
none of its records is kept: one pure selection (:func:`prune_selection`)
over a journal listing plus a removal step, so a writer that tracks its
own listing in memory prunes by exactly the rule a fresh :func:`scan`
would.

Only the current format is read: a scan reports a record of any other
format invalid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from ..durable import append, atomic_write, fsync_dir

#: On-disk format version; bumped on any incompatible payload change.
FORMAT_VERSION = 5

_PREFIX = "ckpt-"
_SUFFIX = ".snap"
#: Longest header line a reader accepts.
_MAX_HEADER = 1 << 20


class JournalError(ValueError):
    """A snapshot record is unreadable, torn, or from a different world."""


@dataclasses.dataclass
class SnapshotInfo:
    """One scanned journal record (valid or not)."""

    path: str
    #: Byte offset of the record's header in its chain file.
    offset: int = 0
    barrier: int = -1
    vclock: float = 0.0
    fingerprint: str = ""
    payload_len: int = 0
    valid: bool = False
    error: str = ""
    #: ``"full"`` or ``"delta"``.
    snapshot_kind: str = "full"
    #: For deltas: sha256 of the previous record's payload bytes.
    base_sha256: str = ""
    #: Number of deltas between this record and its chain's full
    #: snapshot (0 for the full snapshot itself).
    chain_depth: int = 0
    #: sha256 of this record's payload bytes (how a delta names its base).
    payload_sha256: str = ""

    @property
    def address(self) -> str:
        """``path@offset``: where the record starts."""
        return "%s@%d" % (self.path, self.offset)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def snapshot_path(directory: str, barrier: int) -> str:
    return os.path.join(directory, "%s%012d%s" % (_PREFIX, barrier, _SUFFIX))


def write_snapshot(directory: str, barrier: int, vclock: float,
                   fingerprint: str, payload: bytes,
                   base: Optional[SnapshotInfo] = None,
                   durable: bool = True) -> SnapshotInfo:
    """Persist *payload* as the snapshot for *barrier*.

    Without *base*, the payload is a full snapshot and starts a new
    chain file in *directory* (which must exist) through
    :func:`repro.durable.atomic_write`.  With *base* (the newest record
    of a chain), the payload is a delta on it, appended to the base's
    file through :func:`repro.durable.append`.

    Returns the new record's entry as :func:`scan` would read it back,
    so a writer can track the journal without re-reading what it just
    wrote.  ``durable=False`` skips the fsyncs: a host crash may then
    lose the record, which recovery already tolerates (it falls back to
    the newest record that validates).
    """
    info = SnapshotInfo(
        path=snapshot_path(directory, barrier) if base is None else base.path,
        barrier=int(barrier), vclock=float(vclock), fingerprint=fingerprint,
        payload_len=len(payload), valid=True,
        payload_sha256=hashlib.sha256(payload).hexdigest())
    if base is not None:
        info.snapshot_kind = "delta"
        info.base_sha256 = base.payload_sha256
        info.chain_depth = base.chain_depth + 1
    header = json.dumps({
        "format": FORMAT_VERSION,
        "barrier": barrier,
        "vclock": vclock,
        "fingerprint": fingerprint,
        "payload_len": info.payload_len,
        "payload_sha256": info.payload_sha256,
        "snapshot_kind": info.snapshot_kind,
        "base_sha256": info.base_sha256,
        "chain_depth": info.chain_depth,
    }, sort_keys=True).encode("utf-8")
    record = header + b"\n" + payload
    if base is None:
        atomic_write(info.path, record, durable=durable)
    else:
        info.offset = append(info.path, record, durable=durable)
    return info


def _parse_header(data: bytes, offset: int,
                  where: str) -> Tuple[Dict[str, Any], int]:
    """The header at *offset* of *data*, and the offset just past its
    newline."""
    end = data.find(b"\n", offset, offset + _MAX_HEADER)
    if end < 0:
        raise JournalError("%s: truncated header" % where)
    try:
        header = json.loads(data[offset:end].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        raise JournalError("%s: unparsable header: %s" % (where, err))
    if not isinstance(header, dict):
        raise JournalError("%s: header is not an object" % where)
    if header.get("format") != FORMAT_VERSION:
        raise JournalError("%s: format %r, expected %d"
                           % (where, header.get("format"), FORMAT_VERSION))
    return header, end + 1


def _read_record(data: bytes, view: memoryview, info: SnapshotInfo,
                 prev: Optional[SnapshotInfo], fingerprint: Optional[str],
                 ) -> Tuple[Dict[str, Any], memoryview, int]:
    """Validate the record at ``info.offset`` of the chain file *data*
    (*view* is a memoryview of it), filling *info*; returns ``(header,
    payload view, end offset)``.  *prev* is the valid record before it
    in the same file (None for the first).  Raises
    :class:`JournalError` when the record is not usable."""
    where = info.address
    header, start = _parse_header(data, info.offset, where)
    try:
        info.barrier = int(header.get("barrier", -1))
        info.vclock = float(header.get("vclock", 0.0))
        info.fingerprint = str(header.get("fingerprint", ""))
        info.payload_len = int(header.get("payload_len", 0))
        info.snapshot_kind = str(header.get("snapshot_kind", "full"))
        info.base_sha256 = str(header.get("base_sha256", ""))
        info.chain_depth = int(header.get("chain_depth", 0))
        info.payload_sha256 = str(header.get("payload_sha256", ""))
    except (TypeError, ValueError) as err:
        raise JournalError("%s: malformed header: %s" % (where, err))
    end = start + info.payload_len
    payload = view[start:end]
    if info.payload_len < 0 or len(payload) != info.payload_len:
        raise JournalError("%s: payload length %d != header %r (torn write?)"
                           % (where, len(payload), info.payload_len))
    if hashlib.sha256(payload).hexdigest() != info.payload_sha256:
        raise JournalError("%s: payload checksum mismatch (corrupt snapshot)"
                           % where)
    if fingerprint is not None and info.fingerprint != fingerprint:
        raise JournalError(
            "%s: config fingerprint %s does not match this run's %s"
            % (where, info.fingerprint, fingerprint))
    if prev is None:
        if info.snapshot_kind != "full":
            raise JournalError("%s: a chain file must start with a full "
                               "snapshot" % where)
    elif (info.snapshot_kind != "delta"
          or info.base_sha256 != prev.payload_sha256):
        raise JournalError("%s: record does not extend its chain (base "
                           "%s... is not the record before it)"
                           % (where, info.base_sha256[:12]))
    return header, payload, end


def read_chain(path: str, fingerprint: Optional[str] = None,
               ) -> List[Tuple[SnapshotInfo, Optional[memoryview]]]:
    """Every record of one chain file, in file order, each with its
    payload bytes (a view; None for an invalid record).

    The file is opened and read once.  The first record that fails
    validation is listed invalid and ends the listing.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        return [(SnapshotInfo(path=path, error="%s: %s" % (path, err)), None)]
    view = memoryview(data)
    out: List[Tuple[SnapshotInfo, Optional[memoryview]]] = []
    prev: Optional[SnapshotInfo] = None
    offset = 0
    while True:
        info = SnapshotInfo(path=path, offset=offset)
        try:
            _header, payload, offset = _read_record(data, view, info, prev,
                                                    fingerprint)
        except JournalError as err:
            info.error = str(err)
            out.append((info, None))
            return out
        info.valid = True
        out.append((info, payload))
        prev = info
        if offset == len(data):
            return out


def read_journal(directory: str, fingerprint: Optional[str] = None,
                 ) -> Dict[str, List[Tuple[SnapshotInfo,
                                           Optional[memoryview]]]]:
    """:func:`read_chain` of every chain file in *directory*, by path."""
    try:
        names = os.listdir(directory)
    except OSError:
        return {}
    return {path: read_chain(path, fingerprint)
            for path in (os.path.join(directory, name) for name in names
                         if name.startswith(_PREFIX)
                         and name.endswith(_SUFFIX))}


def newest_first(infos: List[SnapshotInfo]) -> List[SnapshotInfo]:
    """Sort *infos* in place the way :func:`scan` lists them."""
    infos.sort(key=lambda i: (i.barrier, i.path, i.offset), reverse=True)
    return infos


def scan(directory: str,
         fingerprint: Optional[str] = None) -> List[SnapshotInfo]:
    """Every record of the journal, newest barrier first, validated.

    Each chain file is read once, its records in order; the first that
    fails validation (length, checksum, format, fingerprint when given,
    chain linkage) is listed invalid and ends that file's listing, so
    every valid entry can be materialized.
    """
    return newest_first([info for chain in read_journal(
        directory, fingerprint).values() for info, _payload in chain])


def load_snapshot(path: str, fingerprint: Optional[str] = None,
                  offset: int = 0) -> Tuple[Dict[str, Any], bytes]:
    """Read and *validate* the record at ``path@offset``; returns
    (header, payload).

    Raises :class:`JournalError` when the record, or one before it in
    its chain file, is torn, corrupt or mismatched.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)
    prev: Optional[SnapshotInfo] = None
    pos = 0
    while pos <= offset:
        info = SnapshotInfo(path=path, offset=pos)
        header, payload, end = _read_record(data, view, info, prev,
                                            fingerprint)
        if pos == offset:
            return header, bytes(payload)
        prev, pos = info, end
    raise JournalError("%s@%d: no record starts there" % (path, offset))


def latest_valid(directory: str,
                 fingerprint: Optional[str] = None) -> Optional[SnapshotInfo]:
    """The newest valid, and so materializable, record, or None."""
    return next((info for info in scan(directory, fingerprint=fingerprint)
                 if info.valid), None)


def prune_selection(infos: List[SnapshotInfo], keep: int) -> List[str]:
    """The chain files pruning to the newest *keep* valid records
    removes, given a newest-first journal listing.

    A file goes once none of its records is kept: a kept delta keeps
    its whole file, and so its chain down to the full snapshot.  A file
    with no valid record at all is always selected (unrecoverable dead
    weight).
    """
    kept = set(info.path for info in
               [info for info in infos if info.valid][:max(0, keep)])
    doomed: List[str] = []
    for info in infos:
        if info.path not in kept and info.path not in doomed:
            doomed.append(info.path)
    return doomed


def remove(directory: str, paths: List[str]) -> List[str]:
    """Delete the chain files *paths*; returns the paths removed."""
    removed: List[str] = []
    for path in paths:
        try:
            os.remove(path)
            removed.append(path)
        except OSError:
            pass
    if removed:
        fsync_dir(directory)
    return removed


def prune(directory: str, keep: int) -> List[str]:
    """Remove every chain file none of the newest *keep* valid records
    lives in (see :func:`prune_selection`); returns the removed paths."""
    return remove(directory, prune_selection(scan(directory), keep))
