"""The content-addressed store behind ``repro.cache``.

Layout, under one cache directory::

    keys/<run-key digest>.key       one JSON line: a pointer record
    objects/<payload sha256>.obj    <header JSON>\\n<payload bytes>

A *key file* maps a :class:`~repro.cache.key.RunKey` digest to the
sha256 of the payload holding its outcome; an *object file* stores the
pickled :class:`~repro.cache.outcome.CachedOutcome` under its own
content hash.  Splitting the two gives structural dedup for free —
distinct keys whose runs produced identical outcomes share one object —
and makes every payload self-verifying.

Durability discipline is the checkpoint journal's: every file goes
through :func:`repro.durable.atomic_write` (a dot-tmp name in its final
directory, fsynced, atomically renamed, the directory fsynced).  A
crash mid-store leaves a tmp file the reader ignores; a torn or
bit-rotted entry is *detected* (length/checksum/format mismatch) and
reads as a miss, never as a wrong hit.  ``gc`` removes torn files and
unreferenced objects, counting a refcount per object from the key files
that name it — the same detect-and-drop posture as journal ``prune``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from typing import Any, Dict, List, Optional, Tuple

from ..durable import atomic_write, fsync_dir
from .key import RunKey
from .outcome import CachedOutcome

#: On-disk format version for both key and object files; bumped on any
#: incompatible change so old entries miss instead of mis-hitting.
STORE_FORMAT = 1

_KEY_SUFFIX = ".key"
_OBJ_SUFFIX = ".obj"


class CacheEntryError(ValueError):
    """A cache file is torn, corrupt, or from an incompatible format."""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclasses.dataclass
class StoreStats:
    """``repro cache stats`` payload."""

    directory: str
    keys: int = 0
    objects: int = 0
    object_bytes: int = 0
    #: Keys whose object is shared with at least one other key.
    deduplicated_keys: int = 0
    torn_keys: int = 0
    torn_objects: int = 0
    unreferenced_objects: int = 0
    missing_objects: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class CacheStore:
    """One on-disk content-addressed run cache."""

    def __init__(self, directory: str):
        self.directory = directory
        self.keys_dir = os.path.join(directory, "keys")
        self.objects_dir = os.path.join(directory, "objects")

    # -- paths ---------------------------------------------------------

    def key_path(self, digest: str) -> str:
        return os.path.join(self.keys_dir, digest + _KEY_SUFFIX)

    def object_path(self, sha256: str) -> str:
        return os.path.join(self.objects_dir, sha256 + _OBJ_SUFFIX)

    # -- write ---------------------------------------------------------

    def put(self, key: RunKey, outcome: CachedOutcome) -> str:
        """Store *outcome* under *key*; returns the object sha256.

        Object first, key second: a crash between the two leaves an
        unreferenced object (gc fodder), never a dangling key.
        """
        payload = pickle.dumps(outcome.to_payload(),
                               protocol=pickle.HIGHEST_PROTOCOL)
        sha256 = _sha(payload)
        obj_path = self.object_path(sha256)
        # Dedup: an existing object with this address already holds these
        # bytes — but only trust it after validation, else a torn file
        # squatting on the address would pin the key to garbage forever.
        reusable = False
        if os.path.exists(obj_path):
            try:
                self._read_object(sha256)
                reusable = True
            except CacheEntryError:
                reusable = False
        if not reusable:
            header = json.dumps({
                "format": STORE_FORMAT,
                "kind": "outcome",
                "payload_len": len(payload),
                "payload_sha256": sha256,
            }, sort_keys=True).encode("utf-8")
            os.makedirs(self.objects_dir, exist_ok=True)
            atomic_write(obj_path, header + b"\n" + payload)
        record = json.dumps({
            "format": STORE_FORMAT,
            "kind": "run-key",
            "run_key": key.digest,
            "payload_sha256": sha256,
        }, sort_keys=True).encode("utf-8")
        os.makedirs(self.keys_dir, exist_ok=True)
        atomic_write(self.key_path(key.digest), record + b"\n")
        return sha256

    # -- read ----------------------------------------------------------

    def _read_key_record(self, path: str) -> Dict[str, Any]:
        with open(path, "rb") as fh:
            line = fh.readline(1 << 20)
        if not line.endswith(b"\n"):
            raise CacheEntryError("%s: truncated key record" % path)
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as err:
            raise CacheEntryError("%s: unparsable key record: %s" % (path, err))
        if (not isinstance(record, dict)
                or record.get("format") != STORE_FORMAT
                or record.get("kind") != "run-key"
                or not isinstance(record.get("payload_sha256"), str)):
            raise CacheEntryError("%s: not a format-%d run-key record"
                                  % (path, STORE_FORMAT))
        return record

    def _read_object(self, sha256: str) -> bytes:
        path = self.object_path(sha256)
        try:
            with open(path, "rb") as fh:
                line = fh.readline(1 << 20)
                payload = fh.read()
        except OSError as err:
            raise CacheEntryError("%s: unreadable: %s" % (path, err))
        if not line.endswith(b"\n"):
            raise CacheEntryError("%s: truncated header" % path)
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as err:
            raise CacheEntryError("%s: unparsable header: %s" % (path, err))
        if (not isinstance(header, dict)
                or header.get("format") != STORE_FORMAT):
            raise CacheEntryError("%s: not a format-%d object" % (path,
                                                                  STORE_FORMAT))
        if header.get("payload_len") != len(payload):
            raise CacheEntryError("%s: payload length %d != header %r "
                                  "(torn write?)"
                                  % (path, len(payload),
                                     header.get("payload_len")))
        if _sha(payload) != header.get("payload_sha256") or _sha(payload) != sha256:
            raise CacheEntryError("%s: payload checksum mismatch" % path)
        return payload

    def get(self, key: RunKey) -> Optional[CachedOutcome]:
        """Look *key* up; torn/corrupt entries read as a miss (None)."""
        path = self.key_path(key.digest)
        if not os.path.exists(path):
            return None
        try:
            record = self._read_key_record(path)
            payload = self._read_object(record["payload_sha256"])
            outcome = CachedOutcome.from_payload(pickle.loads(payload))
        except (CacheEntryError, pickle.UnpicklingError, TypeError,
                EOFError, AttributeError):
            return None
        if outcome.version != CachedOutcome.version:
            return None
        return outcome

    def contains(self, key: RunKey) -> bool:
        return self.get(key) is not None

    # -- maintenance ---------------------------------------------------

    def _listdir(self, directory: str, suffix: str) -> List[str]:
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return sorted(n for n in names
                      if n.endswith(suffix) and not n.startswith("."))

    def _survey(self) -> Tuple[StoreStats, List[str], Dict[str, int]]:
        """One pass over the store: stats + torn paths + object refcounts."""
        stats = StoreStats(directory=self.directory)
        torn: List[str] = []
        refcounts: Dict[str, int] = {}
        for name in self._listdir(self.objects_dir, _OBJ_SUFFIX):
            sha256 = name[:-len(_OBJ_SUFFIX)]
            path = self.object_path(sha256)
            try:
                payload = self._read_object(sha256)
            except CacheEntryError:
                stats.torn_objects += 1
                torn.append(path)
                continue
            stats.objects += 1
            stats.object_bytes += len(payload)
            refcounts[sha256] = 0
        for name in self._listdir(self.keys_dir, _KEY_SUFFIX):
            path = os.path.join(self.keys_dir, name)
            try:
                record = self._read_key_record(path)
            except CacheEntryError:
                stats.torn_keys += 1
                torn.append(path)
                continue
            sha256 = record["payload_sha256"]
            if sha256 not in refcounts:
                # Dangling pointer: treat like a torn key (gc removes it).
                stats.missing_objects += 1
                torn.append(path)
                continue
            stats.keys += 1
            refcounts[sha256] += 1
        stats.deduplicated_keys = sum(n for n in refcounts.values() if n > 1)
        stats.unreferenced_objects = sum(
            1 for n in refcounts.values() if n == 0)
        return stats, torn, refcounts

    def stats(self) -> StoreStats:
        return self._survey()[0]

    def gc(self) -> Dict[str, List[str]]:
        """Remove torn files, dangling keys and unreferenced objects.

        Returns ``{"torn": [...], "unreferenced": [...]}`` (paths
        removed).  Also sweeps leftover dot-tmp files from interrupted
        writes.
        """
        _stats, torn, refcounts = self._survey()
        unreferenced = [self.object_path(sha256)
                        for sha256, n in sorted(refcounts.items()) if n == 0]
        removed: Dict[str, List[str]] = {"torn": [], "unreferenced": []}
        for bucket, paths in (("torn", torn), ("unreferenced", unreferenced)):
            for path in paths:
                try:
                    os.remove(path)
                    removed[bucket].append(path)
                except OSError:
                    pass
        for directory in (self.keys_dir, self.objects_dir):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.startswith(".tmp-"):
                    try:
                        os.remove(os.path.join(directory, name))
                        removed["torn"].append(os.path.join(directory, name))
                    except OSError:
                        pass
            if removed["torn"] or removed["unreferenced"]:
                fsync_dir(directory)
        return removed

    def verify_store(self) -> List[str]:
        """Checksum-validate every entry; returns problem descriptions."""
        problems: List[str] = []
        stats, torn, _refcounts = self._survey()
        problems.extend("torn or corrupt: %s" % path for path in torn)
        if stats.unreferenced_objects:
            problems.append("%d unreferenced object(s) (run gc)"
                            % stats.unreferenced_objects)
        return problems
