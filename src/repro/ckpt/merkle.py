"""Incremental Merkle fingerprints over checkpoint payloads.

The flat v1 fingerprint pickled the whole state and hashed it:
O(state) per barrier, twice per bisection probe.  This module replaces
it with a Merkle tree:

* one **leaf** per filesystem inode record (hashed without its entries
  map);
* one **interior node** per directory, hashing its leaf together with
  the ``(name, child-subtree)`` sequence in entry order — so a change
  anywhere under a directory moves every hash on the path to the root
  and nothing else;
* unreachable-but-live inodes (unlinked-but-open files, ``rmdir``'d
  working directories) join at the top as a sorted orphan list;
* every non-filesystem payload section contributes one item digest of
  its value as captured: every id a payload records (pipe ids,
  description keys) is a function of the run, so no section needs
  rewriting first.  Only the sockets section's mutation ``version``
  stays out, since it counts mutations, not state.

Every digest hashes values: it is taken over a pickle written without a
memo, so how a payload's objects share references never reaches it.  A
live capture shares one string between a process's ``exe_path`` and
``argv[0]``; a run restored from a delta chain holds two copies, one
unpickled from each journal file, and must still fingerprint equal.

The root digest is *the* fingerprint: :func:`merkle_fingerprint`
computes it from scratch, and :class:`MerkleCursor` maintains it
incrementally along a delta chain — ``advance(delta)`` re-hashes only
the dirty leaves, their ancestor paths, and the changed sections, so a
chain of k deltas over n inodes costs O(k · changed · depth) instead of
O(k · n).  The two computations agree byte-for-byte by construction:
the cursor applies the same :func:`materialize_delta` composition the
recovery path uses and memoizes subtree hashes keyed by
``(ino, generation)``.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from typing import Any, Dict, Iterable, List, Set, Tuple

from .snapshot import (
    FULL_SCOPE,
    GUEST_SCOPE,
    _FP_PROTOCOL,
    _FULL_KEYS,
    _GUEST_KEYS,
    materialize_delta,
)

Key = Tuple[int, int]

#: Node-record fields a leaf leaves out: the entries map (the interior
#: node hashes the children instead).
_UNHASHED_NODE_FIELDS = ("entries",)


def _hash(obj: Any) -> str:
    """sha256 of *obj*'s value: a pickle with no memo, so shared and
    separate copies of equal objects hash the same (cyclic data raises;
    a payload holds none)."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, _FP_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return hashlib.sha256(buf.getvalue()).hexdigest()


class MerkleCursor:
    """A Merkle tree over one payload, advanceable along a delta chain.

    ``MerkleCursor(payload, scope).root`` is the fingerprint of
    *payload*; ``advance(delta)`` moves the cursor to the composed
    payload and returns the new root, re-hashing only what changed.
    """

    def __init__(self, payload: Dict[str, Any],
                 scope: str = GUEST_SCOPE) -> None:
        if scope not in (GUEST_SCOPE, FULL_SCOPE):
            raise ValueError("unknown fingerprint scope %r" % scope)
        self.scope = scope
        self.payload = payload
        #: Subtree digest memo, keyed (ino, generation).
        self._subtree: Dict[Key, str] = {}
        #: Reverse entry links: child key -> set of directory keys.
        self._parents: Dict[Key, Set[Key]] = {}
        #: Keys with no parent link (excluding the root): the live
        #: unreachable inodes that join the fs hash as a sorted list.
        self._orphans: Set[Key] = set()
        root_key = tuple(payload["fs_root"])
        for key, rec in payload["fs_nodes"].items():
            if rec.get("entries"):
                for ckey in rec["entries"].values():
                    self._parents.setdefault(tuple(ckey), set()).add(key)
        for key in payload["fs_nodes"]:
            if key != root_key and not self._parents.get(key):
                self._orphans.add(key)
        #: Per-entry tape hashes (FULL scope only), so an append
        #: extends the list in O(new entries).
        self._tape_hashes: List[str] = (
            [_hash(entry) for entry in payload["tape"]]
            if scope == FULL_SCOPE else [])
        names = list(_GUEST_KEYS) + ["scope", "fs_nodes"]
        if scope == FULL_SCOPE:
            names += _FULL_KEYS
        self._items: Dict[str, str] = {
            name: self._item_digest(name) for name in names}
        self.root = self._compose()

    def _item_digest(self, name: str) -> str:
        if name == "scope":
            value: Any = self.scope
        elif name == "fs_nodes":
            return self._fs_digest()
        elif name == "tape":
            value = tuple(self._tape_hashes)
        elif name == "sockets":
            value = dict(self.payload["sockets"])
            del value["version"]
        else:
            value = self.payload[name]
        return _hash((name, value))

    # -- filesystem tree -------------------------------------------------

    def _subtree_digest(self, key: Key) -> str:
        memo = self._subtree
        digest = memo.get(key)
        if digest is not None:
            return digest
        rec = self.payload["fs_nodes"][key]
        leaf = _hash(("leaf", key, {
            field: value for field, value in rec.items()
            if field not in _UNHASHED_NODE_FIELDS}))
        if rec["entries"] is None:
            digest = leaf
        else:
            digest = _hash(("dir", leaf,
                            tuple((name, self._subtree_digest(tuple(ckey)))
                                  for name, ckey in rec["entries"].items())))
        memo[key] = digest
        return digest

    def _fs_digest(self) -> str:
        root_key = tuple(self.payload["fs_root"])
        return _hash(("fs", self._subtree_digest(root_key),
                      tuple((key, self._subtree_digest(key))
                            for key in sorted(self._orphans))))

    def _ancestors(self, keys: Iterable[Key]) -> Set[Key]:
        out: Set[Key] = set()
        stack = list(keys)
        while stack:
            key = stack.pop()
            for parent in self._parents.get(key, ()):
                if parent not in out:
                    out.add(parent)
                    stack.append(parent)
        return out

    def _compose(self) -> str:
        return _hash(("merkle-root", self.scope,
                      tuple(sorted(self._items.items()))))

    # -- advancing -------------------------------------------------------

    def advance(self, delta: Dict[str, Any]) -> str:
        """Compose *delta* onto the cursor's payload; return the new root.

        Re-hashes only the delta's dirty/dead leaves, the directory
        paths above them, and the sections the delta replaced.
        """
        old_nodes = self.payload["fs_nodes"]
        self.payload = materialize_delta(self.payload, delta)
        root_key = tuple(self.payload["fs_root"])

        stale: Set[str] = {"fs_nodes"}
        stale.update(name for name in delta["sections"]
                     if name in self._items)
        if "tape" in self._items and delta["tape_tail"]:
            stale.add("tape")
            self._tape_hashes.extend(
                _hash(entry) for entry in delta["tape_tail"])

        dirty: Dict[Key, Dict[str, Any]] = delta["fs_dirty"]
        dead: List[Key] = list(delta["fs_dead"])

        # Invalidate under the *old* link structure first (a moved or
        # deleted node's former ancestors must re-hash too) ...
        invalid: Set[Key] = set(dirty) | set(dead)
        invalid |= self._ancestors(invalid)

        # ... then update the reverse links from the entry diffs.
        touched: Set[Key] = set(dirty)

        def unlink(child: Key, parent: Key) -> None:
            links = self._parents.get(child)
            if links is not None:
                links.discard(parent)
            touched.add(child)

        def link(child: Key, parent: Key) -> None:
            self._parents.setdefault(child, set()).add(parent)
            touched.add(child)

        for key in dead:
            old = old_nodes.get(key)
            if old is not None and old.get("entries"):
                for ckey in old["entries"].values():
                    unlink(tuple(ckey), key)
            self._parents.pop(key, None)
            self._orphans.discard(key)
        for key, rec in dirty.items():
            old = old_nodes.get(key)
            old_children = (set(map(tuple, old["entries"].values()))
                            if old is not None and old.get("entries")
                            else set())
            new_children = (set(map(tuple, rec["entries"].values()))
                            if rec.get("entries") else set())
            for ckey in old_children - new_children:
                unlink(ckey, key)
            for ckey in new_children - old_children:
                link(ckey, key)

        nodes = self.payload["fs_nodes"]
        for key in touched:
            if key in nodes and key != root_key \
                    and not self._parents.get(key):
                self._orphans.add(key)
            else:
                self._orphans.discard(key)

        # New ancestors as well (rename targets, fresh creations).
        invalid |= self._ancestors(dirty)
        for key in invalid:
            self._subtree.pop(key, None)

        for name in stale:
            self._items[name] = self._item_digest(name)
        self.root = self._compose()
        return self.root


def merkle_fingerprint(payload: Dict[str, Any],
                       scope: str = GUEST_SCOPE) -> str:
    """Merkle-root sha256 of *payload* computed from scratch."""
    return MerkleCursor(payload, scope=scope).root
