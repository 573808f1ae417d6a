"""Seeded program grammar for the differential determinism fuzzer.

A generated program is a :class:`ProgramSpec`: a flat list of JSON-able
op dicts over a small shared namespace of directories and files, biased
toward the operations whose fast paths the repo optimizes (namei-heavy
rename/link/rmdir churn, getdents listings, thread interleavings,
signal/timer delivery, pipe traffic, time/random reads, child processes
reaped by a blocked wait4, threads blocked in FUTEX_WAIT on a lock).
Generation is a pure function of the seed — the same seed always yields
the same program on every machine, which is what lets a corpus entry
name a divergence by ``(seed, ops)`` alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Any, Dict, List

#: The shared tree the ops fight over.  Deliberately tiny so that
#: rename/link/rmdir sequences collide constantly.
DIR_POOL = ("d0", "d1", "d2", "d0/s0", "d1/s1")
FILE_POOL = ("f0", "f1", "f2", "d0/f0", "d0/f1", "d1/f0", "d2/f0",
             "d0/s0/f0", "d1/s1/f0")
#: Every path the grammar may mention (rename targets draw from both).
PATH_POOL = DIR_POOL + FILE_POOL

DATA_POOL = ("alpha", "bravo", "charlie-charlie", "x" * 64)

#: Stream-socket endpoints the ``sock`` op binds: AF_UNIX paths plus
#: loopback AF_INET, including port 0 (deterministic ephemeral draw).
SOCK_ADDR_POOL = ("/fuzz/a.sock", "/fuzz/b.sock",
                  "127.0.0.1:7070", "127.0.0.1:0")

#: fd-slot names the open/close/readfd/writefd/fstat ops share.
SLOT_POOL = (0, 1, 2, 3)

#: Weighted op menu for the main thread. Weights are relative integers.
_MAIN_MENU = (
    ("write", 10), ("mkdir", 7), ("rename", 12), ("link", 7),
    ("unlink", 7), ("rmdir", 5), ("symlink", 4), ("append", 4),
    ("open", 6), ("close", 4), ("writefd", 4), ("readfd", 3),
    ("fstat", 4), ("stat", 5), ("listdir", 6), ("readfile", 3),
    ("time", 4), ("random", 4), ("pipe", 3), ("sleep", 2),
    ("compute", 3), ("threads", 5), ("alarm", 2), ("killself", 2),
    ("audit", 4), ("sock", 5), ("dup2pipe", 2), ("sigpipe", 2),
    ("spawnwait", 3), ("lockwait", 3),
)

#: Restricted menu for thread bodies: no nested threads, no slot ops
#: (slots are main-thread state), no audit (main-only, needs quiescence).
_THREAD_MENU = (
    ("write", 10), ("mkdir", 5), ("rename", 8), ("link", 5),
    ("unlink", 5), ("rmdir", 3), ("stat", 4), ("listdir", 4),
    ("time", 3), ("random", 3), ("pipe", 2), ("sleep", 2),
    ("compute", 3), ("readfile", 2),
)


@dataclasses.dataclass(frozen=True)
class ProgramSpec:
    """One generated guest program: a seed tag plus its op list."""

    seed: int
    ops: tuple  # tuple of op dicts (frozen for hashability of the spec)

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "ops": [dict(op) for op in self.ops]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProgramSpec":
        return cls(seed=int(data.get("seed", 0)),
                   ops=tuple(dict(op) for op in data["ops"]))

    @classmethod
    def from_json(cls, text: str) -> "ProgramSpec":
        return cls.from_dict(json.loads(text))

    @property
    def digest(self) -> str:
        """Stable identity of the program (used for corpus filenames)."""
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def uses_threads(self) -> bool:
        """Multi-threaded programs are excluded from the rnr axis (the
        recorder predates the thread story, mirroring the paper)."""
        return any(op["op"] in ("threads", "lockwait")
                   or (op["op"] == "spawnwait" and op["late"])
                   for op in self.ops)

    def rnr_compatible(self) -> bool:
        """Whether the rnr record/replay axis can reproduce this program.

        Pure-injection replay feeds recorded results to trapped syscalls
        without executing them, so it cannot reproduce (a) kernel-side
        signal delivery — an injected EPIPE write never raises SIGPIPE,
        so handler-dependent control flow diverges — or (b) pass-through
        fd aliasing — ``dup2`` executes natively against fds that were
        never really opened.  Mirrors rr's own partial syscall coverage
        (the paper's §7.1.3 crash on 46 of 81 packages)."""
        return not any(op["op"] in ("sigpipe", "dup2pipe")
                       for op in self.ops)

    def with_ops(self, ops) -> "ProgramSpec":
        return ProgramSpec(seed=self.seed, ops=tuple(dict(op) for op in ops))


def _weighted_choice(rng: random.Random, menu) -> str:
    total = sum(w for _, w in menu)
    roll = rng.randrange(total)
    for name, w in menu:
        roll -= w
        if roll < 0:
            return name
    return menu[-1][0]  # pragma: no cover - roll is always in range


def _gen_op(rng: random.Random, name: str) -> Dict[str, Any]:
    if name == "write":
        return {"op": "write", "path": rng.choice(FILE_POOL),
                "data": rng.choice(DATA_POOL)}
    if name == "append":
        return {"op": "append", "path": rng.choice(FILE_POOL),
                "data": rng.choice(DATA_POOL)}
    if name == "mkdir":
        return {"op": "mkdir", "path": rng.choice(DIR_POOL)}
    if name == "rename":
        return {"op": "rename", "old": rng.choice(PATH_POOL),
                "new": rng.choice(PATH_POOL)}
    if name == "link":
        return {"op": "link", "target": rng.choice(PATH_POOL),
                "path": rng.choice(FILE_POOL)}
    if name == "symlink":
        return {"op": "symlink", "target": rng.choice(PATH_POOL),
                "path": rng.choice(FILE_POOL)}
    if name == "unlink":
        return {"op": "unlink", "path": rng.choice(PATH_POOL)}
    if name == "rmdir":
        return {"op": "rmdir", "path": rng.choice(PATH_POOL)}
    if name == "open":
        return {"op": "open", "path": rng.choice(FILE_POOL),
                "slot": rng.choice(SLOT_POOL),
                "mode": rng.choice(("r", "w", "rw"))}
    if name == "close":
        return {"op": "close", "slot": rng.choice(SLOT_POOL)}
    if name == "writefd":
        return {"op": "writefd", "slot": rng.choice(SLOT_POOL),
                "data": rng.choice(DATA_POOL)}
    if name == "readfd":
        return {"op": "readfd", "slot": rng.choice(SLOT_POOL),
                "count": rng.choice((4, 16, 64))}
    if name == "fstat":
        return {"op": "fstat", "slot": rng.choice(SLOT_POOL)}
    if name == "stat":
        return {"op": "stat", "path": rng.choice(PATH_POOL)}
    if name == "listdir":
        return {"op": "listdir", "path": rng.choice((".",) + DIR_POOL)}
    if name == "readfile":
        return {"op": "readfile", "path": rng.choice(FILE_POOL)}
    if name == "time":
        return {"op": "time"}
    if name == "random":
        return {"op": "random", "count": rng.choice((4, 8))}
    if name == "pipe":
        return {"op": "pipe", "data": rng.choice(DATA_POOL)}
    if name == "sleep":
        return {"op": "sleep", "seconds": rng.choice((0.01, 0.05))}
    if name == "compute":
        return {"op": "compute", "work": rng.choice((1e-5, 1e-4))}
    if name == "alarm":
        return {"op": "alarm", "seconds": rng.choice((0.01, 0.03))}
    if name == "killself":
        return {"op": "killself"}
    if name == "audit":
        return {"op": "audit"}
    if name == "sock":
        return {"op": "sock", "address": rng.choice(SOCK_ADDR_POOL),
                "data": rng.choice(DATA_POOL),
                "backlog": rng.choice((1, 2, 8))}
    if name == "dup2pipe":
        return {"op": "dup2pipe", "data": rng.choice(DATA_POOL)}
    if name == "sigpipe":
        return {"op": "sigpipe"}
    if name == "threads":
        bodies = []
        for _ in range(rng.randint(1, 3)):
            body = [_gen_op(rng, _weighted_choice(rng, _THREAD_MENU))
                    for _ in range(rng.randint(1, 4))]
            bodies.append(body)
        return {"op": "threads", "bodies": bodies}
    if name == "spawnwait":
        body = [_gen_op(rng, _weighted_choice(rng, _THREAD_MENU))
                for _ in range(rng.randint(1, 3))]
        return {"op": "spawnwait", "body": body,
                "late": rng.choice((False, True))}
    if name == "lockwait":
        return {"op": "lockwait", "threads": rng.randint(2, 3),
                "rounds": rng.randint(1, 3),
                "store": rng.choice((False, True))}
    raise ValueError("unknown op template %r" % name)  # pragma: no cover


def generate_program(seed: int, min_ops: int = 4, max_ops: int = 18) -> ProgramSpec:
    """Generate the program for *seed* (pure; stable across machines)."""
    rng = random.Random(seed)
    n = rng.randint(min_ops, max_ops)
    ops: List[Dict[str, Any]] = []
    # Seed the tree so early ops have something to collide with.
    for path in rng.sample(DIR_POOL[:3], rng.randint(1, 3)):
        ops.append({"op": "mkdir", "path": path})
    for path in rng.sample(FILE_POOL[:3], rng.randint(1, 2)):
        ops.append({"op": "write", "path": path, "data": rng.choice(DATA_POOL)})
    while len(ops) < n:
        ops.append(_gen_op(rng, _weighted_choice(rng, _MAIN_MENU)))
    # Every program ends with a full invariant audit: whatever the churn
    # above did, nlink/orphan bookkeeping must balance.
    ops.append({"op": "audit"})
    return ProgramSpec(seed=seed, ops=tuple(ops))
