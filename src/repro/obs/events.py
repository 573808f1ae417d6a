"""The structured event schema shared by traces and crash forensics.

One :class:`ObsEvent` describes one observed occurrence — a syscall
dispatch, an instruction trap, a fault injection, a process spawn or
exit — keyed **exclusively on deterministic coordinates**: the thread's
deterministic logical timestamp (never the jittered simulated wall
clock), the container-namespace pid, and the per-process syscall index.
That keying is what lets two runs of the same image and plan produce
byte-identical event streams, and it is why the same type backs both
:class:`repro.faults.report.CrashReport` forensics and the Chrome-format
trace (:mod:`repro.obs.trace`): crash reports and traces are views of
one stream, not parallel bookkeeping.

This module sits at the bottom of the observability plane and must not
import any other ``repro`` package (the kernel imports it).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Dict, Iterator, List, Tuple

#: Event kinds.
SYSCALL = "syscall"
TRAP = "trap"
FAULT = "fault"
SPAWN = "spawn"
EXIT = "exit"
DEBUG = "debug"

#: vts value for events with no deterministic timestamp available (e.g.
#: filesystem-level disk-cap faults, which are keyed on bytes written).
NO_VTS = -1.0


@dataclasses.dataclass(frozen=True)
class ObsEvent:
    """One structured observation at a deterministic coordinate."""

    #: Deterministic logical timestamp in virtual seconds (the thread's
    #: det_clock / the container's logical time — never host wall clock,
    #: never the jittered simulated wall clock).  :data:`NO_VTS` when the
    #: source has no thread timeline (disk-cap faults).
    vts: float
    #: Container-namespace pid (deterministic under DetTrace).
    pid: int
    #: Per-process syscall index; -1 for non-syscall events.
    index: int
    #: One of SYSCALL/TRAP/FAULT/SPAWN/EXIT/DEBUG.
    kind: str
    #: Syscall or instruction name, fault kind, or executable path.
    name: str
    #: Free-form deterministic detail (disposition, rendered debug text).
    detail: str = ""

    # -- legacy (pid, index, name) triple compatibility ----------------

    def __getitem__(self, i: int):
        """Index like the historical ``(nspid, index, name)`` tuple."""
        return (self.pid, self.index, self.name)[i]

    def __iter__(self):
        return iter((self.pid, self.index, self.name))

    @property
    def coord(self):
        """The deterministic coordinate triple (pid, index, name)."""
        return (self.pid, self.index, self.name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vts": self.vts,
            "pid": self.pid,
            "index": self.index,
            "kind": self.kind,
            "name": self.name,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsEvent":
        return cls(vts=data["vts"], pid=data["pid"], index=data["index"],
                   kind=data["kind"], name=data["name"],
                   detail=data.get("detail", ""))


#: Default capacity of the recent-events ring (crash forensics and
#: divergence-diagnosis context share this window).
RECENT_WINDOW = 32


class EventRing:
    """A bounded ring of compact event entries.

    This is the one "last N events" buffer in the tree: each run's
    collector keeps its recent-syscall forensics in one (feeding
    :class:`repro.faults.report.CrashReport.last_syscalls`) and the
    divergence differ (:mod:`repro.diag.align`) keeps its per-side
    context windows in two more.  Entries stay whatever compact tuple or
    record the producer pushed — the per-syscall fast path must not
    allocate an :class:`ObsEvent` — and materialize into the shared
    event schema only on demand via :meth:`events`.
    """

    __slots__ = ("_entries",)

    def __init__(self, limit: int = RECENT_WINDOW):
        self._entries = deque(maxlen=max(1, int(limit)))

    def push(self, vts: float, pid: int, index: int, name: str) -> None:
        """Append one syscall coordinate tuple (the kernel's hot path)."""
        self._entries.append((vts, pid, index, name))

    def push_entry(self, entry: Any) -> None:
        """Append an arbitrary compact entry (e.g. a Chrome record)."""
        self._entries.append(entry)

    def entries(self) -> List[Any]:
        """The retained entries, oldest first."""
        return list(self._entries)

    def events(self) -> List[ObsEvent]:
        """Materialize ``(vts, pid, index, name)`` entries as ObsEvents."""
        return [ObsEvent(vts=vts, pid=pid, index=index, kind=SYSCALL,
                         name=name)
                for vts, pid, index, name in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    # Deques pickle fine, but slots-only classes need explicit state
    # hooks on protocol 1 paths; be explicit so snapshots never care.
    def __getstate__(self) -> Tuple[int, List[Any]]:
        return (self._entries.maxlen, list(self._entries))

    def __setstate__(self, state: Tuple[int, List[Any]]) -> None:
        limit, entries = state
        self._entries = deque(entries, maxlen=limit)
