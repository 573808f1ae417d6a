"""Record-and-replay traces (paper §7.1.3).

A recording stores, per process, the result of every intercepted syscall
in execution order.  Replay injects those results back, so the replayed
run observes exactly the recorded world.  Unlike DetTrace, the trace is
an opaque artifact: it enables *replaying one past execution*, not
*reproducing the computation from source* — and it costs storage.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Any, Dict, List

from ..core.errors import ContainerError


@dataclasses.dataclass
class TraceEvent:
    """One recorded syscall outcome for one process."""

    syscall: str
    outcome: str  # "value" | "error"
    payload: Any

    def storage_size(self) -> int:
        """Approximate on-disk bytes for this event."""
        try:
            return 16 + len(pickle.dumps(self.payload, protocol=4))
        except Exception:
            return 64


@dataclasses.dataclass
class Recording:
    """A full recording: per-process event streams, in spawn order."""

    #: hierarchical spawn path -> ordered events
    streams: Dict[tuple, List[TraceEvent]] = dataclasses.field(default_factory=dict)
    #: argv of each spawned process, for divergence diagnostics
    spawn_argvs: Dict[tuple, List[str]] = dataclasses.field(default_factory=dict)

    def append(self, proc_index: tuple, event: TraceEvent) -> None:
        self.streams.setdefault(proc_index, []).append(event)

    @property
    def event_count(self) -> int:
        return sum(len(s) for s in self.streams.values())

    def storage_size(self) -> int:
        """Total recording size in bytes — rr's storage cost."""
        return sum(ev.storage_size() for s in self.streams.values() for ev in s)


class RnrCrash(ContainerError):
    """The recorder hit an operation it cannot handle (the known
    unsupported-ioctl bug class from §7.1.3)."""

    def __init__(self, syscall: str, detail: str = ""):
        self.syscall = syscall
        super().__init__("rr crash: unsupported %s %s" % (syscall, detail))


class ReplayDivergence(ContainerError):
    """Replay executed a different syscall than the recording expected."""
