"""Record-and-replay baseline (Mozilla rr analog, paper §7.1.3).

A recording and its replay are native runs (:class:`NativeRunner`) with
the recorder or the replayer attached, so each ends — and is classified
— the way a native run of the same image on the same host does; the
recorder's unsupported-ioctl crash and a replay's divergence end the
run ``crashed``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.container import ContainerResult, NativeRunner
from ..cpu.machine import HostEnvironment
from .recorder import RnrRecorder, SUPPORTED_IOCTLS
from .replayer import RnrReplayer
from .trace import Recording, ReplayDivergence, RnrCrash, TraceEvent

__all__ = [
    "Recording",
    "ReplayDivergence",
    "RnrCrash",
    "RnrRecorder",
    "RnrReplayer",
    "SUPPORTED_IOCTLS",
    "TraceEvent",
    "record",
    "replay",
]


def record(image, command: str, argv: Optional[List[str]] = None,
           host: Optional[HostEnvironment] = None,
           timeout: float = 7200.0) -> Tuple[ContainerResult, Recording]:
    """Run *command* natively under the recorder: the run's result and
    what it recorded."""
    recorder = RnrRecorder()
    result = NativeRunner(timeout=timeout).run(
        image, command, argv=argv, host=host, _tracer=recorder)
    return result, recorder.recording


def replay(image, command: str, recording: Recording,
           argv: Optional[List[str]] = None,
           host: Optional[HostEnvironment] = None,
           timeout: float = 7200.0) -> ContainerResult:
    """Replay *recording*; a divergence ends the run ``crashed`` with an
    error naming what the recording expected."""
    return NativeRunner(timeout=timeout).run(
        image, command, argv=argv, host=host,
        _tracer=RnrReplayer(recording))
