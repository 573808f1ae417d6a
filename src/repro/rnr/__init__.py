"""Record-and-replay baseline (Mozilla rr analog, paper §7.1.3)."""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..cpu.machine import HostEnvironment
from ..kernel.errors import DeadlockError, SimTimeout
from ..kernel.kernel import SYSCALL_PREFIX, Kernel
from ..core.container import _collect_output_tree
from .recorder import RnrRecorder, SUPPORTED_IOCTLS
from .replayer import RnrReplayer
from .trace import Recording, ReplayDivergence, RnrCrash, TraceEvent

__all__ = [
    "RecordResult",
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


@dataclasses.dataclass
class RecordResult:
    """Outcome of one recorded run."""

    status: str  # "ok" | "crash" | "timeout" | "deadlock"
    error: str
    exit_code: Optional[int]
    recording: Recording
    wall_time: float
    syscall_count: int
    output_tree: dict


def record(image, command: str, argv: Optional[List[str]] = None,
           host: Optional[HostEnvironment] = None,
           timeout: float = 7200.0) -> RecordResult:
    """Run *command* natively under the recorder."""
    host = host or HostEnvironment()
    kernel = Kernel(host)
    build_dir = host.build_path
    try:
        image.install(kernel, build_dir)
        recorder = RnrRecorder()
        recorder.attach(kernel)
        proc = kernel.boot(command, argv=argv, env=dict(host.env), uid=1000,
                           cwd_path=build_dir)
        status, error = "ok", ""
        try:
            kernel.run(deadline=timeout)
        except RnrCrash as err:
            status, error = "crash", str(err)
        except SimTimeout:
            status, error = "timeout", "deadline exceeded"
        except DeadlockError as err:
            status, error = "deadlock", str(err)
        exit_code = None
        if status == "ok" and proc.exit_status is not None:
            exit_code = (proc.exit_status >> 8) & 0xFF
        return RecordResult(
            status=status, error=error, exit_code=exit_code,
            recording=recorder.recording, wall_time=kernel.clock.now,
            syscall_count=kernel.obs.total(SYSCALL_PREFIX),
            output_tree=_collect_output_tree(kernel, build_dir))
    finally:
        kernel.teardown()


def replay(image, command: str, recording: Recording,
           argv: Optional[List[str]] = None,
           host: Optional[HostEnvironment] = None,
           timeout: float = 7200.0) -> bool:
    """Replay a recording; returns True if it completed without divergence."""
    host = host or HostEnvironment()
    kernel = Kernel(host)
    try:
        image.install(kernel, host.build_path)
        replayer = RnrReplayer(recording)
        replayer.attach(kernel)
        kernel.boot(command, argv=argv, env=dict(host.env), uid=1000,
                    cwd_path=host.build_path)
        kernel.run(deadline=timeout)
    finally:
        kernel.teardown()
    return True
