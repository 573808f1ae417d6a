"""Wait channels and the would-block protocol.

A blocking syscall is implemented as a *retryable probe*: the syscall body
either completes, or raises :class:`WouldBlock` naming the channels whose
notification could change the answer.  The kernel then parks the thread
and re-executes the whole syscall when any named channel fires.

This retry structure is exactly what DetTrace needs (paper §5.6.1): the
tracer converts blocking calls into non-blocking probes (``WNOHANG``
style), observes the would-block outcome, and moves the process to its
Blocked queue to be retried later — so the native kernel and the
determinized container share one code path.
"""

from __future__ import annotations

from typing import Iterable, List


class Channel:
    """Something a thread can wait on (pipe space, child exit, futex, ...)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return "Channel(%r)" % self.name


class WouldBlock(Exception):
    """The syscall cannot complete now; retry when a channel fires."""

    def __init__(self, channels: Iterable[Channel]):
        self.channels: List[Channel] = list(channels)
        super().__init__(self.channels)

    def __str__(self) -> str:
        # Built on demand: every failed wait4/futex probe raises one of
        # these, and almost none is ever printed.
        return "would block on %s" % ", ".join(c.name for c in self.channels)
