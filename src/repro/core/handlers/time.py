"""Time, sleeps and timers (paper §5.3, §5.4)."""

from __future__ import annotations

import dataclasses

from ...kernel.types import CLOCK_MONOTONIC, SIGALRM
from . import Outcome, passthrough


def handle_time(tracer, thread, call) -> Outcome:
    """time(2): logical seconds, monotonic per process (§5.3)."""
    if not tracer.config.virtualize_time:
        return passthrough(tracer, thread, call)
    return ("value", tracer.logical.next_time(thread.process.pid))


def handle_gettimeofday(tracer, thread, call) -> Outcome:
    if not tracer.config.virtualize_time:
        return passthrough(tracer, thread, call)
    tracer.poke_memory(2)  # write the timeval struct back into the tracee
    return ("value", tracer.logical.next_timeofday(thread.process.pid))


def handle_clock_gettime(tracer, thread, call) -> Outcome:
    if not tracer.config.virtualize_time:
        return passthrough(tracer, thread, call)
    tracer.poke_memory(2)
    if call.args.get("clock_id") == CLOCK_MONOTONIC:
        return ("value", tracer.logical.next_monotonic(thread.process.pid))
    return ("value", tracer.logical.next_timeofday(thread.process.pid))


def handle_nanosleep(tracer, thread, call) -> Outcome:
    """Sleeps become NOPs (§4): the call never reaches the kernel."""
    if not tracer.config.emulate_timers:
        return passthrough(tracer, thread, call)
    return ("value", 0)


def handle_alarm(tracer, thread, call) -> Outcome:
    """Timers expire "instantaneously" (§5.4).

    The timer call is emulated by the tracer: the signal is queued right
    away (the guest's handler runs before its next operation returns),
    and the kernel never sees a timer.
    """
    if not tracer.config.emulate_timers:
        return passthrough(tracer, thread, call)
    signum = call.args.get("signum", SIGALRM)
    tracer.kernel.deliver_signal(thread.process, signum)
    return ("value", 0)


HANDLERS = {
    "time": handle_time,
    "gettimeofday": handle_gettimeofday,
    "clock_gettime": handle_clock_gettime,
    "nanosleep": handle_nanosleep,
    "alarm": handle_alarm,
}
