"""OS randomness (paper §5.2): getrandom served from the container LFSR.

Reads of ``/dev/random``/``/dev/urandom`` are handled by device
replacement at container setup (the named-pipe analog); the open handler
in :mod:`.filesystem` counts those opens for Table 2.
"""

from __future__ import annotations

from . import Outcome, passthrough


def handle_getrandom(tracer, thread, call) -> Outcome:
    if not tracer.config.deterministic_randomness:
        return passthrough(tracer, thread, call)
    count = call.args.get("count", 0)
    tracer.poke_memory(max(1, count // 8))  # fill the user buffer
    return ("value", tracer.prng.bytes(count))


HANDLERS = {
    "getrandom": handle_getrandom,
}
