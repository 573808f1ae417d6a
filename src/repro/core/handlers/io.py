"""read/write retry injection (paper §5.5, Figure 4).

``read`` and ``write`` may legitimately transfer fewer bytes than
requested (pipes do this constantly).  DetTrace hides partial transfers:
it adjusts the syscall arguments and re-executes (the PC-reset trick)
until the full request is satisfied or EOF.  Accumulated partial data is
stashed in tracer state keyed by thread, because a retry can itself
would-block and go through the Blocked queue before continuing.
"""

from __future__ import annotations

from . import Outcome, passthrough


def _is_pipe_fd(thread, fd) -> bool:
    """Partial transfers only arise on pipes in practice (§5.5: "we have
    never seen such partial operations on regular files"); retrying only
    there keeps regular-file EOF semantics a single syscall."""
    try:
        of = thread.process.fdtable.get(fd)
    except Exception:
        return False
    # External fake-peer sockets answer one datagram per read; the
    # accumulate-until-full retry loop is for stream kinds only.
    return of.is_pipe and of.socket is None


def _procfs_path(thread, fd) -> str:
    try:
        path = thread.process.fdtable.get(fd).path
    except Exception:
        return ""
    return path if path.startswith("/proc/") else ""


def handle_read(tracer, thread, call) -> Outcome:
    # /proc files are windows onto the host (cpuinfo, uptime, version):
    # serve the canonical uniprocessor's answers instead (§5.8).
    proc_path = _procfs_path(thread, call.args.get("fd"))
    if proc_path and tracer.config.mask_machine:
        from ...kernel.procfs import CANONICAL_PROC_CONTENT

        content = CANONICAL_PROC_CONTENT.get(proc_path)
        if content is not None:
            of = thread.process.fdtable.get(call.args["fd"])
            start = of.offset
            data = content[start:start + call.args.get("count", 0)]
            of.offset = start + len(data)
            tracer.poke_memory(max(1, len(data) // 512))
            return ("value", data)
    if not tracer.config.retry_partial_io:
        return passthrough(tracer, thread, call)
    if not _is_pipe_fd(thread, call.args.get("fd")):
        return passthrough(tracer, thread, call)
    want = call.args.get("count", 0)
    key = ("read", thread.tid)
    acc = tracer.io_state.pop(key, b"")
    first = not acc
    while True:
        probe = call.replaced(count=want - len(acc))
        outcome = tracer.kernel.execute(thread, probe)
        tag = outcome[0]
        if tag == "block":
            if acc:
                # we drained pipe bytes before blocking
                tracer.sched.note_progress()
            tracer.io_state[key] = acc
            return outcome
        if tag == "error":
            # An error mid-accumulation would lose data in a real tracer
            # too; deliver what we have if any, else the error.
            if acc:
                return ("value", acc)
            return outcome
        if tag != "value":
            raise AssertionError("read: unexpected outcome %r" % tag)
        if not first:
            tracer.obs.count(("tracer", "read_retries"))
        first = False
        data = outcome[1]
        tracer.poke_memory(max(1, len(data) // 512))
        acc += data
        if len(acc) >= want or not data:
            return ("value", acc)


def handle_write(tracer, thread, call) -> Outcome:
    if not tracer.config.retry_partial_io:
        return passthrough(tracer, thread, call)
    if not _is_pipe_fd(thread, call.args.get("fd")):
        return passthrough(tracer, thread, call)
    data = call.args.get("data", b"")
    if isinstance(data, str):
        data = data.encode()
    key = ("write", thread.tid)
    written = tracer.io_state.pop(key, 0)
    first = written == 0
    if first:
        # The tracer inspects the user buffer once, on the initial stop;
        # retries only adjust the pointer/length registers (Fig. 4).
        tracer.peek_memory(max(1, len(data) // 512))
    while True:
        probe = call.replaced(data=data[written:])
        outcome = tracer.kernel.execute(thread, probe)
        tag = outcome[0]
        if tag == "block":
            if written:
                tracer.sched.note_progress()  # partial bytes entered the pipe
            tracer.io_state[key] = written
            return outcome
        if tag == "error":
            return outcome
        if tag != "value":
            raise AssertionError("write: unexpected outcome %r" % tag)
        if not first:
            tracer.obs.count(("tracer", "write_retries"))
        first = False
        written += outcome[1]
        if written >= len(data):
            return ("value", written)


HANDLERS = {
    "read": handle_read,
    "write": handle_write,
    # recv/send are read/write on a socket fd: same partial-transfer
    # hiding, same accumulate-and-retry state machine (§5.5).
    "recv": handle_read,
    "send": handle_write,
}
