"""read/write retry injection (paper §5.5, Figure 4).

``read`` and ``write`` may legitimately transfer fewer bytes than
requested (pipes do this constantly).  DetTrace hides partial transfers:
it adjusts the syscall arguments and re-executes (the PC-reset trick)
until the full request is satisfied or EOF.  Accumulated partial data is
stashed in tracer state keyed by thread, because a retry can itself
would-block and go through the Blocked queue before continuing.
"""

from __future__ import annotations

from ...kernel.errors import SyscallError
from ...kernel.fds import FdKind
from . import HandlerContext, Outcome, passthrough


def _is_pipe_fd(ctx: HandlerContext, thread, fd) -> bool:
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


def _procfs_path(ctx: HandlerContext, thread, fd) -> str:
    try:
        path = thread.process.fdtable.get(fd).path
    except Exception:
        return ""
    return path if path.startswith("/proc/") else ""


def handle_read(ctx: HandlerContext, thread, call) -> Outcome:
    # /proc files are windows onto the host (cpuinfo, uptime, version):
    # serve the canonical uniprocessor's answers instead (§5.8).
    proc_path = _procfs_path(ctx, thread, call.args.get("fd"))
    if proc_path and ctx.config.mask_machine:
        from ...kernel.procfs import CANONICAL_PROC_CONTENT

        content = CANONICAL_PROC_CONTENT.get(proc_path)
        if content is not None:
            of = thread.process.fdtable.get(call.args["fd"])
            start = of.offset
            data = content[start:start + call.args.get("count", 0)]
            of.offset = start + len(data)
            ctx.poke(max(1, len(data) // 512))
            return ("value", data)
    if not ctx.config.retry_partial_io:
        return passthrough(ctx, thread, call)
    if not _is_pipe_fd(ctx, thread, call.args.get("fd")):
        return passthrough(ctx, thread, call)
    want = call.args.get("count", 0)
    key = ("read", thread.tid)
    acc = ctx.io_state.pop(key, b"")
    first = not acc
    while True:
        probe = call.replaced(count=want - len(acc))
        tag, payload = ctx.execute(probe)
        if tag == "block":
            if acc:
                ctx.note_progress()  # we drained pipe bytes before blocking
            ctx.io_state[key] = acc
            return ("block", payload)
        if tag == "err":
            # An error mid-accumulation would lose data in a real tracer
            # too; deliver what we have if any, else the error.
            if acc:
                return ("value", acc)
            return ("error", payload)
        if tag != "ok":
            raise AssertionError("read: unexpected outcome %r" % tag)
        if not first:
            ctx.tracer.obs.count(("tracer", "read_retries"))
        first = False
        data = payload
        ctx.poke(max(1, len(data) // 512))
        acc += data
        if len(acc) >= want or not data:
            return ("value", acc)


def handle_write(ctx: HandlerContext, thread, call) -> Outcome:
    if not ctx.config.retry_partial_io:
        return passthrough(ctx, thread, call)
    if not _is_pipe_fd(ctx, thread, call.args.get("fd")):
        return passthrough(ctx, thread, call)
    data = call.args.get("data", b"")
    if isinstance(data, str):
        data = data.encode()
    key = ("write", thread.tid)
    written = ctx.io_state.pop(key, 0)
    first = written == 0
    if first:
        # The tracer inspects the user buffer once, on the initial stop;
        # retries only adjust the pointer/length registers (Fig. 4).
        ctx.peek(max(1, len(data) // 512))
    while True:
        probe = call.replaced(data=data[written:])
        tag, payload = ctx.execute(probe)
        if tag == "block":
            if written:
                ctx.note_progress()  # partial bytes entered the pipe
            ctx.io_state[key] = written
            return ("block", payload)
        if tag == "err":
            return ("error", payload)
        if tag != "ok":
            raise AssertionError("write: unexpected outcome %r" % tag)
        if not first:
            ctx.tracer.obs.count(("tracer", "write_retries"))
        first = False
        written += payload
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
