"""Processes, signals and unsupported operations (§5.1, §5.4, §5.9)."""

from __future__ import annotations

from ..errors import UnsupportedSyscallError
from . import HandlerContext, Outcome, passthrough


def handle_spawn(ctx: HandlerContext, thread, call) -> Outcome:
    """Serialized spawn: namespace PIDs come out sequentially (§5.1)."""
    ctx.peek(2)  # argv/env pointers
    return passthrough(ctx, thread, call)


def handle_kill(ctx: HandlerContext, thread, call) -> Outcome:
    """Self-signals only: cross-process signals are unsupported (§5.4)."""
    target = call.args.get("pid")
    if target != thread.process.nspid:
        raise UnsupportedSyscallError(
            "kill", "signals between processes (pid %s)" % target)
    return passthrough(ctx, thread, call)


def handle_download(ctx: HandlerContext, thread, call) -> Outcome:
    """Checksum-pinned downloads only (§3): the delivered bytes are a
    pure function of the pinned digest, and the volatile transfer
    metadata (date, server, request ids) is canonicalized away."""
    import hashlib

    url = call.args.get("url", "")
    expected = ctx.config.allowed_downloads.get(url)
    if expected is None:
        raise UnsupportedSyscallError(
            "download", "no pinned checksum for %s" % url)
    tag, payload = ctx.execute(call)
    if tag == "err":
        return ("error", payload)
    body, _headers = payload
    actual = hashlib.sha256(body).hexdigest()
    if actual != expected:
        raise UnsupportedSyscallError(
            "download", "checksum mismatch for %s (%s != %s)"
            % (url, actual[:12], expected[:12]))
    canonical_headers = {"Date": "0", "Server": "dettrace",
                         "X-Request-Id": "0" * 16}
    ctx.poke(max(1, len(body) // 512))
    return ("value", (body, canonical_headers))


def handle_socketpair(ctx: HandlerContext, thread, call) -> Outcome:
    """Container-internal IPC: a socketpair is just a crossed pipe pair,
    fully covered by the serialized-syscall discipline and the
    partial-IO retry machinery — reproducible, unlike network sockets."""
    if not ctx.config.allow_container_ipc_sockets:
        raise UnsupportedSyscallError("socketpair", "sockets disabled")
    return passthrough(ctx, thread, call)


def handle_socket(ctx: HandlerContext, thread, call) -> Outcome:
    """Family-aware gate: AF_UNIX sockets are container-internal IPC
    (the socketpair carve-out); AF_INET is only admitted when the
    deterministic-loopback subsystem is enabled or sockets pass through
    wholesale (reject_sockets ablated)."""
    from ...kernel import sockets as socklib

    family = call.args.get("family", socklib.AF_INET)
    if family == socklib.AF_UNIX:
        if not ctx.config.allow_container_ipc_sockets:
            raise UnsupportedSyscallError("socket", "sockets disabled")
    elif ctx.config.reject_sockets and not ctx.config.deterministic_loopback:
        raise UnsupportedSyscallError("socket", "network communication")
    return passthrough(ctx, thread, call)


def handle_connect(ctx: HandlerContext, thread, call) -> Outcome:
    """Address-aware gate: in-container rendezvous (AF_UNIX paths,
    loopback AF_INET) is deterministic; anything naming an external host
    is network communication and keeps the §5.9 rejection."""
    from ...kernel import sockets as socklib

    address = call.args.get("address", "")
    if socklib.is_unix_address(address):
        if not ctx.config.allow_container_ipc_sockets:
            raise UnsupportedSyscallError("connect", "sockets disabled")
    elif socklib.is_loopback_address(address):
        if ctx.config.reject_sockets and not ctx.config.deterministic_loopback:
            raise UnsupportedSyscallError("connect", "network communication")
    elif ctx.config.reject_sockets:
        raise UnsupportedSyscallError("connect", "network communication")
    outcome = passthrough(ctx, thread, call)
    if outcome[0] == "value":
        ctx.tracer.obs.count(("tracer", "socket_connects"))
    return outcome


def handle_accept(ctx: HandlerContext, thread, call) -> Outcome:
    outcome = passthrough(ctx, thread, call)
    if outcome[0] == "value":
        ctx.tracer.obs.count(("tracer", "socket_accepts"))
    return outcome


def _unsupported(name: str, reason: str):
    def handler(ctx, thread, call):
        raise UnsupportedSyscallError(name, reason)

    return handler


HANDLERS = {
    "spawn_process": handle_spawn,
    # The long tail of miscellaneous syscalls DetTrace does not yet
    # support (§7.1.1).
    "perf_event_open": _unsupported("perf_event_open", "hardware counters"),
    "inotify_init": _unsupported("inotify_init", "asynchronous fs events"),
    "bpf": _unsupported("bpf", "kernel programs"),
    "spawn_thread": passthrough,
    "execve": handle_spawn,
    "exit": passthrough,
    "exit_thread": passthrough,
    "wait4": passthrough,
    "futex": passthrough,
    "sigaction": passthrough,
    "kill": handle_kill,
    "socket": handle_socket,
    "download": handle_download,
    "socketpair": handle_socketpair,
    "connect": handle_connect,
    # The rest of the deterministic socket surface only needs the
    # serialized-syscall discipline: addresses, backlogs and the
    # ephemeral-port counter are already pure container state.
    "bind": passthrough,
    "listen": passthrough,
    "accept": handle_accept,
    "shutdown": passthrough,
    "getsockname": passthrough,
    "setuid": passthrough,
    "setgid": passthrough,
}
