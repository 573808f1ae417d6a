"""Processes, signals and unsupported operations (§5.1, §5.4, §5.9)."""

from __future__ import annotations

from ..errors import UnsupportedSyscallError
from . import Outcome, passthrough


def handle_spawn(tracer, thread, call) -> Outcome:
    """Serialized spawn: namespace PIDs come out sequentially (§5.1)."""
    tracer.peek_memory(2)  # argv/env pointers
    return passthrough(tracer, thread, call)


def handle_kill(tracer, thread, call) -> Outcome:
    """Self-signals only: cross-process signals are unsupported (§5.4)."""
    target = call.args.get("pid")
    if target != thread.process.nspid:
        raise UnsupportedSyscallError(
            "kill", "signals between processes (pid %s)" % target)
    return passthrough(tracer, thread, call)


def handle_download(tracer, thread, call) -> Outcome:
    """Checksum-pinned downloads only (§3): the delivered bytes are a
    pure function of the pinned digest, and the volatile transfer
    metadata (date, server, request ids) is canonicalized away."""
    import hashlib

    url = call.args.get("url", "")
    expected = tracer.config.allowed_downloads.get(url)
    if expected is None:
        raise UnsupportedSyscallError(
            "download", "no pinned checksum for %s" % url)
    outcome = tracer.kernel.execute(thread, call)
    if outcome[0] == "error":
        return outcome
    body, _headers = outcome[1]
    actual = hashlib.sha256(body).hexdigest()
    if actual != expected:
        raise UnsupportedSyscallError(
            "download", "checksum mismatch for %s (%s != %s)"
            % (url, actual[:12], expected[:12]))
    canonical_headers = {"Date": "0", "Server": "dettrace",
                         "X-Request-Id": "0" * 16}
    tracer.poke_memory(max(1, len(body) // 512))
    return ("value", (body, canonical_headers))


def handle_socketpair(tracer, thread, call) -> Outcome:
    """Container-internal IPC: a socketpair is just a crossed pipe pair,
    fully covered by the serialized-syscall discipline and the
    partial-IO retry machinery — reproducible, unlike network sockets."""
    if not tracer.config.allow_container_ipc_sockets:
        raise UnsupportedSyscallError("socketpair", "sockets disabled")
    return passthrough(tracer, thread, call)


def handle_socket(tracer, thread, call) -> Outcome:
    """Family-aware gate: AF_UNIX sockets are container-internal IPC
    (the socketpair carve-out); AF_INET is only admitted when the
    deterministic-loopback subsystem is enabled or sockets pass through
    wholesale (reject_sockets ablated)."""
    from ...kernel import sockets as socklib

    cfg = tracer.config
    family = call.args.get("family", socklib.AF_INET)
    if family == socklib.AF_UNIX:
        if not cfg.allow_container_ipc_sockets:
            raise UnsupportedSyscallError("socket", "sockets disabled")
    elif cfg.reject_sockets and not cfg.deterministic_loopback:
        raise UnsupportedSyscallError("socket", "network communication")
    return passthrough(tracer, thread, call)


def handle_connect(tracer, thread, call) -> Outcome:
    """Address-aware gate: in-container rendezvous (AF_UNIX paths,
    loopback AF_INET) is deterministic; anything naming an external host
    is network communication and keeps the §5.9 rejection."""
    from ...kernel import sockets as socklib

    cfg = tracer.config
    address = call.args.get("address", "")
    if socklib.is_unix_address(address):
        if not cfg.allow_container_ipc_sockets:
            raise UnsupportedSyscallError("connect", "sockets disabled")
    elif socklib.is_loopback_address(address):
        if cfg.reject_sockets and not cfg.deterministic_loopback:
            raise UnsupportedSyscallError("connect", "network communication")
    elif cfg.reject_sockets:
        raise UnsupportedSyscallError("connect", "network communication")
    outcome = passthrough(tracer, thread, call)
    if outcome[0] == "value":
        tracer.obs.count(("tracer", "socket_connects"))
    return outcome


def handle_accept(tracer, thread, call) -> Outcome:
    outcome = passthrough(tracer, thread, call)
    if outcome[0] == "value":
        tracer.obs.count(("tracer", "socket_accepts"))
    return outcome


def _unsupported(name: str, reason: str):
    def handler(tracer, thread, call):
        raise UnsupportedSyscallError(name, reason)

    return handler


HANDLERS = {
    "spawn_process": handle_spawn,
    # The long tail of miscellaneous syscalls DetTrace does not yet
    # support (§7.1.1).
    "perf_event_open": _unsupported("perf_event_open", "hardware counters"),
    "inotify_init": _unsupported("inotify_init", "asynchronous fs events"),
    "bpf": _unsupported("bpf", "kernel programs"),
    "execve": handle_spawn,
    "kill": handle_kill,
    "socket": handle_socket,
    "download": handle_download,
    "socketpair": handle_socketpair,
    "connect": handle_connect,
    "accept": handle_accept,
}
