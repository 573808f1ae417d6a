"""In-container stream sockets: AF_UNIX and loopback AF_INET (§5.9).

The paper leaves networking as future work but explicitly carves out
"limited forms of socket communication, e.g., as interprocess
communication within our container, that can be rendered reproducible".
This module is that carve-out: a socket layer whose every observable —
ephemeral ports, accept order, blocking points — is a pure function of
guest execution, never of host state.

* A **connection** is a crossed pair of :class:`~repro.kernel.pipes.
  Pipe` objects (client→server and server→client), exactly the
  socketpair model, so buffering, partial transfers, EOF and EPIPE all
  reuse the pipe semantics the tracer already determinizes.
* A **listener** owns a bounded FIFO of fully-established pipe pairs
  plus two :class:`~repro.kernel.waiting.Channel` objects wiring accept
  and connect into the scheduler's park/retry protocol: ``accept``
  blocks on ``accept_ready`` while the queue is empty, ``connect``
  blocks on ``accept_slot`` while the backlog is full — the same
  virtual-time blocking discipline as a pipe read.
* **Ephemeral ports** come from a monotonic per-container counter
  starting at :data:`EPHEMERAL_BASE`; the host's port namespace is
  never consulted.
* The registry stamps a **version** on every mutation so the
  checkpoint layer's section-change detection is O(1) and delta
  snapshots stay O(changed).

Determinization note: none of the syscalls built on this module are in
the tracer's naturally-reproducible set, so every socket operation is
intercepted and serialized by the deterministic scheduler — which is
the whole reproducibility argument: in-container rendezvous under a
deterministic total order has no racing observable left.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import Errno, SyscallError
from .pipes import Pipe
from .waiting import Channel

#: Address families (the two the container can render reproducible).
AF_UNIX = 1
AF_INET = 2
#: The only supported socket type: connection-oriented byte streams.
SOCK_STREAM = 1

#: shutdown(2) directions.
SHUT_RD = 0
SHUT_WR = 1
SHUT_RDWR = 2

#: First deterministic ephemeral port (Linux's default range floor).
EPHEMERAL_BASE = 32768
#: Backlog bound (Linux's net.core.somaxconn default).
SOMAXCONN = 128

#: Loopback host spellings accepted for in-container AF_INET addresses.
LOOPBACK_HOSTS = ("127.0.0.1", "localhost")


def is_loopback_address(address: str) -> bool:
    """True when *address* names the container's own loopback interface."""
    host = address.rsplit(":", 1)[0] if ":" in address else address
    return host in LOOPBACK_HOSTS


def is_unix_address(address: str) -> bool:
    """AF_UNIX addresses are filesystem paths."""
    return address.startswith("/")


class Listener:
    """One listening socket: a bounded queue of established connections.

    ``pending`` holds ``(to_server, to_client, peer_address)`` triples —
    the connection's two pipes are created (and both endpoints opened)
    at *connect* time, so a client may write immediately after connect
    returns, before the server ever accepts: real TCP backlog
    semantics, and the property that makes a mid-connection checkpoint
    capture the queue as plain pipe state.
    """

    def __init__(self, family: int, address: str, backlog: int):
        self.family = family
        self.address = address
        self.backlog = max(1, min(int(backlog), SOMAXCONN))
        self.pending: List[Tuple[Pipe, Pipe, str]] = []
        self.accept_ready = Channel("sock(%s).accept_ready" % address)
        self.accept_slot = Channel("sock(%s).accept_slot" % address)

    @property
    def full(self) -> bool:
        return len(self.pending) >= self.backlog


class SocketRegistry:
    """Per-container socket namespace: bound addresses, listeners and
    the deterministic ephemeral-port counter."""

    def __init__(self):
        #: (family, address) -> Listener for every listening socket.
        self.listeners: Dict[Tuple[int, str], Listener] = {}
        #: Addresses claimed by bind (listening or not): EADDRINUSE set.
        self.bound: Dict[Tuple[int, str], bool] = {}
        self.port_next = EPHEMERAL_BASE
        #: Host-only version stamp, bumped on every mutation: a delta
        #: snapshot re-captures the ``sockets`` section only when it
        #: moved (:func:`repro.ckpt.snapshot.section_stamps`).  Never
        #: part of the captured section itself.
        self.version = 0

    # -- mutation helpers (every write path bumps the epoch) -----------

    def touch(self) -> None:
        self.version += 1

    def alloc_port(self) -> int:
        """Next deterministic ephemeral port (monotonic, never reused —
        mirroring how fd/pid namespaces in this kernel trade reuse for
        run-stable identity)."""
        port = self.port_next
        self.port_next += 1
        self.touch()
        return port

    def bind(self, family: int, address: str) -> str:
        """Claim *address*; returns the (possibly port-filled) address."""
        if family == AF_INET and address.endswith(":0"):
            address = "%s:%d" % (address.rsplit(":", 1)[0],
                                 self.alloc_port())
        key = (family, address)
        if key in self.bound:
            raise SyscallError(Errno.EADDRINUSE, "bind", address)
        self.bound[key] = True
        self.touch()
        return address

    def release(self, family: int, address: str) -> None:
        self.bound.pop((family, address), None)
        self.listeners.pop((family, address), None)
        self.touch()

    def listen(self, family: int, address: str, backlog: int) -> Listener:
        key = (family, address)
        listener = self.listeners.get(key)
        if listener is None:
            listener = Listener(family, address, backlog)
            self.listeners[key] = listener
        else:
            listener.backlog = max(1, min(int(backlog), SOMAXCONN))
        self.touch()
        return listener

    def lookup(self, family: int, address: str) -> Optional[Listener]:
        return self.listeners.get((family, address))
