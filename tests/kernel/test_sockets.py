"""Deterministic in-container sockets (repro.kernel.sockets) and the
fd-layer conformance fixes that rode along (dup2 teardown, SIGPIPE,
ESPIPE on sockets, F_SETFL masking)."""
import pytest

from repro.kernel.errors import Errno, SyscallError
from repro.kernel.sockets import (
    AF_INET, AF_UNIX, EPHEMERAL_BASE, SHUT_WR, SOMAXCONN, SocketRegistry,
)
from repro.kernel.types import O_APPEND, O_NONBLOCK, O_RDWR, make_signal_status
from repro.guest import libc
from tests.conftest import dettrace_run, native_run, run_guest

from .test_syscalls import returns

SIGPIPE = 13


class TestRegistry:
    def test_ephemeral_ports_monotonic_never_reused(self):
        reg = SocketRegistry()
        a = reg.alloc_port()
        b = reg.alloc_port()
        assert (a, b) == (EPHEMERAL_BASE, EPHEMERAL_BASE + 1)
        addr = reg.bind(AF_INET, "127.0.0.1:0")
        assert addr == "127.0.0.1:%d" % (EPHEMERAL_BASE + 2)
        reg.release(AF_INET, addr)
        # Releasing never recycles the port: run-stable identity.
        assert reg.bind(AF_INET, "127.0.0.1:0").endswith(
            str(EPHEMERAL_BASE + 3))

    def test_bind_conflict_raises_eaddrinuse(self):
        reg = SocketRegistry()
        reg.bind(AF_UNIX, "/run/a.sock")
        with pytest.raises(SyscallError) as exc:
            reg.bind(AF_UNIX, "/run/a.sock")
        assert exc.value.errno == Errno.EADDRINUSE

    def test_backlog_clamped_to_somaxconn(self):
        reg = SocketRegistry()
        reg.bind(AF_INET, "127.0.0.1:80")
        listener = reg.listen(AF_INET, "127.0.0.1:80", 10_000)
        assert listener.backlog == SOMAXCONN
        assert reg.listen(AF_INET, "127.0.0.1:80", 0).backlog == 1

    def test_every_mutation_bumps_version(self):
        reg = SocketRegistry()
        seen = {reg.version}
        reg.alloc_port()
        seen.add(reg.version)
        reg.bind(AF_UNIX, "/s")
        seen.add(reg.version)
        reg.listen(AF_UNIX, "/s", 4)
        seen.add(reg.version)
        reg.release(AF_UNIX, "/s")
        seen.add(reg.version)
        assert len(seen) == 5


def _echo_client(address):
    def client(sys):
        fd = yield from libc.sock_stream_client(sys, address)
        yield from libc.send_all(sys, fd, b"hello")
        reply = yield from libc.recv_exact(sys, fd, 5)
        yield from sys.close(fd)
        return 0 if reply == b"HELLO" else 1

    return client


def _echo_server(address):
    def server(sys):
        lfd = yield from libc.sock_stream_server(sys, address, backlog=4)
        pid = yield from sys.spawn("/bin/client")
        conn, peer = yield from sys.accept(lfd)
        data = yield from libc.recv_exact(sys, conn, 5)
        yield from libc.send_all(sys, conn, data.upper())
        yield from sys.close(conn)
        yield from sys.close(lfd)
        res = yield from sys.waitpid(pid)
        return (data, peer, res.status)

    return server


class TestStreamSockets:
    def _run(self, address):
        return returns(_echo_server(address),
                       binaries={"/bin/client": _echo_client(address)})

    def test_unix_client_server_roundtrip(self):
        (data, peer, status), _ = self._run("/run/echo.sock")
        assert data == b"hello"
        assert peer == ""          # unnamed AF_UNIX autobind
        assert status == 0

    def test_loopback_inet_roundtrip_with_deterministic_peer_port(self):
        (data, peer, status), _ = self._run("127.0.0.1:8080")
        assert data == b"hello"
        # The client's ephemeral port comes off the per-container
        # counter, not the host: first draw, every run, every machine.
        assert peer == "127.0.0.1:%d" % EPHEMERAL_BASE
        assert status == 0

    def test_ephemeral_ports_identical_across_different_hosts(self):
        from repro.cpu.machine import HostEnvironment

        peers = []
        for seed, pid_start in ((1, 1000), (99, 7777)):
            host = HostEnvironment(entropy_seed=seed, pid_start=pid_start)
            result = {}

            def wrapper(sys):
                value = yield from _echo_server("127.0.0.1:9")(sys)
                result["value"] = value
                return 0

            k, proc = run_guest(
                wrapper, host=host,
                binaries={"/bin/client": _echo_client("127.0.0.1:9")})
            assert proc.exit_status == 0
            peers.append(result["value"][1])
        assert peers[0] == peers[1]

    def test_listen_port_zero_draws_ephemeral_getsockname_reads_it(self):
        def prog(sys):
            fd = yield from sys.socket(family=2)
            yield from sys.bind(fd, "127.0.0.1:0")
            yield from sys.listen(fd, 4)
            return (yield from sys.getsockname(fd))

        value, _ = returns(prog)
        assert value == "127.0.0.1:%d" % EPHEMERAL_BASE

    def test_connect_without_listener_refused(self):
        def prog(sys):
            fd = yield from sys.socket(family=1)
            try:
                yield from sys.connect(fd, "/run/nobody.sock")
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.ECONNREFUSED

    def test_bind_same_address_twice_eaddrinuse(self):
        def prog(sys):
            a = yield from sys.socket(family=1)
            b = yield from sys.socket(family=1)
            yield from sys.bind(a, "/run/one.sock")
            try:
                yield from sys.bind(b, "/run/one.sock")
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.EADDRINUSE

    def test_localhost_and_127_meet_in_same_slot(self):
        def server(sys):
            lfd = yield from libc.sock_stream_server(sys, "localhost:7070")
            pid = yield from sys.spawn("/bin/client")
            conn, _peer = yield from sys.accept(lfd)
            data = yield from libc.recv_exact(sys, conn, 2)
            res = yield from sys.waitpid(pid)
            return (data, res.status)

        (data, status), _ = returns(
            server, binaries={"/bin/client": _ping_client("127.0.0.1:7070")})
        assert data == b"ok"
        assert status == 0

    def test_shutdown_wr_delivers_eof_but_keeps_read_side(self):
        def server(sys):
            lfd = yield from libc.sock_stream_server(sys, "/run/half.sock")
            pid = yield from sys.spawn("/bin/client")
            conn, _ = yield from sys.accept(lfd)
            data = yield from sys.recv(conn, 64)
            eof = yield from sys.recv(conn, 64)   # after client SHUT_WR
            yield from libc.send_all(sys, conn, b"bye")
            res = yield from sys.waitpid(pid)
            return (data, eof, res.status)

        def client(sys):
            fd = yield from libc.sock_stream_client(sys, "/run/half.sock")
            yield from libc.send_all(sys, fd, b"done")
            yield from sys.shutdown(fd, SHUT_WR)
            reply = yield from libc.recv_exact(sys, fd, 3)
            return 0 if reply == b"bye" else 1

        (data, eof, status), _ = returns(
            server, binaries={"/bin/client": client})
        assert data == b"done"
        assert eof == b""
        assert status == 0

    def test_shutdown_leaves_the_registry_version(self):
        """A shutdown changes no registry state, so it must not move the
        stamp that makes a delta snapshot re-carry the sockets section."""
        kernels, seen = [], []

        def prog(sys):
            a, _b = yield from sys.socketpair()
            seen.append(kernels[0].sockets.version)
            yield from sys.shutdown(a, SHUT_WR)
            seen.append(kernels[0].sockets.version)
            return 0

        _k, proc = run_guest(prog, fs_setup=kernels.append)
        assert proc.exit_status == 0
        assert len(seen) == 2 and seen[0] == seen[1]

    def test_close_listener_refuses_queued_connection(self):
        def server(sys):
            lfd = yield from libc.sock_stream_server(sys, "/run/gone.sock")
            # CLOEXEC on the listener: the child must not keep it alive.
            pid = yield from sys.spawn("/bin/client", close_fds=[lfd])
            # Wait for the client to be queued, then slam the door.
            listener = sys.thread.process.fdtable.get(lfd).listener
            while not listener.pending:
                yield from sys.sched_yield()
            yield from sys.close(lfd)
            res = yield from sys.waitpid(pid)
            return res.status

        def client(sys):
            yield from sys.sigaction(SIGPIPE, "ignore")
            fd = yield from libc.sock_stream_client(sys, "/run/gone.sock")
            eof = yield from sys.recv(fd, 8)   # listener closed -> EOF
            try:
                yield from sys.send(fd, b"x")
            except SyscallError as err:
                return 0 if (eof == b"" and err.errno == Errno.EPIPE) else 1
            return 1

        value, _ = returns(server, binaries={"/bin/client": client})
        assert value == 0

    def test_external_address_still_served_by_fake_peer(self):
        def prog(sys):
            fd = yield from sys.socket()
            yield from sys.connect(fd, "build.example.com:443")
            yield from sys.write(fd, b"GET /")
            return (yield from sys.read(fd, 64))

        value, _ = returns(prog)
        assert value.startswith(b"pong ")


def _socketpair_socket_calls(sys):
    """getsockname, connect and accept on one end of a socketpair."""
    a, _b = yield from sys.socketpair()
    answers = [repr((yield from sys.getsockname(a)))]
    for call in (lambda: sys.connect(a, "/run/elsewhere.sock"),
                 lambda: sys.accept(a)):
        try:
            yield from call()
            answers.append("ok")
        except SyscallError as err:
            answers.append(Errno(err.errno).name)
    yield from sys.println(" ".join(answers))
    return 0


class TestSocketpairIsAConnectedSocket:
    """A socketpair end answers the socket calls as a connected AF_UNIX
    socket does: no name, already connected, not listening."""

    @pytest.mark.parametrize("runner", [dettrace_run, native_run],
                             ids=["dettrace", "native"])
    def test_socket_calls_on_a_socketpair_end(self, runner):
        result = runner(_socketpair_socket_calls)
        assert result.exit_code == 0, (result.status, result.error)
        assert result.stdout == "'' EISCONN EINVAL\n"


def _ping_client(address):
    def client(sys):
        fd = yield from libc.sock_stream_client(sys, address)
        yield from libc.send_all(sys, fd, b"ok")
        yield from sys.close(fd)
        return 0

    return client


class TestDup2Teardown:
    def test_dup2_over_last_write_fd_delivers_eof(self):
        # Pre-fix: the displaced write end leaked its writer count, the
        # reader never saw EOF and this program deadlocked.
        def prog(sys):
            r, w = yield from sys.pipe()
            devnull = yield from sys.open("/dev/null")
            yield from sys.write(w, b"tail")
            yield from sys.dup2(devnull, w)     # implicit close of w
            data = yield from sys.read(r, 16)
            eof = yield from sys.read(r, 16)
            return (data, eof)

        (data, eof), _ = returns(prog)
        assert data == b"tail"
        assert eof == b""

    def test_dup2_over_last_read_fd_delivers_epipe(self):
        def prog(sys):
            yield from sys.sigaction(SIGPIPE, "ignore")
            r, w = yield from sys.pipe()
            devnull = yield from sys.open("/dev/null")
            yield from sys.dup2(devnull, r)     # implicit close of r
            try:
                yield from sys.write(w, b"x")
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.EPIPE


class TestSigpipe:
    def test_default_disposition_terminates_writer(self):
        def prog(sys):
            r, w = yield from sys.pipe()
            yield from sys.close(r)
            yield from sys.write(w, b"x")
            return 0   # never reached

        k, proc = run_guest(prog)
        assert proc.exit_status == make_signal_status(SIGPIPE)

    def test_sig_ign_yields_plain_epipe(self):
        def prog(sys):
            yield from sys.sigaction(SIGPIPE, "ignore")
            r, w = yield from sys.pipe()
            yield from sys.close(r)
            try:
                yield from sys.write(w, b"x")
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.EPIPE

    def test_blocked_sigpipe_not_delivered(self):
        def prog(sys):
            yield from sys.syscall("sigprocmask", how="SIG_BLOCK",
                                   mask=(SIGPIPE,))
            r, w = yield from sys.pipe()
            yield from sys.close(r)
            try:
                yield from sys.write(w, b"x")
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.EPIPE

    def test_handler_runs_then_write_fails(self):
        def prog(sys):
            hits = []

            def on_sigpipe(hsys, signum):
                hits.append(signum)
                yield from hsys.compute(1e-6)

            yield from sys.sigaction(SIGPIPE, on_sigpipe)
            r, w = yield from sys.pipe()
            yield from sys.close(r)
            errno = None
            try:
                yield from sys.write(w, b"x")
            except SyscallError as err:
                errno = err.errno
            yield from sys.sched_yield()   # let the handler frame drain
            return (errno, tuple(hits))

        (errno, hits), _ = returns(prog)
        assert errno == Errno.EPIPE
        assert hits == (SIGPIPE,)

    def test_send_to_shutdown_socketpair_raises_sigpipe(self):
        def prog(sys):
            a, b = yield from sys.socketpair()
            yield from sys.shutdown(a, SHUT_WR)
            yield from sys.send(a, b"x")
            return 0   # never reached

        k, proc = run_guest(prog)
        assert proc.exit_status == make_signal_status(SIGPIPE)


class TestLseekEspipe:
    @pytest.mark.parametrize("maker", ["socketpair", "socket"])
    def test_lseek_on_socket_kinds_raises_espipe(self, maker):
        def prog(sys):
            if maker == "socketpair":
                fd, _ = yield from sys.socketpair()
            else:
                fd = yield from sys.socket(family=1)
            try:
                yield from sys.syscall("lseek", fd=fd, offset=10)
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.ESPIPE

    def test_lseek_on_external_fake_socket_raises_espipe(self):
        def prog(sys):
            fd = yield from sys.socket()
            yield from sys.connect(fd, "cdn.example.com:80")
            try:
                yield from sys.syscall("lseek", fd=fd, offset=10)
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.ESPIPE


class TestFcntlSetfl:
    def test_setfl_preserves_access_mode(self):
        def prog(sys):
            fd = yield from sys.open("f", O_RDWR | 0x40)  # O_CREAT
            yield from sys.syscall("fcntl", fd=fd, cmd="F_SETFL",
                                   arg=O_APPEND)
            return (yield from sys.syscall("fcntl", fd=fd, cmd="F_GETFL"))

        value, _ = returns(prog)
        assert value & O_RDWR == O_RDWR      # access mode survives
        assert value & O_APPEND              # status flag applied

    def test_setfl_zero_clears_only_status_flags(self):
        def prog(sys):
            fd = yield from sys.open("f", O_RDWR | 0x40 | O_APPEND)
            yield from sys.syscall("fcntl", fd=fd, cmd="F_SETFL",
                                   arg=O_NONBLOCK)
            return (yield from sys.syscall("fcntl", fd=fd, cmd="F_GETFL"))

        value, _ = returns(prog)
        assert value & O_RDWR == O_RDWR
        assert not value & O_APPEND          # status flag dropped
        assert value & O_NONBLOCK            # new status flag set
