import pytest

from repro.kernel.errors import Errno, SyscallError
from repro.kernel.pipes import Pipe
from repro.kernel.types import O_WRONLY
from repro.kernel.waiting import WouldBlock

from .test_syscalls import returns


def open_pipe(capacity=16):
    p = Pipe(1, capacity=capacity)
    p.open_reader()
    p.open_writer()
    return p


class TestPipeRead:
    def test_partial_read_returns_available(self):
        p = open_pipe()
        p.write(b"abc")
        assert p.read(10) == b"abc"  # fewer than requested!

    def test_empty_with_writer_blocks(self):
        p = open_pipe()
        with pytest.raises(WouldBlock) as exc:
            p.read(1)
        assert p.readable in exc.value.channels

    def test_eof_when_no_writers(self):
        p = open_pipe()
        p.close_writer()
        assert p.read(10) == b""

    def test_buffered_data_before_eof(self):
        p = open_pipe()
        p.write(b"tail")
        p.close_writer()
        assert p.read(10) == b"tail"
        assert p.read(10) == b""


class TestPipeWrite:
    def test_partial_write_when_nearly_full(self):
        p = open_pipe(capacity=8)
        assert p.write(b"12345") == 5
        assert p.write(b"abcdef") == 3  # only 3 bytes of space

    def test_full_blocks(self):
        p = open_pipe(capacity=4)
        p.write(b"1234")
        with pytest.raises(WouldBlock) as exc:
            p.write(b"x")
        assert p.writable in exc.value.channels

    def test_epipe_when_no_readers(self):
        p = open_pipe()
        p.close_reader()
        with pytest.raises(SyscallError) as exc:
            p.write(b"x")
        assert exc.value.errno == Errno.EPIPE

    def test_write_empty_is_zero(self):
        p = open_pipe()
        assert p.write(b"") == 0

    def test_fifo_ordering(self):
        p = open_pipe()
        p.write(b"ab")
        p.write(b"cd")
        assert p.read(3) == b"abc"
        assert p.read(3) == b"d"


def _errno_of(call):
    try:
        yield from call()
    except SyscallError as err:
        return err.errno
    return None


class TestEndDirections:
    """Each end of a pipe or one-way FIFO moves bytes one way only, and
    none is a socket."""

    def test_wrong_direction_is_ebadf(self):
        def prog(sys):
            r, w = yield from sys.pipe()
            yield from sys.mkfifo("f")
            fr = yield from sys.open("f")
            fw = yield from sys.open("f", O_WRONLY)
            return [(yield from _errno_of(lambda: sys.read(w, 1))),
                    (yield from _errno_of(lambda: sys.write(r, b"x"))),
                    (yield from _errno_of(lambda: sys.read(fw, 1))),
                    (yield from _errno_of(lambda: sys.write(fr, b"x")))]

        value, _ = returns(prog)
        assert value == [Errno.EBADF] * 4

    def test_fionread_counts_the_pipe_from_either_end(self):
        def prog(sys):
            r, w = yield from sys.pipe()
            yield from sys.write(w, b"abc")
            return [(yield from sys.ioctl(r, "FIONREAD")),
                    (yield from sys.ioctl(w, "FIONREAD"))]

        value, _ = returns(prog)
        assert value == [3, 3]

    def test_socket_calls_on_a_pipe_are_enotsock(self):
        def prog(sys):
            r, w = yield from sys.pipe()
            return [(yield from _errno_of(lambda: sys.recv(r, 1))),
                    (yield from _errno_of(lambda: sys.send(w, b"x"))),
                    (yield from _errno_of(lambda: sys.shutdown(r)))]

        value, _ = returns(prog)
        assert value == [Errno.ENOTSOCK] * 3
