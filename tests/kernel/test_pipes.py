import pytest

from repro.kernel.errors import Errno, SyscallError
from repro.kernel.pipes import Pipe
from repro.kernel.waiting import WouldBlock


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
