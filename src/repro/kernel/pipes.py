"""Pipes: the canonical source of partial reads and writes (paper §5.5).

The paper observes that ``read``/``write`` "may read/write arbitrarily
fewer bytes than requested ... they do regularly arise when accessing
pipes."  The simulated pipe reproduces that: a reader gets whatever is
buffered (possibly less than requested), and a writer fills whatever space
remains (possibly less than offered).  DetTrace's io handler then retries
partial operations until the request is satisfied.
"""

from __future__ import annotations

from typing import Optional

from .epoch import Stamp
from .errors import Errno, SyscallError
from .waiting import Channel, WouldBlock

PIPE_CAPACITY = 65536


class Pipe:
    """A unidirectional byte channel with a bounded kernel buffer.

    *pipe_id* comes from the owning kernel's per-container counter
    (:meth:`repro.kernel.kernel.Kernel.new_pipe`), so it is a function
    of the run alone.  *stamp* is the owning kernel's pipes stamp,
    bumped by the pipe's creation and by every mutation below.
    """

    def __init__(self, pipe_id: int, capacity: int = PIPE_CAPACITY,
                 stamp: Optional[Stamp] = None):
        self.stamp = stamp if stamp is not None else Stamp()
        self.stamp.version += 1
        self.pipe_id = pipe_id
        self.capacity = capacity
        self.buffer = bytearray()
        self.readers = 0
        self.writers = 0
        self.readable = Channel("pipe%d.readable" % self.pipe_id)
        self.writable = Channel("pipe%d.writable" % self.pipe_id)
        #: Fired when an end is first opened (FIFO rendezvous).
        self.reader_arrived = Channel("pipe%d.reader_arrived" % self.pipe_id)
        self.writer_arrived = Channel("pipe%d.writer_arrived" % self.pipe_id)
        #: FIFO rendezvous state: a read at EOF distinguishes "writers
        #: closed" from "no writer has shown up yet", and a write without
        #: readers distinguishes EPIPE from "reader still coming".
        self.ever_had_reader = False
        self.ever_had_writer = False

    def touch(self) -> None:
        """Bump the pipes stamp: this pipe's snapshotted state moved."""
        self.stamp.version += 1

    # -- endpoint refcounting -----------------------------------------------

    def open_reader(self) -> None:
        self.readers += 1
        self.ever_had_reader = True
        self.stamp.version += 1

    def open_writer(self) -> None:
        self.writers += 1
        self.ever_had_writer = True
        self.stamp.version += 1

    def close_reader(self) -> "Channel":
        """Close one read end; returns the channel writers must be woken on."""
        self.readers -= 1
        self.stamp.version += 1
        return self.writable

    def close_writer(self) -> "Channel":
        """Close one write end; returns the channel readers must be woken on."""
        self.writers -= 1
        self.stamp.version += 1
        return self.readable

    # -- data transfer --------------------------------------------------------

    def read(self, n: int) -> bytes:
        """Read up to *n* bytes.

        Returns ``b""`` at EOF (no writers, empty buffer); raises
        :class:`WouldBlock` when empty but writers remain; otherwise
        returns *whatever is available*, which is the partial-read hazard.
        """
        if n <= 0:
            return b""
        if not self.buffer:
            if self.writers <= 0:
                if self.ever_had_writer:
                    return b""  # true EOF: all writers closed
                # FIFO rendezvous: the writer has not opened yet.
                raise WouldBlock([self.readable, self.writer_arrived])
            raise WouldBlock([self.readable])
        take = min(n, len(self.buffer))
        data = bytes(self.buffer[:take])
        del self.buffer[:take]
        self.stamp.version += 1
        return data

    def write(self, data: bytes) -> int:
        """Write up to ``len(data)`` bytes; returns bytes accepted.

        Raises EPIPE when no readers remain, and :class:`WouldBlock` when
        the buffer is full.  A partially-full buffer produces a partial
        write.
        """
        if self.readers <= 0:
            if self.ever_had_reader:
                raise SyscallError(Errno.EPIPE, "write")
            # FIFO rendezvous: the reader has not opened yet.
            raise WouldBlock([self.reader_arrived])
        if not data:
            return 0
        space = self.capacity - len(self.buffer)
        if space <= 0:
            raise WouldBlock([self.writable])
        accepted = min(space, len(data))
        self.buffer.extend(data[:accepted])
        self.stamp.version += 1
        return accepted

    @property
    def bytes_buffered(self) -> int:
        return len(self.buffer)
