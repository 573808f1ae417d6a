"""Character devices: /dev/null, /dev/zero, /dev/urandom, consoles.

``/dev/random`` and ``/dev/urandom`` read from the host entropy pool — a
prime irreproducibility source (paper §5.2).  DetTrace replaces them with
named pipes fed by its LFSR PRNG; in the simulation the same effect is
achieved by swapping the device read hook inside the container image.
"""

from __future__ import annotations

from typing import Callable, List

from ..cpu.machine import HostEnvironment
from .filesystem import Filesystem


class ConsoleStream:
    """Collects guest writes to stdout/stderr for host-side inspection."""

    def __init__(self, name: str):
        self.name = name
        self.chunks: List[bytes] = []

    def write(self, data: bytes) -> int:
        self.chunks.append(bytes(data))
        return len(data)

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)

    def text(self) -> str:
        return self.getvalue().decode(errors="replace")


def make_urandom_read(host: HostEnvironment) -> Callable[[int], bytes]:
    """Read hook backed by the host's true entropy pool."""

    def read(n: int) -> bytes:
        return host.entropy_bytes(n)

    return read


def install_standard_devices(fs: Filesystem, host: HostEnvironment,
                             stdout: ConsoleStream, stderr: ConsoleStream) -> None:
    """Populate ``/dev`` with the devices guest programs expect."""
    dev = fs.mkdirs("/dev", now=host.boot_epoch)

    def null_read(n: int) -> bytes:
        return b""

    def null_write(data: bytes) -> int:
        return len(data)

    def zero_read(n: int) -> bytes:
        return b"\x00" * n

    urandom_read = make_urandom_read(host)

    fs.create_device(dev, "null", dev_read=null_read, dev_write=null_write,
                     now=host.boot_epoch)
    fs.create_device(dev, "zero", dev_read=zero_read, dev_write=null_write,
                     now=host.boot_epoch)
    fs.create_device(dev, "random", dev_read=urandom_read, dev_write=null_write,
                     now=host.boot_epoch)
    fs.create_device(dev, "urandom", dev_read=urandom_read, dev_write=null_write,
                     now=host.boot_epoch)
    fs.create_device(dev, "stdout", dev_read=null_read, dev_write=stdout.write,
                     now=host.boot_epoch)
    fs.create_device(dev, "stderr", dev_read=null_read, dev_write=stderr.write,
                     now=host.boot_epoch)
