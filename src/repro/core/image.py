"""Container images: the initial filesystem state plus guest binaries.

A DetTrace computation is a pure function of the container configuration
and the initial filesystem state (Figure 1); an :class:`Image` is that
initial state.  The same image drives both a DetTrace container and a
native baseline run, so reprotest-style comparisons start from identical
file trees.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..guest.program import BinaryRegistry

#: Directories every image gets, mirroring a debootstrap chroot.
STANDARD_DIRS = (
    "/bin", "/usr/bin", "/usr/lib", "/lib", "/etc", "/tmp", "/var/tmp",
    "/root", "/home", "/proc", "/run",
)

SetupFn = Callable[[object, str], None]  # (kernel, build_dir) -> None


class Image:
    """A buildable description of the initial container filesystem."""

    def __init__(self):
        self.registry = BinaryRegistry()
        self._files: List[Tuple[str, bytes, int]] = []
        self._dirs: List[str] = list(STANDARD_DIRS)
        self._setup_fns: List[SetupFn] = []
        self._urls = {}

    # -- construction -------------------------------------------------------

    def add_dir(self, path: str) -> None:
        self._dirs.append(path)

    def add_file(self, path: str, data, mode: int = 0o644) -> None:
        if isinstance(data, str):
            data = data.encode()
        self._files.append((path, data, mode))

    def add_binary(self, path: str, factory) -> None:
        self.registry.add(path, factory)

    def add_url(self, url: str, body) -> None:
        """Publish *body* at *url* on the simulated network."""
        if isinstance(body, str):
            body = body.encode()
        self._urls[url] = body

    def on_setup(self, fn: SetupFn) -> None:
        """Run *fn(kernel, build_dir)* after the base tree is installed."""
        self._setup_fns.append(fn)

    # -- installation ------------------------------------------------------------

    def install(self, kernel, build_dir: str) -> None:
        """Build the declared tree in *kernel*.  Every declared input read
        here must also be hashed by ``repro.cache.key.image_fingerprint``,
        which keys a cached run by this declaration."""
        now = kernel.host.boot_epoch
        for d in self._dirs:
            kernel.fs.mkdirs(d, now=now)
        kernel.fs.mkdirs(build_dir, now=now)
        # Host identity files: part of the filesystem, so part of the
        # computation's input; the native tree carries the real hostname.
        kernel.fs.write_file("/etc/hostname",
                             kernel.host.machine.hostname.encode() + b"\n", now=now)
        kernel.fs.write_file("/etc/os-release",
                             kernel.host.machine.os_name.encode() + b"\n", now=now)
        for path, data, mode in self._files:
            kernel.fs.write_file(path, data, mode=mode, now=now)
        self.registry.install(kernel)
        kernel.network.update(self._urls)
        for fn in self._setup_fns:
            fn(kernel, build_dir)


def canonicalize_identity_files(kernel) -> None:
    """Pin the host-identity files a DetTrace container image ships."""
    kernel.fs.write_file("/etc/hostname", b"dettrace\n", now=kernel.host.boot_epoch)
    kernel.fs.write_file("/etc/os-release", b"dettrace\n", now=kernel.host.boot_epoch)
