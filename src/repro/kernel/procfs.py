"""/proc: kernel state presented as files.

Real builds read /proc constantly (``nproc`` parses /proc/cpuinfo,
uptime daemons read /proc/uptime, configure scripts sniff /proc/version)
— and every one of those files is a direct window onto the host.  The
nodes here are device-backed: content is generated at read time from the
live kernel state, exactly like the real procfs.

DetTrace's own implementation *uses* /proc (finding the real inode of a
freshly-opened fd, §5.5); the simulated tracer reads the kernel
structures directly, but the guest-visible files below still need
masking, which the read handler does by path (see
``repro.core.handlers.io``).
"""

from __future__ import annotations

from typing import Callable, List


def _cpuinfo(kernel) -> bytes:
    machine = kernel.host.machine
    blocks = []
    for core in range(machine.cores):
        blocks.append(
            "processor\t: %d\n"
            "vendor_id\t: %s\n"
            "cpu family\t: %d\n"
            "model\t\t: %d\n"
            "model name\t: %s\n"
            "cpu MHz\t\t: %.3f\n"
            "flags\t\t: %s\n"
            % (core, machine.cpu_vendor, machine.cpu_family,
               machine.cpu_model, machine.cpu_brand,
               machine.freq_ghz * 1000.0, " ".join(machine.features)))
    return "\n".join(blocks).encode()


def _meminfo(kernel) -> bytes:
    total_kb = kernel.host.machine.total_ram_gb << 20
    free_kb = total_kb - int(kernel.clock.now * 1000) % (total_kb // 2)
    return (b"MemTotal:       %d kB\nMemFree:        %d kB\n"
            % (total_kb, free_kb))


def _uptime(kernel) -> bytes:
    return b"%.2f %.2f\n" % (kernel.clock.now, kernel.clock.now * 0.9)


def _version(kernel) -> bytes:
    machine = kernel.host.machine
    return (b"Linux version %d.%d.0-generic (%s)\n"
            % (machine.kernel_version[0], machine.kernel_version[1],
               machine.os_name.encode()))


def _loadavg(kernel) -> bytes:
    load = kernel.cores_busy + kernel.host.sched_jitter(0.5)
    return b"%.2f %.2f %.2f %d/%d 1\n" % (
        load, load * 0.9, load * 0.8,
        kernel.cores_busy, len(kernel.live_processes()))


#: path under /proc -> generator over the kernel.
PROC_FILES = {
    "cpuinfo": _cpuinfo,
    "meminfo": _meminfo,
    "uptime": _uptime,
    "version": _version,
    "loadavg": _loadavg,
}


class ProcFile:
    """The read hook of one /proc file.

    procfs regenerates a file on each open; a device read hook has no
    open notion, so the content is regenerated from the live kernel
    whenever it is read from the top (``pos`` 0).
    """

    __slots__ = ("kernel", "generate", "pos")

    def __init__(self, kernel, generate: Callable):
        #: The kernel whose state the file shows; cleared by the run's
        #: teardown (``Kernel.teardown``), since the hook lives in that
        #: kernel's own filesystem tree.
        self.kernel = kernel
        self.generate = generate
        self.pos = 0

    def __call__(self, count: int) -> bytes:
        content = self.generate(self.kernel)
        data = content[self.pos:self.pos + count]
        self.pos = 0 if not data else self.pos + len(data)
        return data


def install_procfs(kernel) -> List[ProcFile]:
    """Mount /proc on the kernel's filesystem; returns the read hooks."""
    fs = kernel.fs
    proc_dir = fs.mkdirs("/proc", now=kernel.host.boot_epoch)
    hooks = []
    for name, generate in PROC_FILES.items():
        if proc_dir.lookup(name) is None:
            hook = ProcFile(kernel, generate)
            fs.create_device(proc_dir, name, dev_read=hook, mode=0o444,
                             now=kernel.host.boot_epoch)
            hooks.append(hook)
    return hooks


#: What the files report inside a DetTrace container (§5.8's canonical
#: uniprocessor, applied to procfs).
CANONICAL_PROC_CONTENT = {
    "/proc/cpuinfo": (
        b"processor\t: 0\n"
        b"vendor_id\t: GenuineIntel\n"
        b"cpu family\t: 6\n"
        b"model\t\t: 0\n"
        b"model name\t: DetTrace Virtual CPU @ 1.00GHz\n"
        b"cpu MHz\t\t: 1000.000\n"
        b"flags\t\t: avx\n"),
    "/proc/meminfo": (b"MemTotal:       4194304 kB\n"
                      b"MemFree:        2097152 kB\n"),
    "/proc/uptime": b"1000.00 900.00\n",
    "/proc/version": b"Linux version 4.0.0-generic (dettrace)\n",
    "/proc/loadavg": b"0.00 0.00 0.00 1/1 1\n",
}
