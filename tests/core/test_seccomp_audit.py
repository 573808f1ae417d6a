"""Audit of the seccomp no-stop allow-list (paper §5.11).

Every name in NATURALLY_REPRODUCIBLE skips the tracer entirely, so the
list is load-bearing for determinism: a syscall that reads shared state
or mutates anything another process can observe must never appear here.
This file pins the two scariest members — ``fsync`` and ``sync`` — whose
verdicts are pure functions of the caller's own descriptor table
(``fsync`` fails EINVAL on fds with no backing store — pipes, FIFOs,
sockets — and otherwise returns 0 with no observable mutation), and
checks the compiled verdict table agrees with the raw membership rule.
"""
from repro.core import ContainerConfig
from repro.cpu.machine import HostEnvironment
from repro.kernel.costs import (
    LEGACY_DOUBLE_STOP_COST,
    PTRACE_STOP_COST,
    SECCOMP_COMBINED_STOP_COST,
)
from repro.kernel.types import O_CREAT, O_TRUNC, O_WRONLY
from repro.tracer.seccomp import NATURALLY_REPRODUCIBLE, SeccompFilter
from tests.conftest import dettrace_run, run_guest

#: Syscalls that touch shared or irreproducible state: none may ever be
#: allowed through without a stop.
MUST_INTERCEPT = {
    "read", "write", "open", "openat", "close", "unlink", "rename",
    "mkdir", "rmdir", "getdents", "stat", "fstat", "utime",
    "time", "gettimeofday", "clock_gettime", "nanosleep",
    "getrandom", "fork", "clone", "execve", "wait4", "exit_group",
    "pipe", "pipe2", "kill", "futex", "mmap",
}


def test_allowlist_never_covers_shared_state():
    assert not (NATURALLY_REPRODUCIBLE & MUST_INTERCEPT)


def test_compiled_verdicts_match_membership():
    filt = SeccompFilter()
    names = sorted(NATURALLY_REPRODUCIBLE | MUST_INTERCEPT)
    # Query twice: the verdict is a pure function of the name, which is
    # what lets the kernel keep it in its per-name dispatch record.
    for _ in range(2):
        for name in names:
            assert filt.intercepts(name) == (name not in NATURALLY_REPRODUCIBLE)


def test_disabled_filter_intercepts_everything():
    filt = SeccompFilter(enabled=False)
    for name in sorted(NATURALLY_REPRODUCIBLE):
        assert filt.intercepts(name)
    assert filt.stop_cost == 2 * PTRACE_STOP_COST


def test_stop_cost_compiled_per_kernel_version():
    assert SeccompFilter(kernel_version=(4, 15)).stop_cost == SECCOMP_COMBINED_STOP_COST
    assert SeccompFilter(kernel_version=(4, 2)).stop_cost == LEGACY_DOUBLE_STOP_COST


def test_fsync_is_a_result_only_noop():
    """fsync on a regular file validates the fd and returns 0 — no data,
    metadata, or timestamp mutation another process could observe.  (On
    pipes/FIFOs/sockets it fails EINVAL instead — still a pure function
    of per-process fd state; tests/kernel/test_posix_conformance.py.)"""
    def main(sys):
        fd = yield from sys.open("/build/f", O_WRONLY | O_CREAT | O_TRUNC)
        yield from sys.write(fd, b"payload")
        before = yield from sys.stat("/build/f")
        rc = yield from sys.syscall("fsync", fd=fd)
        assert rc == 0
        after = yield from sys.stat("/build/f")
        assert (before.st_size, before.st_mtime, before.st_ino) \
            == (after.st_size, after.st_mtime, after.st_ino)
        yield from sys.close(fd)
        return 0

    _, proc = run_guest(main)
    assert proc.exit_status == 0


def test_fsync_bad_fd_raises():
    from repro.kernel.errors import Errno, SyscallError

    def main(sys):
        try:
            yield from sys.syscall("fsync", fd=999)
        except SyscallError as e:
            assert e.errno == Errno.EBADF
            return 0
        return 1

    _, proc = run_guest(main)
    assert proc.exit_status == 0


def test_sync_heavy_program_reproducible_across_hosts():
    """End-to-end: a write/fsync/sync-dense program stays a pure
    function of its image even though fsync/sync never stop."""
    def main(sys):
        for i in range(5):
            fd = yield from sys.open("f%d" % i, O_WRONLY | O_CREAT | O_TRUNC)
            yield from sys.write(fd, b"x" * (i + 1))
            yield from sys.syscall("fsync", fd=fd)
            yield from sys.close(fd)
            yield from sys.syscall("sync")
        stat = yield from sys.stat("f0")
        yield from sys.write_file("log", "%.0f" % stat.st_mtime)
        return 0

    ra = dettrace_run(main, host=HostEnvironment(entropy_seed=3, boot_epoch=1.6e9))
    rb = dettrace_run(main, host=HostEnvironment(entropy_seed=77, boot_epoch=1.9e9))
    assert ra.exit_code == rb.exit_code == 0
    assert ra.output_tree == rb.output_tree


def test_allowlisted_calls_cost_no_stop():
    """The whole point of the allow-list: no tracer stop, so a guest
    spinning on allow-listed calls accrues less virtual stop time than
    one forced through the filter-disabled double-stop path."""
    def main(sys):
        for _ in range(50):
            yield from sys.getpid()
        return 0

    fast = dettrace_run(main, config=ContainerConfig(use_seccomp=True))
    slow = dettrace_run(main, config=ContainerConfig(use_seccomp=False))
    assert fast.exit_code == slow.exit_code == 0
    assert fast.output_tree == slow.output_tree
    assert fast.wall_time < slow.wall_time
