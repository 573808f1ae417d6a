"""A seccomp-bpf analog: selective syscall interception (paper §5.11).

Without a filter, ptrace stops the tracee twice per syscall.  A seccomp
program lets naturally-reproducible syscalls through with *no* stop, and
on kernels >= 4.8 the remaining syscalls cost a single combined event
instead of separate seccomp and ptrace stops.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from ..kernel.costs import (
    LEGACY_DOUBLE_STOP_COST,
    PTRACE_STOP_COST,
    SECCOMP_COMBINED_STOP_COST,
)

#: Syscalls whose results are naturally reproducible inside the container:
#: per-process, read-only or position-only state, with namespace-stable
#: answers.  Everything touching shared state (the filesystem, pipes,
#: other processes, time, randomness) must be intercepted and serialized.
#:
#: ``fsync``/``sync`` look like shared-filesystem calls but are safe to
#: skip: durability is meaningless in the simulated VFS (there is no
#: volatile cache between the inode store and "disk"), so both are
#: result-only — ``sys_fsync`` validates the fd, fails with EINVAL on
#: fd kinds with no backing store (pipes, FIFOs, sockets) and otherwise
#: returns 0; ``sys_sync`` returns 0.  The verdict is a pure function of
#: the calling process's own descriptor table: no shared state is read
#: and nothing is mutated (no mtime updates, no write-back ordering
#: another process could observe), so a no-stop pass-through cannot
#: perturb any other thread's view.  ``umask`` likewise touches only the
#: caller's own creation mask.  ``tests/core/test_seccomp_audit.py``
#: pins this down.
NATURALLY_REPRODUCIBLE: FrozenSet[str] = frozenset({
    "getpid", "getppid", "gettid", "getuid", "getgid",
    "getcwd", "sched_yield", "lseek", "dup", "dup2",
    "umask", "prctl", "getauxval", "sigaction", "fsync",
    "fcntl", "sigprocmask", "setsid", "getgroups", "sync",
})


class SeccompFilter:
    """Decides, per syscall name, whether a ptrace stop happens and its
    cost.

    Both are pure functions of the name for a given installed program:
    ``stop_cost`` is compiled once at construction, and the verdict is
    asked once per name — the kernel keeps it in its per-name dispatch
    record (``Kernel.syscall_names``), the analog of the kernel caching
    a compiled cBPF program instead of re-running the filter source per
    event."""

    def __init__(self, allow: Optional[FrozenSet[str]] = None,
                 enabled: bool = True, kernel_version=(4, 15)):
        self.allow = NATURALLY_REPRODUCIBLE if allow is None else allow
        self.enabled = enabled
        self.kernel_version = tuple(kernel_version)
        #: Virtual seconds of context switching per intercepted syscall.
        if not self.enabled:
            self.stop_cost = 2 * PTRACE_STOP_COST  # entry stop + exit stop
        elif self.kernel_version >= (4, 8):
            self.stop_cost = SECCOMP_COMBINED_STOP_COST
        else:
            self.stop_cost = LEGACY_DOUBLE_STOP_COST

    def intercepts(self, name: str) -> bool:
        return not self.enabled or name not in self.allow
