"""DetTrace container configuration.

Every determinization mechanism from §5 of the paper has a toggle here so
that ablation benchmarks can demonstrate that each one is load-bearing
(turn one off and reproducibility breaks for the workloads that exercise
it).  The defaults reproduce the full DetTrace behaviour.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional, Tuple

from ..faults.plan import FaultPlan
from ..kernel.kernel import DEFAULT_MAX_EVENTS
from .logical_time import DETTRACE_EPOCH

#: The environment a DetTrace container presents regardless of the host's
#: login environment (reprotest varies env vars; the container pins them).
CANONICAL_ENV: Dict[str, str] = {
    "PATH": "/usr/local/bin:/usr/bin:/bin",
    "HOME": "/root",
    "USER": "root",
    "SHELL": "/bin/sh",
    "LANG": "C",
    "TZ": "UTC",
}

#: Fixed ASLR base inside the container.
FIXED_ASLR_BASE = 0x5555_5555_0000


@dataclasses.dataclass(frozen=True)
class CheckpointConfig:
    """Crash-consistent checkpointing (repro.ckpt).

    Snapshots are taken at virtual-time barriers — between kernel
    events — every ``every`` event ticks (0 = only on request, e.g.
    SIGTERM) and journalled atomically under ``directory``.  ``keep``
    bounds how many valid snapshots survive pruning.

    ``full_every`` controls the incremental-checkpoint cadence: one
    self-contained full snapshot every N snapshots, dirty-tracked delta
    records in between (1 = every snapshot full, the legacy layout).
    It never affects guest execution — only journal layout — and is
    deliberately excluded from the config fingerprint so a resumed run
    may use a different cadence than the crashed one.
    """

    directory: str
    every: int = 0
    keep: int = 3
    full_every: int = 4


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Content-addressed run memoization (repro.cache).

    ``directory`` is the cache root (``keys/`` + ``objects/`` CAS);
    ``mode`` is the consult/store policy:

    * ``"off"``    — never consult or store (as if no cache were set).
    * ``"read"``   — consult only; never writes (shared read-only cache).
    * ``"write"``  — consult, and store clean ``ok`` runs on miss
      (the default for ``--cache-dir``).
    * ``"verify"`` — always execute; byte-compare against the entry and
      report any mismatch as a divergence; store when absent.

    Like ``checkpoint``, this is operational — it never changes what a
    run computes, only whether it executes — so it is excluded from the
    config fingerprint (and hence from run keys: a cached entry is
    reachable regardless of the cache policy that stored it).
    """

    directory: str
    mode: str = "write"


@dataclasses.dataclass
class ContainerConfig:
    """Knobs for one DetTrace container."""

    #: Seed for the LFSR PRNG behind getrandom//dev/urandom (§5.2).
    prng_seed: int = 0
    #: The epoch logical time starts from (§5.3).
    epoch: int = DETTRACE_EPOCH
    #: Where the working tree is bind-mounted inside the container.
    working_dir: str = "/build"
    #: Virtual-time budget for the whole run (the paper's 2h build cap).
    timeout: float = 7200.0
    #: Compute-work seconds without a syscall before a thread is declared
    #: busy-waiting (§5.9).  Must be below the container timeout so spins
    #: surface as the reproducible busy-wait error, not a timeout.
    busy_wait_budget: Optional[float] = 0.3

    # -- §5 mechanisms, individually ablatable -------------------------------

    #: Report logical time instead of wall time (§5.3).
    virtualize_time: bool = True
    #: Rewrite each process's vDSO so timing library calls become real,
    #: interceptable syscalls (§5.3).
    patch_vdso: bool = True
    #: Replace /dev/random and /dev/urandom with PRNG pipes; serve
    #: getrandom from the PRNG (§5.2).
    deterministic_randomness: bool = True
    #: Virtualize inode numbers and mtimes in stat results (§5.5).
    virtualize_inodes: bool = True
    #: Sort getdents results by name (§5.5).
    sort_getdents: bool = True
    #: Retry partial reads/writes via syscall injection (§5.5, Fig. 4).
    retry_partial_io: bool = True
    #: Report directory sizes as a function of entry count (§7.3).
    deterministic_dir_sizes: bool = True
    #: PID namespace with sequential PIDs (§5.1).
    deterministic_pids: bool = True
    #: uid/gid namespace mapping current user to root (§5.1).
    map_user_to_root: bool = True
    #: Explicit uid/gid overrides on top of the default map (§5.5: "this
    #: mapping is also part of the input to DetTrace").  host id ->
    #: container id.
    uid_map: Dict[int, int] = dataclasses.field(default_factory=dict)
    gid_map: Dict[int, int] = dataclasses.field(default_factory=dict)
    #: Serialize threads within a process (§5.7).
    serialize_threads: bool = True
    #: Trap rdtsc/rdtscp and report a linear counter (§5.8).
    trap_rdtsc: bool = True
    #: Intercept cpuid (Ivy Bridge+) and present a canonical uniprocessor
    #: without TSX/RDRAND (§5.8).
    mask_cpuid: bool = True
    #: Present a canonical uname/sysinfo (Linux 4.0 uniprocessor, §3).
    mask_machine: bool = True
    #: Disable ASLR inside the container.
    disable_aslr: bool = True
    #: Pin the container environment variables to CANONICAL_ENV.
    canonical_env: bool = True
    #: Emulate timers (alarm fires instantly via pause+signal, §5.4) and
    #: nop sleeps.
    emulate_timers: bool = True
    #: Use seccomp-bpf filtering to skip naturally-reproducible syscalls
    #: (§5.11).  Disabling falls back to plain double-stop ptrace.
    use_seccomp: bool = True
    #: Reproducible scheduler implementation: "logical" (deterministic
    #: logical-clock order in O(log n) per decision; scales like the
    #: paper's measurements), "logical-ref" (the original quadratic
    #: implementation of the same policy — the differential-testing
    #: oracle) or "strict" (the literal Figure 3 queues; serializes
    #: behind the Parallel front — kept for ablation).
    scheduler: str = "logical"
    #: Filesystem hot-path caches (dentry/namei + getdents ordering).
    #: Pure memoization — results are byte-identical either way (the
    #: cache on/off identity tests) — so this stays True except when
    #: differentially testing the caches themselves.
    fs_caches: bool = True
    #: Raise a reproducible error on socket use (§5.9); if False, sockets
    #: pass through natively (irreproducible).
    reject_sockets: bool = True
    #: Checksummed external downloads (the §3 future-work model:
    #: "downloading files with known checksums"): url -> expected sha256
    #: hex digest.  Any other download is a reproducible error.
    allowed_downloads: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Allow AF_UNIX socketpair IPC *within* the container (the paper's
    #: §5.9 future-work item: "limited forms of socket communication,
    #: e.g., as interprocess communication within our container, that can
    #: be rendered reproducible").
    allow_container_ipc_sockets: bool = True
    #: Allow loopback AF_INET stream sockets between container processes
    #: (repro.kernel.sockets).  Rendered reproducible the same way as
    #: pipes: deterministic ephemeral ports, serialized rendezvous,
    #: virtual-time blocking.  Off by default so the strict §5.9 posture
    #: ("reject network communication") stays the baseline; the sockets
    #: fuzz axis and the client-server example turn it on explicitly.
    deterministic_loopback: bool = False
    #: Debug verbosity (the artifact's ``--debug N``): 0 = off, 1 = log
    #: serviced syscalls, 2 = also instruction traps and probes.  Lines
    #: are collected on ``ContainerResult.debug_log``.
    debug: int = 0

    # -- observability (repro.obs) -------------------------------------------

    #: Record the structured event stream (tracer spans plus syscall /
    #: trap / fault / spawn instants) and surface it as
    #: ``ContainerResult.trace`` — Chrome trace_event JSON keyed only on
    #: deterministic virtual time and coordinates.  Aggregated metrics
    #: (``ContainerResult.metrics``) are always collected; this toggle
    #: only gates the per-event stream, whose memory grows with the run.
    #: Hard invariant (tests/obs): flipping it never changes output
    #: hashes, exit statuses, or virtual-time schedules.
    observe: bool = False

    # -- robustness: the fault plane & supervised runs -----------------------

    #: Deterministic fault-injection plan (repro.faults).  ``None`` means
    #: the fault plane is not wired in at all; an *empty* plan wires it in
    #: but injects nothing — the two must be observationally identical
    #: (verified by repro.faults.verify).
    fault_plan: Optional[FaultPlan] = None
    #: Watchdog: hard cap on kernel events per run; livelocks that evade
    #: the busy-wait detector hit this and classify as CRASHED.
    max_events: int = DEFAULT_MAX_EVENTS
    #: ``run_supervised``: maximum retries after transient-fault failures.
    max_retries: int = 2
    #: ``run_supervised``: base of the deterministic virtual-time backoff
    #: (doubles per retry; pure virtual seconds, never host time).
    retry_backoff: float = 0.05

    # -- robustness: crash-consistent checkpointing (repro.ckpt) -------------

    #: Checkpoint/restore configuration; None = checkpointing off (and
    #: the kernel's tape hooks stay a single attribute test).
    checkpoint: Optional[CheckpointConfig] = None

    # -- memoization: the content-addressed run cache (repro.cache) ----------

    #: Run-cache configuration; None = no cache consulted or written.
    cache: Optional[CacheConfig] = None

    def env_for(self, host_env: Dict[str, str]) -> Dict[str, str]:
        if self.canonical_env:
            return dict(CANONICAL_ENV)
        return dict(host_env)

    def fingerprint(self) -> str:
        """Stable digest of every determinism-relevant knob.

        Stamped into snapshot headers so a resume refuses state from a
        differently-configured world.  ``checkpoint`` and ``cache`` are
        excluded: where you snapshot or memoize does not change what the
        run computes (the zero-perturbation invariant the identity tests
        enforce) — and the cache *key* hashing this fingerprint must not
        depend on the cache policy consulting it.
        """
        spec: Dict[str, object] = {}
        for field in dataclasses.fields(self):
            if field.name in ("checkpoint", "cache"):
                continue
            value = getattr(self, field.name)
            if field.name == "fault_plan":
                value = value.to_dict() if value is not None else None
            spec[field.name] = value
        blob = json.dumps(spec, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The determinization mechanisms, declared once: every knob of
#: :class:`ContainerConfig` that defaults to on.  :func:`ablated` turns
#: exactly one off, and with any one off the run may observe the boot, so
#: the run cache keys the whole boot (:mod:`repro.cache.key`).
MECHANISMS: Tuple[str, ...] = tuple(
    field.name for field in dataclasses.fields(ContainerConfig)
    if field.default is True)


def full_config(**overrides) -> ContainerConfig:
    """The paper's DetTrace: every mechanism on (optionally overridden)."""
    return ContainerConfig(**overrides)


def ablated(feature: str, **overrides) -> ContainerConfig:
    """A config with exactly one mechanism of :data:`MECHANISMS`
    disabled, for ablation benches."""
    if feature not in MECHANISMS:
        raise ValueError("unknown mechanism %r" % feature)
    cfg = ContainerConfig(**overrides)
    setattr(cfg, feature, False)
    return cfg
