"""Machine specifications and host environments.

A :class:`MachineSpec` captures everything about a physical machine that a
guest program could observe and that therefore threatens *portability*
(paper §3, §7.3): microarchitecture, core count, ISA feature flags, cache
sizes, kernel version, and filesystem implementation quirks such as how
directory sizes are reported.

A :class:`HostEnvironment` is one *boot* of one machine: it adds the
per-run facts that threaten *determinism* even on a single machine — the
wall-clock boot epoch, the entropy pool seed, the scheduler's timing
jitter, the inode allocator offset, the directory-hash salt, ASLR, and the
starting PID.  Running the same program twice in two different
``HostEnvironment``\\ s is the simulated equivalent of the paper's
reprotest methodology (§6.1).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Tuple

#: Feature strings reported through ``cpuid``.
FEATURE_TSX = "rtm"
FEATURE_RDRAND = "rdrand"
FEATURE_RDSEED = "rdseed"
FEATURE_AVX = "avx"
FEATURE_AVX2 = "avx2"


@dataclasses.dataclass(frozen=True)
class MachineSpec:
    """A physical machine model.

    Attributes mirror the hardware facts the paper identifies as
    observable by guest code (Figure 1 "nonportability" arrows).
    """

    name: str
    microarch: str
    cpu_vendor: str = "GenuineIntel"
    cpu_brand: str = "Intel(R) Xeon(R) CPU"
    cpu_family: int = 6
    cpu_model: int = 85
    freq_ghz: float = 2.2
    cores: int = 16
    l1d_cache_kb: int = 32
    l2_cache_kb: int = 1024
    l3_cache_kb: int = 14080
    features: Tuple[str, ...] = (FEATURE_AVX, FEATURE_AVX2)
    #: Whether ring-0 cpuid faulting is available (Ivy Bridge and newer;
    #: required for DetTrace's full portability guarantee, §5.8).
    cpuid_faulting: bool = True
    kernel_version: Tuple[int, int] = (4, 15)
    os_name: str = "Ubuntu 18.04"
    hostname: str = "host"
    total_ram_gb: int = 192
    fs_block_size: int = 4096
    #: Filesystems report directory sizes differently across machines
    #: (discovered by the paper's portability experiment, §7.3).  The
    #: reported size is ``dir_size_base + dir_size_per_entry * ceil(n/k)``
    #: style; we model it as a per-machine linear function with rounding.
    dir_size_base: int = 4096
    dir_size_round: int = 4096
    dir_entry_bytes: int = 24

    @property
    def has_tsx(self) -> bool:
        return FEATURE_TSX in self.features

    @property
    def has_rdrand(self) -> bool:
        return FEATURE_RDRAND in self.features

    def kernel_version_at_least(self, major: int, minor: int) -> bool:
        return self.kernel_version >= (major, minor)

    def directory_size(self, n_entries: int) -> int:
        """Size ``stat`` reports for a directory with *n_entries* entries."""
        raw = self.dir_size_base + self.dir_entry_bytes * n_entries
        round_to = max(1, self.dir_size_round)
        return ((raw + round_to - 1) // round_to) * round_to


# ---------------------------------------------------------------------------
# The machines used in the paper's evaluation (§6, §7.3).
# ---------------------------------------------------------------------------

#: CloudLab c220g5: two Xeon Silver 4114 (Skylake), Ubuntu 18.04 / 4.15.
SKYLAKE_CLOUDLAB = MachineSpec(
    name="cloudlab-c220g5",
    microarch="skylake",
    cpu_brand="Intel(R) Xeon(R) Silver 4114 CPU @ 2.20GHz",
    cpu_model=85,
    freq_ghz=2.2,
    cores=20,
    features=(FEATURE_AVX, FEATURE_AVX2, FEATURE_TSX, FEATURE_RDRAND, FEATURE_RDSEED),
    cpuid_faulting=True,
    kernel_version=(4, 15),
    os_name="Ubuntu 18.04",
    hostname="c220g5",
    total_ram_gb=192,
    dir_size_base=4096,
    dir_size_round=4096,
    dir_entry_bytes=24,
)

#: Xeon E5-2620 v4 (Broadwell), Ubuntu 18.10 / 4.18 — the second
#: portability machine from §7.3, with a different directory-size model.
BROADWELL_XEON = MachineSpec(
    name="broadwell-e5-2620v4",
    microarch="broadwell",
    cpu_brand="Intel(R) Xeon(R) CPU E5-2620 v4 @ 2.10GHz",
    cpu_model=79,
    freq_ghz=2.1,
    cores=16,
    features=(FEATURE_AVX, FEATURE_AVX2, FEATURE_TSX, FEATURE_RDRAND, FEATURE_RDSEED),
    cpuid_faulting=True,
    kernel_version=(4, 18),
    os_name="Ubuntu 18.10",
    hostname="broadwell",
    total_ram_gb=128,
    dir_size_base=0,
    dir_size_round=1024,
    dir_entry_bytes=32,
)

#: Xeon E5-2618Lv3 (Haswell), Ubuntu 18.10 / 4.18 — the bioinformatics/ML
#: machine from §6.
HASWELL_XEON = MachineSpec(
    name="haswell-e5-2618lv3",
    microarch="haswell",
    cpu_brand="Intel(R) Xeon(R) CPU E5-2618L v3 @ 2.30GHz",
    cpu_model=63,
    freq_ghz=2.3,
    cores=16,
    features=(FEATURE_AVX, FEATURE_AVX2, FEATURE_TSX, FEATURE_RDRAND),
    cpuid_faulting=True,
    kernel_version=(4, 18),
    os_name="Ubuntu 18.10",
    hostname="haswell",
    total_ram_gb=128,
)

#: Sandy Bridge: no cpuid faulting, no TSX/RDRAND — DetTrace still runs
#: deterministically here but with a weaker portability class (§5.8).
SANDY_BRIDGE = MachineSpec(
    name="sandybridge-e5-2650",
    microarch="sandybridge",
    cpu_brand="Intel(R) Xeon(R) CPU E5-2650 0 @ 2.00GHz",
    cpu_model=45,
    freq_ghz=2.0,
    cores=16,
    features=(FEATURE_AVX,),
    cpuid_faulting=False,
    kernel_version=(4, 4),
    os_name="Ubuntu 16.04",
    hostname="sandy",
    total_ram_gb=64,
)

#: An old kernel (< 4.8) machine: forces the slower two-stop ptrace path
#: described in §5.11.
OLD_KERNEL_SKYLAKE = dataclasses.replace(
    SKYLAKE_CLOUDLAB, name="skylake-old-kernel", kernel_version=(4, 4), os_name="Ubuntu 16.04"
)

ALL_MACHINES = {
    spec.name: spec
    for spec in (SKYLAKE_CLOUDLAB, BROADWELL_XEON, HASWELL_XEON, SANDY_BRIDGE, OLD_KERNEL_SKYLAKE)
}


@dataclasses.dataclass
class HostEnvironment:
    """One boot of one machine: the per-run nondeterministic facts.

    All simulated "true" nondeterminism flows from :attr:`entropy_seed`
    through the :meth:`rng` streams, so a run is replayable for debugging
    by fixing the seed, yet two runs with different seeds model two real
    executions.
    """

    machine: MachineSpec = SKYLAKE_CLOUDLAB
    #: Wall-clock epoch (seconds) at boot.  Varies per boot.
    boot_epoch: float = 1_546_300_800.0
    #: Seed for the host entropy pool and scheduler jitter.
    entropy_seed: int = 0
    #: First PID the kernel hands out (host PID namespace).
    pid_start: int = 1000
    #: First inode number the filesystem allocator hands out.
    inode_start: int = 100_000
    #: Salt for the on-disk directory hash ordering (getdents order).
    dirent_hash_salt: int = 0
    #: Bits of ASLR entropy for process address-space bases.
    aslr_entropy_bits: int = 28
    #: Whether ASLR is enabled at all (reprotest toggles it).
    aslr_enabled: bool = True
    #: Environment variables a login shell would inherit.
    env: Dict[str, str] = dataclasses.field(
        default_factory=lambda: {
            "PATH": "/usr/local/bin:/usr/bin:/bin",
            "HOME": "/root",
            "USER": "root",
            "SHELL": "/bin/sh",
            "LANG": "en_US.UTF-8",
            "TZ": "America/New_York",
        }
    )
    #: Timezone offset (seconds east of UTC) applied by guest localtime().
    tz_offset: int = -5 * 3600
    #: Host directory used as the build working directory (reprotest
    #: varies the build path; DetTrace pins CWD to /build inside the
    #: container).
    build_path: str = "/home/user/build"
    #: Optional cap on cores visible to the scheduler (reprotest's
    #: num_cpus variation).
    visible_cores: Optional[int] = None

    def __post_init__(self) -> None:
        self._entropy = random.Random("entropy:%d" % self.entropy_seed)
        self._sched = random.Random("sched:%d" % self.entropy_seed)
        #: Bumped by every mutating draw.  The only run-time mutable
        #: state here is the two RNG streams, and every draw goes
        #: through the methods below — so this counter is an exact,
        #: O(1) change detector for the whole object (delta snapshots
        #: use it in place of pickling the RNG states every barrier).
        #: It advances deterministically with the guest schedule, so it
        #: is fingerprint-stable across checkpoint cadences.
        self._state_version = 0

    # -- entropy streams ----------------------------------------------------

    def entropy_bytes(self, n: int) -> bytes:
        """Draw *n* bytes from the host entropy pool (/dev/urandom, rdrand)."""
        self._state_version += 1
        return bytes(self._entropy.getrandbits(8) for _ in range(n))

    def entropy_u64(self) -> int:
        self._state_version += 1
        return self._entropy.getrandbits(64)

    def sched_jitter(self, scale: float = 1.0) -> float:
        """A small nonnegative timing perturbation for the native scheduler."""
        self._state_version += 1
        return self._sched.random() * scale

    def sched_choice_index(self, n: int) -> int:
        """Break a scheduling tie among *n* equally-eligible threads."""
        if n > 1:
            self._state_version += 1
            return self._sched.randrange(n)
        return 0

    def aslr_base(self) -> int:
        """An address-space base for a new process."""
        if not self.aslr_enabled:
            return 0x5555_5555_0000
        page = 4096
        span = 1 << self.aslr_entropy_bits
        self._state_version += 1
        return 0x5500_0000_0000 + (self._entropy.randrange(span) * page)

    @property
    def ncores(self) -> int:
        if self.visible_cores is not None:
            return max(1, min(self.visible_cores, self.machine.cores))
        return self.machine.cores
