"""The five benchmark workloads, each a seeded list of container runs.

A workload is built from ``(seed, workdir)``: the constructor generates
every input from the seed, so the same seed always yields the same ops.
``op(i)`` runs op ``i`` (modulo the list length) through the real
pipeline, ``DetTrace.run`` / ``DetTrace.resume``, and returns an
:class:`Op` saying whether the output was correct.  ``reset()`` drops
state that ops build up (the run cache, pending double builds) so a
second pass over the same ops sees the same state as the first.

Why each workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import os
import random
import shutil
from typing import Any, Dict, List, Optional

from repro.core import (CacheConfig, CheckpointConfig, ContainerConfig,
                        DetTrace, Image)
from repro.cpu.machine import HASWELL_XEON, HostEnvironment
from repro.faults.plan import FaultPlan, FaultRule
from repro.repro_tools.hashing import tree_digest
from repro.repro_tools.variations import host_pair
from repro.workloads.bioinf import RAXML, tool_image
from repro.workloads.debian import BUILT, build_dettrace, generate_population
from repro.workloads.ml import ALEXNET, losses_of, tf_image


@dataclasses.dataclass
class Op:
    """What one op produced."""

    #: The op's output passed its workload's correctness check.
    ok: bool
    #: Digest of everything the check compared; a traced replay of the
    #: op must reproduce it exactly.
    digest: str
    #: Every container result the op produced, in order.
    results: List[Any]
    #: Workload-specific counters (checkpoint snapshots and bytes).
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)


def outcome_digest(result) -> str:
    """Digest of the surfaces a reproducible run must repeat bytewise:
    exit code, both streams and the output tree."""
    h = hashlib.sha256()
    h.update(repr((result.exit_code, result.stdout, result.stderr)).encode())
    h.update(tree_digest(result.output_tree).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# package builds
# ---------------------------------------------------------------------------

#: Package shapes, stratified.  Build time follows the number of sources
#: and the include probes per source far more than any other field
#: (correlation 0.68 and a 2x spread across the probe values), so every
#: seed draws the same mix of shapes and only the rest of the package
#: (language, parallelism, tests, irreproducibility vectors, hosts)
#: follows the seed.
SOURCES = (2, 4, 6, 8, 10)
PROBES = (8, 16, 28, 44, 60)
#: Population drawn per seed to fill the 25 shape cells.
POPULATION = 3000


def stratified_packages(seed: int, count: int) -> List[Any]:
    """*count* buildable packages from ``generate_population(seed)``.

    Consecutive packages walk a Latin square over (sources, probes), so
    any five in a row cover every size and any 25 every shape: a run
    that stops part-way through the list still sees the same mix.
    """
    cells: Dict[tuple, collections.deque] = collections.defaultdict(
        collections.deque)
    for spec in generate_population(POPULATION, seed=seed):
        if not spec.expect_dt_unsupported and not spec.syscall_storm:
            cells[(spec.n_sources, spec.include_probes)].append(spec)
    out = []
    for j in range(count):
        cell = (SOURCES[j % 5], PROBES[(j + j // 5) % 5])
        if not cells[cell]:
            raise ValueError("seed %d has too few %r packages" % (seed, cell))
        out.append(cells[cell].popleft())
    return out


class PkgSweep:
    """Each package built twice, reprotest-style, under varied hosts."""

    name = "pkg-sweep"
    PACKAGES = 250

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.specs = stratified_packages(seed, self.PACKAGES)
        self._first: Dict[int, str] = {}

    def __len__(self) -> int:
        return 2 * len(self.specs)

    def reset(self) -> None:
        self._first.clear()

    def op(self, i: int) -> Op:
        k, second = divmod(i % len(self), 2)
        host = host_pair(seed=self.seed + k)[second]
        record = build_dettrace(self.specs[k], host=host)
        digest = outcome_digest(record.result)
        ok = record.status == BUILT
        if second:
            # Both builds of the pair must agree bytewise.
            ok = ok and self._first.pop(k, None) == digest
        else:
            self._first[k] = digest
        return Op(ok, digest, [record.result])


# ---------------------------------------------------------------------------
# the paper's two parallel analogs
# ---------------------------------------------------------------------------

class _SameOutput:
    """Ops that run one image on varied hosts; every output must equal
    the first one's (set by the untimed warm-up op)."""

    OPS = 0
    command = ""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.entropy = [rng.randrange(1 << 31) for _ in range(self.OPS)]
        self.reference: Optional[str] = None

    def __len__(self) -> int:
        return len(self.entropy)

    def reset(self) -> None:
        pass  # the reference is an expectation, not state

    def _check(self, result) -> str:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        host = HostEnvironment(machine=HASWELL_XEON,
                               entropy_seed=self.entropy[i % len(self)])
        result = DetTrace().run(self.image, self.command, argv=self.argv,
                                host=host)
        digest = self._check(result)
        if self.reference is None:
            self.reference = digest
        ok = result.succeeded and digest == self.reference
        return Op(ok, digest, [result])


class BioinfRaxml(_SameOutput):
    name = "bioinf-raxml"
    OPS = 300
    UNITS = 240
    command = "/usr/bin/raxml"
    argv = ["raxml", "16"]  # worker processes

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.image = tool_image(dataclasses.replace(RAXML, n_units=self.UNITS))

    def _check(self, result) -> str:
        return outcome_digest(result)


class MlAlexnet(_SameOutput):
    name = "ml-alexnet"
    OPS = 320
    STEPS = 3
    command = "/usr/bin/tensorflow"
    argv = None

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.image = tf_image(dataclasses.replace(ALEXNET, steps=self.STEPS))

    def _check(self, result) -> str:
        losses = losses_of(result)
        return hashlib.sha256("\n".join(losses).encode()).hexdigest()


# ---------------------------------------------------------------------------
# checkpoint, kill, resume
# ---------------------------------------------------------------------------

def _ckpt_child(sys_):
    yield from sys_.write_file("child.txt", b"from child\n")
    return 0


def _ckpt_main(sys_):
    yield from sys_.mkdir_p("out")
    for i in range(120):
        yield from sys_.write_file("out/f%d.txt" % i, b"x" * (10 + i))
    for i in range(0, 120, 7):
        data = yield from sys_.read_file("out/f%d.txt" % i)
        yield from sys_.write_file("out/c%d.bin" % i, data)
    names = yield from sys_.listdir("out")
    yield from sys_.println("%d entries" % len(names))
    res = yield from sys_.run("/bin/child")
    yield from sys_.println("child exit %d" % res.status)
    return 0


def ckpt_image() -> Image:
    """The file-churning program of ``benchmarks/bench_ckpt.py``, kept
    here so edits to that benchmark cannot move this one."""
    image = Image()
    image.add_binary("/bin/main", _ckpt_main)
    image.add_binary("/bin/child", _ckpt_child)
    return image


class CkptResume:
    """Each op is killed at a seeded event tick, then resumed."""

    name = "ckpt-resume"
    OPS = 300
    EVERY = 10
    FULL_EVERY = 16
    TICKS = (50, 450)

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        # Kill ticks: a golden-ratio walk from a seeded start, so every
        # stretch of ops covers the tick range evenly.
        lo, hi = self.TICKS
        start = random.Random(seed).random()
        self.ticks = [lo + int(((start + i * 0.6180339887) % 1.0) * (hi - lo))
                      for i in range(self.OPS)]
        self.entropy = [seed * self.OPS + i for i in range(self.OPS)]
        self.image = ckpt_image()
        self.reference = outcome_digest(DetTrace().run(
            self.image, "/bin/main", host=HostEnvironment(entropy_seed=seed)))

    def __len__(self) -> int:
        return len(self.ticks)

    def reset(self) -> None:
        pass  # every op journals into a fresh directory

    def op(self, i: int) -> Op:
        i %= len(self)
        journal = os.path.join(self.workdir, "journal")
        cfg = ContainerConfig(
            fault_plan=FaultPlan(rules=(FaultRule(
                fault="kill", at_tick=self.ticks[i], transient=True),)),
            checkpoint=CheckpointConfig(directory=journal, every=self.EVERY,
                                        full_every=self.FULL_EVERY))
        try:
            first = DetTrace(cfg)
            crashed = first.run(self.image, "/bin/main",
                                host=HostEnvironment(entropy_seed=self.entropy[i]))
            second = DetTrace(cfg)
            resumed = second.resume(self.image, "/bin/main")
        finally:
            shutil.rmtree(journal, ignore_errors=True)
        digest = outcome_digest(resumed)
        ok = (crashed.status == "crashed" and resumed.status == "resumed"
              and digest == self.reference)
        counts = collections.Counter()
        for mgr in (first.active_ckpt, second.active_ckpt):
            counts["ckpt.snapshots"] += mgr.snapshots_taken
            counts["ckpt.delta_snapshots"] += mgr.snapshots_delta
            counts["ckpt.journal_bytes"] += mgr.snapshot_bytes
        return Op(ok, digest, [crashed, resumed], dict(counts))


# ---------------------------------------------------------------------------
# the run cache
# ---------------------------------------------------------------------------

class CacheMixed:
    """Package builds through a cold run cache: one request in five is a
    package not seen before (a miss that executes and stores), the rest
    repeat earlier packages, skewed towards the oldest."""

    name = "cache-mixed"
    REQUESTS = 2000
    MISS_EVERY = 5

    def __init__(self, seed: int, workdir: str):
        self.specs = stratified_packages(seed + 1, self.REQUESTS // self.MISS_EVERY)
        rng = random.Random(seed)
        self.requests = []
        for i in range(self.REQUESTS):
            seen = i // self.MISS_EVERY + 1
            if i % self.MISS_EVERY == 0:
                self.requests.append((seen - 1, True))
            else:
                self.requests.append((int(seen * rng.random() ** 2), False))
        self.seed = seed
        self.cache_dir = os.path.join(workdir, "cache")
        self._outcomes: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.requests)

    def reset(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self._outcomes.clear()

    def op(self, i: int) -> Op:
        if i and i % len(self) == 0:
            self.reset()  # a new pass over the list starts cold again
        k, miss = self.requests[i % len(self)]
        cfg = ContainerConfig(cache=CacheConfig(directory=self.cache_dir))
        record = build_dettrace(self.specs[k], config=cfg,
                                host=host_pair(seed=self.seed + i)[0])
        result = record.result
        digest = outcome_digest(result)
        expected = ("store", True) if miss else ("hit", False)
        ok = (record.status == BUILT and result.cache is not None
              and (result.cache["outcome"], result.cache["executed"]) == expected)
        if miss:
            self._outcomes[k] = digest
        else:
            # A hit must reproduce exactly what executing the key gave.
            ok = ok and self._outcomes.get(k) == digest
        return Op(ok, digest, [result])


WORKLOADS = {cls.name: cls for cls in
             (PkgSweep, BioinfRaxml, MlAlexnet, CkptResume, CacheMixed)}
