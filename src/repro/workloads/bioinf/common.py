"""Shared machinery for the bioinformatics workflows (paper §7.5).

All three tools follow the same process-parallel pattern the paper
describes: a driver splits the input across W worker *processes*
(static partitioning), workers write partial outputs, and the driver
merges them.  The tools differ in their compute-to-syscall ratios, which
is exactly what drives their very different DetTrace overheads.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional

from ...core.config import ContainerConfig
from ...core.container import ContainerResult, DetTrace, NativeRunner
from ...core.image import Image
from ...cpu.machine import HASWELL_XEON, HostEnvironment
from ...guest.program import with_args

INPUT_PATH = "input.fasta"
BASES = "ACGT"


def synth_sequences(n_seqs: int, length: int, tag: str) -> bytes:
    """Deterministic FASTA-ish input (part of the image: an *input*)."""
    lines: List[bytes] = []
    for i in range(n_seqs):
        digest = hashlib.sha256(("%s:%d" % (tag, i)).encode()).digest()
        seq = "".join(BASES[b & 3] for b in digest * (length // 32 + 1))[:length]
        lines.append(b">seq%d" % i)
        lines.append(seq.encode())
    return b"\n".join(lines) + b"\n"


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Sizing for one bioinformatics tool run."""

    tool: str
    n_units: int
    #: Compute work (reference seconds) for unit *i* is
    #: ``unit_work * (1 + imbalance * weight(i))``.
    unit_work: float
    imbalance: float = 0.0
    #: Serial driver work before/after the parallel phase (limits scaling).
    serial_pre: float = 0.0
    serial_post: float = 0.0
    #: Extra syscalls each unit performs (progress writes, timing polls).
    progress_writes: int = 0
    time_polls: int = 0
    #: Whether the tool salts its computation with wall time / randomness
    #: (the observed native irreproducibility for hmmer and raxml, §6.1).
    seeds_from_time: bool = False
    seeds_from_random: bool = False


def unit_weight(i: int) -> float:
    """A deterministic heavy-tailed weight in [0, 1]."""
    h = hashlib.sha256(b"unit%d" % i).digest()[0]
    return (h / 255.0) ** 3


def make_image(spec: WorkloadSpec, workers_main, worker_main,
               n_seqs: int = 64, seq_len: int = 256) -> Image:
    img = Image()
    img.add_binary("/usr/bin/" + spec.tool, with_args(workers_main, spec))
    img.add_binary("/usr/bin/%s-worker" % spec.tool, with_args(worker_main, spec))

    # Synthesized once per image, not at every install.  The setup
    # function binds the bytes, so the run cache's key covers them.
    data = synth_sequences(n_seqs, seq_len, spec.tool)

    def setup(kernel, build_dir):
        kernel.fs.write_file(build_dir + "/" + INPUT_PATH, data,
                             now=kernel.host.boot_epoch)

    img.on_setup(setup)
    return img


def run_native(image: Image, tool: str, nprocs: int,
               host: Optional[HostEnvironment] = None,
               timeout: float = 600.0) -> ContainerResult:
    host = host or HostEnvironment(machine=HASWELL_XEON)
    return NativeRunner(timeout=timeout).run(
        image, "/usr/bin/" + tool, argv=[tool, str(nprocs)], host=host)


def run_dettrace(image: Image, tool: str, nprocs: int,
                 host: Optional[HostEnvironment] = None,
                 config: Optional[ContainerConfig] = None,
                 timeout: float = 600.0) -> ContainerResult:
    host = host or HostEnvironment(machine=HASWELL_XEON)
    cfg = config or ContainerConfig()
    cfg = dataclasses.replace(cfg, timeout=timeout)
    return DetTrace(cfg).run(
        image, "/usr/bin/" + tool, argv=[tool, str(nprocs)], host=host)


# ---------------------------------------------------------------------------
# The generic driver/worker pair (closed over a WorkloadSpec).
# ---------------------------------------------------------------------------

def driver_main(sys, spec: WorkloadSpec):
    """Split units across W workers; merge partial outputs."""
    nprocs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    yield from sys.read_file(INPUT_PATH)
    if spec.serial_pre:
        yield from sys.compute(spec.serial_pre)
    pids = []
    for w in range(nprocs):
        pid = yield from sys.spawn(
            "/usr/bin/%s-worker" % spec.tool,
            argv=["%s-worker" % spec.tool, str(w), str(nprocs)])
        pids.append(pid)
    remaining = set(pids)
    while remaining:
        res = yield from sys.waitpid(-1)
        if res.pid in remaining:
            remaining.discard(res.pid)
            if res.exit_code != 0:
                yield from sys.eprintln("%s: worker failed" % spec.tool)
                return 1
    # Merge phase: serial.
    parts = []
    for w in range(nprocs):
        parts.append((yield from sys.read_file("part_%d.out" % w)))
    if spec.serial_post:
        yield from sys.compute(spec.serial_post)
    yield from sys.write_file("%s.out" % spec.tool, b"".join(parts))
    yield from sys.println("%s: done (%d workers)" % (spec.tool, nprocs))
    return 0


def worker_main(sys, spec: WorkloadSpec):
    """Process units [index::stride]; write one partial output file."""
    index = int(sys.argv[1])
    stride = int(sys.argv[2])
    seed_salt = b""
    if spec.seeds_from_time:
        t = yield from sys.gettimeofday()  # vDSO: invisible to naive tracers
        seed_salt += b"%f" % t
    if spec.seeds_from_random:
        seed_salt += (yield from sys.urandom(8))
    out: List[bytes] = []
    for i in range(index, spec.n_units, stride):
        work = spec.unit_work * (1.0 + spec.imbalance * unit_weight(i))
        yield from sys.compute(work)
        for _ in range(spec.time_polls):
            yield from sys.gettimeofday()
        score = int.from_bytes(
            hashlib.sha256(b"%s:%d:%s" % (spec.tool.encode(), i, seed_salt))
            .digest()[:4], "big")
        out.append(b"unit %d score %d\n" % (i, score))
        for _ in range(spec.progress_writes):
            yield from sys.write(1, b"%s: unit %d done\n" % (spec.tool.encode(), i))
    yield from sys.write_file("part_%d.out" % index, b"".join(out))
    return 0
