"""Execute one program across the configuration matrix and compare.

The determinism claim under test: a container's guest-visible outcome is
a pure function of (image, config-surface, nothing else).  The repo's
internal knobs — which scheduler implementation runs, whether the namei/
dirent caches are on, whether the observability plane records — and the
host the container happens to boot on must all be invisible.  Every run
is reduced to its :class:`~repro.diag.RunCapture` and every comparison
is one :func:`~repro.diag.diff_captures`, whose first divergence becomes
the failure line:

* **cell axis** — every cell of :data:`MATRIX` runs the program on the
  *same* host with different internal knobs; each cell must capture
  like the base cell in full (``SAME_HOST``: streams, tree, failure
  fields, metrics, syscall count, virtual wall time), and the observed
  cells' traces must match each other;
* **host axis** — the base cell re-runs on two more hosts (different
  entropy, boot epoch, pid/inode bases, getdents salt); everything but
  virtual wall time must match (``ACROSS_HOSTS``).

Four further axes ride on top:

* **serial vs parallel** — the exact cell list re-runs through
  ``repro.parallel.run_jobs`` on a worker pool; the captures must equal
  the serial ones (this is what caught the unpicklable-error bug);
* **record/replay** — thread-free programs are recorded natively via
  ``repro.rnr`` and replayed on a different boot; a
  ``ReplayDivergence`` is a failure;
* **crash/resume** — the program re-runs under checkpointing with a
  kill injected mid-run (the newest surviving snapshot is usually a
  dirty-tracked delta), resumes from the journal, and must capture
  like the straight base run in full, its ``resumed`` status counting
  as ``ok`` — the resume-identity contract, fuzzed;
* **guest oracle** — any ``VIOLATION`` line the in-guest POSIX auditor
  printed fails the program outright, even if every cell agrees.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import ContainerConfig
from ..core.container import CRASHED, RESUMED, DetTrace, OK
from ..cpu.machine import HostEnvironment
from ..diag import (ACROSS_HOSTS, SAME_HOST, DivergenceReport, RunCapture,
                    diff_captures)
from ..parallel import Job, run_jobs
from .grammar import ProgramSpec
from .guest import build_image


@dataclasses.dataclass(frozen=True)
class Cell:
    """One point of the configuration matrix."""

    name: str
    scheduler: str = "logical"
    fs_caches: bool = True
    observe: bool = False
    #: Part of the *config surface* (a different seed is a different
    #: container, legitimately divergent).  MATRIX keeps it fixed; tests
    #: vary it as a known-divergent negative control for the harness.
    prng_seed: int = 0

    def config(self) -> ContainerConfig:
        # deterministic_loopback is on in every cell: the sock ops bind
        # loopback AF_INET endpoints, which the policy layer otherwise
        # rejects (§5.9).  Constant across the matrix, so it is part of
        # the shared config surface, not a compared knob.
        return ContainerConfig(scheduler=self.scheduler,
                               fs_caches=self.fs_caches,
                               observe=self.observe,
                               prng_seed=self.prng_seed,
                               deterministic_loopback=True)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Cell":
        return cls(**data)


#: The matrix.  Every determinism-relevant internal knob appears both on
#: and off, and the reference scheduler shadows the O(log n) one.
MATRIX: Tuple[Cell, ...] = (
    Cell("base"),
    Cell("sched-ref", scheduler="logical-ref"),
    Cell("nocache", fs_caches=False),
    Cell("observe", observe=True),
    Cell("ref-nocache-obs", scheduler="logical-ref", fs_caches=False,
         observe=True),
)

def _host_for(spec_seed: int, index: int) -> HostEnvironment:
    """Deterministic host #index for one program: entropy, boot epoch,
    pid/ino bases and getdents salt all vary with *index*."""
    return HostEnvironment(
        entropy_seed=(spec_seed * 31 + index * 7 + 1) & 0xFFFFFFFF,
        boot_epoch=1.5e9 + 1e7 * index + (spec_seed % 997),
        pid_start=1000 + 500 * index,
        inode_start=100_000 + 10_000 * index,
        dirent_hash_salt=index * 0x9E37 + spec_seed % 251,
    )


def run_cell(spec_dict: Dict[str, Any], cell_dict: Dict[str, Any],
             host_index: int = 0) -> RunCapture:
    """Run one program in one cell; return its capture.

    Module-level and dict-in on purpose: the parallel axis ships exactly
    this function to forked workers, and the capture it returns is
    plain data.
    """
    spec = ProgramSpec.from_dict(spec_dict)
    cell = Cell.from_dict(cell_dict)
    host = _host_for(spec.seed, host_index)
    result = DetTrace(cell.config()).run(build_image(spec), "/bin/fuzz",
                                         host=host)
    label = cell.name if host_index == 0 else (
        "%s@host%d" % (cell.name, host_index))
    return RunCapture.from_result(result, label)


def violations(capture: RunCapture) -> List[str]:
    """The ``VIOLATION`` lines the in-guest auditor printed."""
    return [line for line in capture.stdout.splitlines()
            if "VIOLATION" in line]


def _failure(report: DivergenceReport) -> str:
    """One failure line: the pair and its first divergence."""
    return "%s!=%s [%s] %s" % (report.labels[0], report.labels[1],
                               report.classification, report.summary)


@dataclasses.dataclass
class MatrixReport:
    """Everything :func:`check_program` learned about one program."""

    spec: ProgramSpec
    captures: List[RunCapture]
    failures: List[str]
    #: First-divergence diagnosis of the first mismatching pair,
    #: re-run observed, when ``check_program(..., diagnose=True)`` found
    #: one.
    divergence: Optional[DivergenceReport] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return "seed=%d ops=%d ok" % (self.spec.seed, len(self.spec.ops))
        text = "seed=%d ops=%d FAIL: %s" % (
            self.spec.seed, len(self.spec.ops), "; ".join(self.failures))
        if self.divergence is not None and self.divergence.diverged:
            text += " [first divergence: %s]" % self.divergence.summary
        return text


def diagnose_pair(spec: ProgramSpec, cell_a: Cell, cell_b: Cell,
                  host_a: int = 0, host_b: int = 0):
    """Re-run one mismatching pair with event capture forced on and
    return the first-divergence :class:`repro.diag.DivergenceReport`.

    Observation is obs-invariant (the observe matrix cells prove it
    every fuzz run), so forcing ``observe=True`` here reproduces the
    divergence while adding the trace coordinates needed to localize
    it.
    """
    captures = [
        run_cell(spec.to_dict(), dataclasses.replace(cell, observe=True)
                 .to_dict(), host_index=host_index)
        for cell, host_index in ((cell_a, host_a), (cell_b, host_b))]
    scope = SAME_HOST if host_a == host_b else ACROSS_HOSTS
    return diff_captures(captures[0], captures[1], scope=scope)


def _check_ckpt_resume(spec: ProgramSpec, cell: Cell,
                       base: RunCapture) -> List[str]:
    """Axis 4: crash on a mid-run delta checkpoint, resume, compare.

    The straight base capture doubles as the uninterrupted reference —
    the resume-identity contract says kill + resume must be
    indistinguishable from a run that was never interrupted (or even
    checkpointed).  The kill lands at half the program's event count
    with a barrier cadence that guarantees at least one snapshot first;
    ``full_every=3`` keeps dirty-tracked deltas (and therefore the
    chain-materialization path) on the fuzzed surface.
    """
    import shutil
    import tempfile

    from ..core.config import CheckpointConfig
    from ..faults.plan import FaultPlan, FaultRule

    events = int(base.metrics.get("totals", {}).get("events_processed", 0))
    if events < 8:
        return []  # too short to interrupt mid-run
    tick = events // 2
    directory = tempfile.mkdtemp(prefix="repro-fuzz-ckpt-")
    try:
        cfg = cell.config()
        cfg.checkpoint = CheckpointConfig(directory=directory,
                                          every=max(1, tick // 3), keep=0,
                                          full_every=3)
        cfg.fault_plan = FaultPlan(rules=(
            FaultRule(fault="kill", at_tick=tick, transient=True),))
        container = DetTrace(cfg)
        crashed = container.run(build_image(spec), "/bin/fuzz",
                                host=_host_for(spec.seed, 0))
        if crashed.status != CRASHED:
            return ["ckpt: kill at tick %d/%d did not crash (status=%s)"
                    % (tick, events, crashed.status)]
        try:
            resumed = container.resume(build_image(spec), "/bin/fuzz")
        except Exception as err:
            return ["ckpt: resume raised: %s: %s"
                    % (type(err).__name__, err)]
        if resumed.status != RESUMED:
            return ["ckpt: resumed run failed: status=%s exit=%r stderr=%r"
                    % (resumed.status, resumed.exit_code,
                       resumed.stderr[-200:])]
        # Checked above: the resume finished, so it counts as ``ok``.
        capture = dataclasses.replace(
            RunCapture.from_result(resumed, "ckpt-resume"), status=OK)
        report = diff_captures(base, capture, scope=SAME_HOST)
        return ["ckpt: " + _failure(report)] if report.diverged else []
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def check_program(spec: ProgramSpec, workers: int = 2,
                  rnr: bool = True, ckpt: bool = True,
                  matrix: Optional[Tuple[Cell, ...]] = None,
                  diagnose: bool = False) -> MatrixReport:
    """Run *spec* across every axis; return the full report.

    *matrix* defaults to :data:`MATRIX`; tests substitute a matrix with
    a known-divergent cell to prove the harness detects differences.
    With *diagnose*, the first mismatching pair is re-run under the
    divergence differ and the report lands on ``MatrixReport.divergence``
    (two extra runs, so the shrinker keeps it off its predicate).
    """
    matrix = MATRIX if matrix is None else matrix
    failures: List[str] = []
    spec_dict = spec.to_dict()
    #: (cell_a, cell_b, host_a, host_b) of the first comparison mismatch.
    first_pair: Optional[Tuple[Cell, Cell, int, int]] = None

    # Axis 1: the cell matrix, serially.  Every cell against the base
    # cell, then the observed cells against each other, which adds
    # their traces.
    captures = [run_cell(spec_dict, cell.to_dict()) for cell in matrix]
    base = captures[0]
    if base.status != OK or base.exit_code != 0:
        failures.append("base run failed: status=%s exit=%r stderr=%r"
                        % (base.status, base.exit_code, base.stderr[-200:]))
    for capture in captures:
        lines = violations(capture)
        if lines:
            failures.append("%s: %s" % (capture.label, lines[0]))
            break  # one oracle line is enough; cells agree or also fail below
    observed = [k for k, capture in enumerate(captures) if capture.records]
    pairs = [(0, k) for k in range(1, len(matrix))]
    pairs += [(observed[0], k) for k in observed[1:]]
    for i, k in pairs:
        report = diff_captures(captures[i], captures[k], scope=SAME_HOST)
        if report.diverged:
            failures.append(_failure(report))
            if first_pair is None:
                first_pair = (matrix[i], matrix[k], 0, 0)

    # Axis 1b: same knobs, different hosts — all but virtual wall time.
    for host_index in (1, 2):
        report = diff_captures(
            base, run_cell(spec_dict, matrix[0].to_dict(),
                           host_index=host_index), scope=ACROSS_HOSTS)
        if report.diverged:
            failures.append(_failure(report))
            if first_pair is None:
                first_pair = (matrix[0], matrix[0], 0, host_index)

    # Axis 2: the same cells through the parallel fan-out.  Exact capture
    # equality — fan-out must be a pure reordering of serial execution.
    if workers > 1:
        jobs = [Job(key=i, fn=run_cell, args=(spec_dict, cell.to_dict()))
                for i, cell in enumerate(matrix)]
        try:
            pooled = [capture for _k, capture in run_jobs(jobs, workers=workers)]
        except Exception as err:
            failures.append("parallel axis raised: %s: %s"
                            % (type(err).__name__, err))
        else:
            for serial, parallel in zip(captures, pooled):
                if serial != parallel:
                    failures.append("serial!=parallel on cell %r: %s" % (
                        serial.label,
                        diff_captures(serial, parallel).summary))

    # Axis 3: record natively, replay on a different boot.
    if rnr and not spec.uses_threads() and spec.rnr_compatible():
        failures.extend(_check_rnr(spec))

    # Axis 4: kill mid-run on a delta checkpoint, resume, compare
    # against the straight base capture.  Only meaningful when the base
    # run itself succeeded (a failing base already reported above).
    if ckpt and base.status == OK:
        failures.extend(_check_ckpt_resume(spec, matrix[0], base))

    divergence = None
    if diagnose and failures and first_pair is not None:
        cell_a, cell_b, host_a, host_b = first_pair
        divergence = diagnose_pair(spec, cell_a, cell_b,
                                   host_a=host_a, host_b=host_b)
    return MatrixReport(spec=spec, captures=captures, failures=failures,
                        divergence=divergence)


def _check_rnr(spec: ProgramSpec) -> List[str]:
    from .. import rnr as rnr_mod

    image = build_image(spec)
    host_a = HostEnvironment(entropy_seed=spec.seed * 13 + 5,
                             boot_epoch=1.61e9)
    host_b = HostEnvironment(entropy_seed=spec.seed * 17 + 11,
                             boot_epoch=1.93e9, pid_start=4000,
                             inode_start=777_000, dirent_hash_salt=99)
    rec, recording = rnr_mod.record(image, "/bin/fuzz", host=host_a)
    if rec.status != OK:
        return ["rnr record failed: %s %s" % (rec.status, rec.error)]
    rep = rnr_mod.replay(build_image(spec), "/bin/fuzz", recording,
                         host=host_b)
    if rep.status != OK:
        return ["rnr replay diverged: %s %s" % (rep.status, rep.error)]
    return []
