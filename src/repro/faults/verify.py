"""Quasi-determinism as an executable property (paper §2, §5.9).

The paper's guarantee is that a DetTrace run either produces a
bit-identical result or fails *reproducibly*.  With the fault plane this
becomes checkable for arbitrary environment misbehaviour.  Each run is
reduced to its :class:`~repro.diag.RunCapture` (every deterministic
field: status, exit code, error, streams, output tree, metrics, syscall
count, virtual wall time, attempts, transient faults, crash report and,
when observed, the trace) and two captures are compared with
:func:`~repro.diag.diff_captures`:

* **replay identity** — same image + same :class:`FaultPlan`, run on two
  different simulated machine boots, must capture identically
  *including the failure*, when the plan makes the run fail.  The boots
  are two hosts, so this compares across hosts (all but virtual wall
  time);

* **rerun identity** — the same boot twice, compared in full;

* **empty-plan invariance** — wiring in an empty plan must be
  observationally identical to not wiring the fault plane in at all
  (the plane itself perturbs nothing), compared in full.

This module is kept import-separate from :mod:`repro.faults` because it
depends on :mod:`repro.core` (which imports the faults package).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Tuple

from ..core.config import ContainerConfig
from ..core.container import DetTrace
from ..cpu.machine import SKYLAKE_CLOUDLAB, HostEnvironment, MachineSpec
from ..diag import (ACROSS_HOSTS, SAME_HOST, DivergenceReport, RunCapture,
                    diff_captures)
from .plan import FaultPlan

#: Two deliberately different simulated boots: different entropy, epoch,
#: pid/inode bases and dirent hash salts.
DEFAULT_BOOTS = (1, 2)


def boot_host(boot: int,
              machine: MachineSpec = SKYLAKE_CLOUDLAB) -> HostEnvironment:
    """A distinct simulated boot of *machine* per *boot* number (the
    CLI's ``--boot N``)."""
    return HostEnvironment(
        machine=machine,
        entropy_seed=boot,
        boot_epoch=1.6e9 + boot * 1009.0,
        pid_start=1000 + boot * 13,
        inode_start=100_000 + boot * 997,
        dirent_hash_salt=boot,
    )


@dataclasses.dataclass
class Check:
    name: str
    report: DivergenceReport

    @property
    def ok(self) -> bool:
        return not self.report.diverged


@dataclasses.dataclass
class VerifyReport:
    """Outcome of one quasi-determinism verification."""

    ok: bool
    checks: List[Check]

    def format(self) -> str:
        lines = ["quasi-determinism: %s" % ("PASS" if self.ok else "FAIL")]
        for check in self.checks:
            lines.append("  [%s] %s" % ("ok" if check.ok else "FAIL",
                                        check.name))
            if not check.ok:
                lines.append("    " + check.report.format().replace(
                    "\n", "\n    "))
        return "\n".join(lines)


def verify_quasi_determinism(
        image_factory: Callable[[], Any],
        command: str,
        plan: Optional[FaultPlan] = None,
        argv: Optional[List[str]] = None,
        config_factory: Optional[Callable[[], ContainerConfig]] = None,
        boots: Tuple[int, int] = DEFAULT_BOOTS,
        supervised: bool = False) -> VerifyReport:
    """Prove the quasi-determinism property for one (image, plan) pair.

    *image_factory*/*config_factory* are factories so every run gets a
    fresh, unshared instance.  With *supervised*, runs go through
    :meth:`DetTrace.run_supervised` (the retry loop must be just as
    reproducible as a single run).
    """
    plan = plan if plan is not None else FaultPlan()

    def capture(fault_plan: Optional[FaultPlan], boot: int,
                label: str) -> RunCapture:
        config = config_factory() if config_factory is not None else ContainerConfig()
        config = dataclasses.replace(config, fault_plan=fault_plan)
        container = DetTrace(config)
        runner = container.run_supervised if supervised else container.run
        return RunCapture.from_result(
            runner(image_factory(), command, argv=argv, host=boot_host(boot)),
            label)

    base = capture(plan, boots[0], "boot %d" % boots[0])
    empty = capture(FaultPlan(), boots[0], "empty plan")
    checks = [
        # Same plan, two different boots, same bytes.
        Check("replay-identity (plan, boots %s vs %s)" % boots,
              diff_captures(base, capture(plan, boots[1],
                                          "boot %d" % boots[1]),
                            scope=ACROSS_HOSTS)),
        # Literally the same inputs twice: guards against hidden global
        # state inside the plane itself.
        Check("rerun-identity (plan, boot %s twice)" % boots[0],
              diff_captures(base, capture(plan, boots[0], "rerun"),
                            scope=SAME_HOST)),
        # Wiring an empty plane changes nothing relative to no plane.
        Check("empty-plan invariance (wired vs unwired)",
              diff_captures(empty, capture(None, boots[0], "no plan"),
                            scope=SAME_HOST)),
    ]
    return VerifyReport(ok=all(c.ok for c in checks), checks=checks)
