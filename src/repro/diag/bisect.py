"""Checkpoint bisection: localize a divergence to a barrier window.

Trace alignment (:mod:`repro.diag.align`) finds the first *observable*
divergence; bisection finds where the underlying *state* first departs,
which can be earlier (latent corruption) or pin an observable symptom
to the exact checkpoint interval it was born in.

The mechanism leans entirely on existing machinery:

* runs are re-executed with ``CheckpointConfig(every=N, keep=0)`` —
  ``keep=0`` disables journal pruning, so every barrier snapshot
  survives (the checkpoint plane was built for crash recovery; here it
  doubles as a state probe);
* each snapshot's guest-visible state is reduced to a deterministic
  sha256 via :meth:`repro.ckpt.snapshot.Snapshot.fingerprint`
  (GUEST_SCOPE by default: tracer PRNG, host facts and observability
  state excluded, so two runs seeded differently fingerprint *equal*
  until the first tick at which a guest-visible difference exists);
* a coarse pass compares fingerprints at every ``coarse``-tick barrier
  to find the bracketing window, then binary probes re-run each side
  with ``every=mid`` to tighten it — each probe needs one fresh run per
  side, stopped by the event budget right after its barrier at ``mid``,
  so the window narrows to a single tick in O(log) runs;
* every re-execution runs on a fresh copy of its side's host, whose
  RNG streams restart from the boot's seed, so each one replays the
  same boot instead of continuing the streams an earlier run drew.

Timeline discipline: barriers are identified by **tick** (the kernel's
``events_processed`` count — exactly comparable across runs) and
annotated with the snapshot header's **vclock** (simulated wall clock —
comparable between two runs on the same host, but *not* on the trace's
det_clock axis).  Bisection results therefore never mix with trace
``ts`` values; the two coordinate systems meet only in the final
report, each labelled as itself.

Determinism of the *observed* runs is never at stake: checkpointing and
observation are obs-invariant by construction (asserted by the ckpt and
obs suites), so probe runs behave identically to the originals.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ckpt import GUEST_SCOPE, RecoveryManager
from ..core.config import CheckpointConfig, ContainerConfig
from ..core.container import DetTrace
from ..cpu.machine import HostEnvironment
from .align import CONTEXT_WINDOW, RunCapture, diff_captures
from .report import DivergenceReport

#: Coarse-pass barrier interval (ticks) when the caller has no opinion.
DEFAULT_COARSE = 16
#: Cap on binary probes (each probe = two fresh runs).
DEFAULT_MAX_PROBES = 10


@dataclasses.dataclass
class RunSpec:
    """Everything needed to (re-)execute one side of a comparison.

    The image is a *factory* so each re-execution gets a fresh guest
    program; configs are injected per-run with :func:`dataclasses.replace`
    so the caller's config object is never mutated.
    """

    image_factory: Callable[[], Any]
    command: str
    argv: Optional[List[str]] = None
    config: ContainerConfig = dataclasses.field(
        default_factory=ContainerConfig)
    host: Optional[HostEnvironment] = None
    label: str = "run"

    def run(self, observe: Optional[bool] = None,
            checkpoint: Optional[CheckpointConfig] = None,
            max_events: Optional[int] = None):
        overrides: Dict[str, Any] = {}
        if observe is not None:
            overrides["observe"] = observe
        if checkpoint is not None:
            overrides["checkpoint"] = checkpoint
        if max_events is not None:
            overrides["max_events"] = min(self.config.max_events, max_events)
        cfg = (dataclasses.replace(self.config, **overrides)
               if overrides else self.config)
        # A fresh copy reseeds the host's RNG streams (__post_init__):
        # every re-execution replays the same boot.
        host = (dataclasses.replace(self.host)
                if self.host is not None else None)
        return DetTrace(cfg).run(self.image_factory(), self.command,
                                 argv=self.argv, host=host)

    def capture(self) -> RunCapture:
        """One observed run, reduced to its comparable surface."""
        return RunCapture.from_result(self.run(observe=True), self.label)


@dataclasses.dataclass
class BisectResult:
    """The outcome of one bisection."""

    #: Did any compared surface or state fingerprint differ?
    diverged: bool
    #: Last tick at which state fingerprints were equal.
    lo: int
    #: First tick at which they differed (None = never at a barrier;
    #: any divergence lies after the last common barrier).
    hi: Optional[int]
    lo_vclock: float
    hi_vclock: Optional[float]
    #: Binary probes performed (re-runs beyond the coarse pass).
    probes: int
    #: Fingerprint scope used (guest/full).
    scope: str
    #: The event-level report from the final observed replay, with this
    #: bisection attached as ``report.bisect``.
    report: DivergenceReport

    def window(self) -> Tuple[int, Optional[int]]:
        return (self.lo, self.hi)

    def summary(self) -> str:
        if not self.diverged:
            return ("no divergence: state fingerprints equal at every "
                    "common barrier through tick %d" % self.lo)
        if self.hi is None:
            return ("divergence after the last common barrier (tick %d); "
                    "no snapshot window brackets it" % self.lo)
        return ("state first diverges in tick window (%d, %d] "
                "(%d probe(s), scope=%s)"
                % (self.lo, self.hi, self.probes, self.scope))

    def to_dict(self) -> Dict[str, Any]:
        return {"lo": self.lo, "hi": self.hi,
                "lo_vclock": self.lo_vclock, "hi_vclock": self.hi_vclock,
                "probes": self.probes, "scope": self.scope,
                "diverged": self.diverged}


@contextlib.contextmanager
def _workdir(path: Optional[str]):
    if path:
        os.makedirs(path, exist_ok=True)
        yield path
    else:
        with tempfile.TemporaryDirectory(prefix="repro-diag-") as tmp:
            yield tmp


def _barrier_fingerprints(spec: RunSpec, directory: str, every: int,
                          scope: str, max_events: Optional[int] = None,
                          ) -> Dict[int, Tuple[str, float]]:
    """Re-run *spec* snapshotting every *every* ticks, for at most
    *max_events* events; return {barrier tick: (state fingerprint,
    vclock)}."""
    spec.run(checkpoint=CheckpointConfig(directory=directory,
                                         every=every, keep=0),
             max_events=max_events)
    # fingerprint=None: the two sides may have different config
    # fingerprints (that difference is often the point), and the
    # journal's own checksum already guards integrity.  The incremental
    # Merkle cursor hashes each delta barrier in O(changed) instead of
    # rebuilding the whole canonical state per snapshot.
    return RecoveryManager(directory).chain_fingerprints(scope=scope)


def bisect_divergence(side_a: RunSpec, side_b: RunSpec,
                      coarse: int = DEFAULT_COARSE,
                      max_probes: int = DEFAULT_MAX_PROBES,
                      scope: str = GUEST_SCOPE,
                      context: int = CONTEXT_WINDOW,
                      workdir: Optional[str] = None) -> BisectResult:
    """Isolate the first tick window where the two sides' state
    fingerprints differ, then replay observed for an event-level
    report."""
    coarse = max(1, int(coarse))
    probes = 0
    with _workdir(workdir) as base:
        fps_a = _barrier_fingerprints(
            side_a, os.path.join(base, "coarse-a"), coarse, scope)
        fps_b = _barrier_fingerprints(
            side_b, os.path.join(base, "coarse-b"), coarse, scope)
        lo, lo_vclock = 0, 0.0
        hi: Optional[int] = None
        hi_vclock: Optional[float] = None
        for barrier in sorted(set(fps_a) & set(fps_b)):
            if fps_a[barrier][0] == fps_b[barrier][0]:
                lo, lo_vclock = barrier, fps_a[barrier][1]
            else:
                hi, hi_vclock = barrier, fps_a[barrier][1]
                break
        while hi is not None and hi - lo > 1 and probes < max_probes:
            mid = (lo + hi) // 2
            if mid <= 0:
                break
            probes += 1
            # The event budget ends each probe run right after its
            # barrier at mid, the only one it reads.
            probe_a = _barrier_fingerprints(
                side_a, os.path.join(base, "probe-a-%d" % mid), mid,
                scope, max_events=mid).get(mid)
            probe_b = _barrier_fingerprints(
                side_b, os.path.join(base, "probe-b-%d" % mid), mid,
                scope, max_events=mid).get(mid)
            if probe_a is None or probe_b is None:
                # One side ended before the probe barrier; the coarse
                # window stands.
                break
            if probe_a[0] == probe_b[0]:
                lo, lo_vclock = mid, probe_a[1]
            else:
                hi, hi_vclock = mid, probe_a[1]
    # Final replay with event-level capture, for the minimal report.
    report = diff_captures(side_a.capture(), side_b.capture(),
                           context=context)
    result = BisectResult(
        diverged=report.diverged or hi is not None,
        lo=lo, hi=hi, lo_vclock=lo_vclock, hi_vclock=hi_vclock,
        probes=probes, scope=scope, report=report)
    report.bisect = result.to_dict()
    return result
