"""One benchmark start: set up a workload, then measure it.

``run.py`` starts this file as a fresh process for every start::

    python3 perfbench/harness.py --workload NAME --seed S --seconds N \\
        --trace 0|1 [--setup-only]

The process imports the program from ``src/`` of the checkout, builds
the workload's ops from the seed, runs op 0 once untimed as a warm-up
and prints ``ready`` with two host-speed probes; the parent times
set-up up to that line.  With
``--setup-only`` it stops there.  Otherwise it runs the timed loop and
prints one JSON line with its measurements.

With ``--trace 0`` the loop runs untraced for ``--seconds`` and reports
the end-to-end metrics.  With ``--trace 1`` it runs untraced for half
the time, then replays exactly the same ops with spans around each
layer's public entry points (:func:`traced`) and reports the per-layer
profile.  The spans are installed from here, by patching those entry
points in this process; nothing under ``src/`` changes.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import contextlib
import functools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Journals and cache stores live here, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench_work")


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program at %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least *q*%
    of the samples at or below it.  With n samples, ``n - ceil(q*n/100)``
    samples lie above it; p90 over 100 samples leaves exactly 10."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


# Host speed.  On a shared host the speed of one core drifts by 1.1x to
# 1.9x within half a minute, as other tenants come and go.  So each
# start pins itself to one CPU, the timed loop runs a short fixed probe
# at least every PROBE_EVERY_S, and each op's time is scaled by
# REFERENCE_PROBE_S over the mean of the probes just before and just
# after it: times read as if measured on a host whose probe takes
# REFERENCE_PROBE_S.  See README.md for what this buys.

#: Iterations of the probe loop.
PROBE_LOOPS = 40_000
#: Probe time on the reference host: the 2-core development VM
#: (2.0 GHz) at its fastest.
REFERENCE_PROBE_S = 1.5e-3
#: Longest stretch of the timed loop without a probe.
PROBE_EVERY_S = 0.05


def loop_seconds(iterations: int) -> float:
    """Seconds this host takes right now for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i & 7
    return time.perf_counter() - t0


def calibration_ops_per_s() -> float:
    """Iterations per second of the probe loop, best of three 200k runs;
    stored with every result as context."""
    return max(200_000 / loop_seconds(200_000) for _ in range(3))


def speed_factor(probes: Sequence[float]) -> float:
    """What to multiply a time by to read it at the reference speed."""
    return REFERENCE_PROBE_S / statistics.mean(probes)


def pin_to_one_cpu() -> None:
    """Keep this process on one CPU, so probes and the work they
    correct run on the same core.  The program is single-threaded."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# per-layer spans
# ---------------------------------------------------------------------------

#: Layers in the order the profile table prints them; ``harness`` is the
#: traced op time no layer span covers.
LAYERS = ("container", "image", "kernel", "syscalls", "fs", "tracer",
          "handlers", "sched", "ckpt.capture", "ckpt.journal",
          "ckpt.recover", "cache.key", "cache.lookup", "cache.store",
          "harness")


class LayerProfile:
    """Host time per layer, from spans kept in memory.

    A span opens when a wrapped entry point is called and closes when it
    returns or raises.  Its self time is its duration minus the part its
    child spans cover, so nested layers are never counted twice.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.Counter()
        #: Counts taken at layer boundaries, e.g. ``fsync.ckpt.journal``.
        self.counts: Dict[str, int] = collections.Counter()
        #: Open spans, innermost last: [layer, time covered by children].
        self._stack: List[list] = []

    @property
    def current(self) -> str:
        return self._stack[-1][0] if self._stack else "harness"

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stack, clock = self._stack, self.clock
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
        return span


def _public_methods(cls) -> List[str]:
    return sorted(name for name in dir(cls)
                  if not name.startswith("_")
                  and callable(getattr(cls, name)))


def layer_entry_points():
    """``(layer, owner, attribute names)`` for every wrapped entry point."""
    import repro.ckpt
    from repro.cache import RunCache
    from repro.ckpt import journal
    from repro.ckpt.manager import CheckpointManager, RecoveryManager
    from repro.core.container import DetTrace
    from repro.core.image import Image
    from repro.core.scheduler import LogicalClockScheduler
    from repro.core.tracer import DetTraceTracer
    from repro.kernel.filesystem import Filesystem
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import SyscallTable

    return [
        ("container", DetTrace, ("run", "resume")),
        ("image", Image, ("install",)),
        ("kernel", Kernel, ("run",)),
        ("syscalls", SyscallTable, ("execute",)),
        ("fs", Filesystem, ("resolve", "resolve_parent", "dirent_order")),
        ("tracer", DetTraceTracer, ("on_trace_stop", "on_thread_progress",
                                    "on_quiescent", "on_token_granted",
                                    "on_instruction")),
        ("sched", LogicalClockScheduler,
         tuple(_public_methods(LogicalClockScheduler))),
        ("ckpt.capture", CheckpointManager, ("snapshot",)),
        ("ckpt.journal", journal, ("write_snapshot",)),
        ("ckpt.recover", RecoveryManager, ("load",)),
        ("ckpt.recover", repro.ckpt, ("restore",)),
        ("cache.key", RunCache, ("key_for",)),
        ("cache.lookup", RunCache, ("lookup",)),
        ("cache.store", RunCache, ("store_result",)),
    ]


@contextlib.contextmanager
def traced(profile: LayerProfile) -> Iterator[LayerProfile]:
    """Wrap every layer entry point in *profile*'s spans; undo on exit.

    Handlers are wrapped where the tracer finds them: the table
    ``repro.core.tracer.build_handler_table`` returns and the module's
    ``passthrough`` default.  ``os.fsync`` is counted per enclosing
    layer, so durable writes show as counts rather than as disk time.
    """
    from repro.core import tracer as tracer_module

    missing = object()
    saved = []

    def patch(owner, name, value):
        saved.append((owner, name, vars(owner).get(name, missing)))
        setattr(owner, name, value)

    build_table = tracer_module.build_handler_table
    real_fsync = os.fsync

    def wrapped_table():
        return {name: profile.wrap("handlers", handler)
                for name, handler in build_table().items()}

    def counted_fsync(fd):
        profile.counts["fsync." + profile.current] += 1
        return real_fsync(fd)

    try:
        for layer, owner, names in layer_entry_points():
            for name in names:
                patch(owner, name, profile.wrap(layer, getattr(owner, name)))
        patch(tracer_module, "build_handler_table", wrapped_table)
        patch(tracer_module, "passthrough",
              profile.wrap("handlers", tracer_module.passthrough))
        patch(os, "fsync", counted_fsync)
        yield profile
    finally:
        for owner, name, value in reversed(saved):
            if value is missing:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

class Loop:
    """What one pass of the timed loop saw."""

    def __init__(self):
        #: Host seconds of each op, the part of it spent blocked in
        #: fsync, and the rest at the reference speed.
        self.raw: List[float] = []
        self.disk: List[float] = []
        self.times: List[float] = []
        self.digests: List[str] = []
        self.failed = 0
        #: Guest syscalls of runs that executed (cache hits add none).
        self.syscalls = 0
        #: Of those, the ones the tracer stopped on and serviced.
        self.serviced = 0
        self.fs = collections.Counter()
        self.counts = collections.Counter()

    @property
    def wall(self) -> float:
        """Host seconds spent in ops (probes excluded)."""
        return sum(self.raw)

    @property
    def speed(self) -> float:
        """Reference-speed seconds per host second, over the whole pass."""
        return sum(self.times) / (self.wall - sum(self.disk))


@contextlib.contextmanager
def fsync_seconds(clock: Callable[[], float]) -> Iterator[List[float]]:
    """Add the seconds ``os.fsync`` blocks to the yielded cell.

    Op times leave this out: on a virtual disk fsync latency follows the
    host (other tenants, discards of deleted files), not the program.
    The traced run counts fsyncs per layer instead."""
    real = os.fsync
    spent = [0.0]

    def timed(fd):
        t0 = clock()
        try:
            return real(fd)
        finally:
            spent[0] += clock() - t0

    os.fsync = timed
    try:
        yield spent
    finally:
        os.fsync = real


def run_ops(workload, deadline: Optional[float] = None,
            count: Optional[int] = None) -> Loop:
    """Run ops 0, 1, ... until *deadline* (``perf_counter`` time) has
    passed, but at least one, or until *count* ops are done.  One
    caller, no pool: each op starts when the previous one has finished."""
    loop = Loop()
    clock = time.perf_counter
    probes = [(clock(), loop_seconds(PROBE_LOOPS))]
    starts = []
    i = 0
    with fsync_seconds(clock) as blocked:
        while i < count if deadline is None else (i == 0 or clock() < deadline):
            blocked[0] = 0.0
            t0 = clock()
            try:
                op = workload.op(i)
            except Exception:  # an op that raises is a failed op, not a crash
                traceback.print_exc()
                op = None
            t1 = clock()
            starts.append(t0)
            loop.raw.append(t1 - t0)
            loop.disk.append(blocked[0])
            if t1 - probes[-1][0] >= PROBE_EVERY_S:
                probes.append((t1, loop_seconds(PROBE_LOOPS)))
            i += 1
            if op is None:
                loop.failed += 1
                loop.digests.append("")
                continue
            loop.failed += not op.ok
            loop.digests.append(op.digest)
            loop.counts.update(op.counts)
            for result in op.results:
                if result.cache is not None:
                    loop.counts["cache." + result.cache["outcome"]] += 1
                    if not result.cache["executed"]:
                        continue
                    loop.counts["cache.reexecutions"] += (
                        result.cache["outcome"] == "hit")
                loop.syscalls += result.syscall_count
                if result.counters is not None:
                    loop.serviced += result.counters.syscall_events
                loop.fs.update(result.fs_cache_stats)
    probes.append((clock(), loop_seconds(PROBE_LOOPS)))
    at = [t for t, _ in probes]
    for t0, seconds, disk in zip(starts, loop.raw, loop.disk):
        # The last probe before the op started and the first after it.
        k = bisect.bisect_right(at, t0)
        near = [d for _, d in probes[k - 1:k + 1]]
        loop.times.append((seconds - disk) * speed_factor(near))
    return loop


def end_to_end(loop: Loop) -> Dict[str, float]:
    busy = sum(loop.times)
    return {
        "runs_per_s": len(loop.times) / busy,
        "run_p50_ms": percentile(loop.times, 50) * 1e3,
        "run_p90_ms": percentile(loop.times, 90) * 1e3,
        "syscalls_per_s": loop.syscalls / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(profile: LayerProfile, loop: Loop,
              untraced: Loop) -> Dict[str, float]:
    """The per-layer table of one traced pass, per op.  Shares are of
    host time; times are at the reference speed, like the loop's."""
    ops = len(loop.times)
    self_s = dict(profile.self_s)
    self_s["harness"] = loop.wall - sum(self_s.values())
    calls = dict(profile.calls)
    calls["harness"] = ops
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        spent = self_s.get(layer, 0.0)
        metrics[layer + ".share"] = spent / loop.wall
        metrics[layer + ".self_ms"] = spent * loop.speed * 1e3 / ops
        metrics[layer + ".calls"] = calls.get(layer, 0) / ops
        metrics[layer + ".us_per_call"] = _ratio(spent * loop.speed * 1e6,
                                                 calls.get(layer, 0))
    fs, counts = loop.fs, loop.counts
    snapshots = counts["ckpt.snapshots"]
    metrics.update({
        "fs.resolve_hit_rate": _ratio(
            fs["resolve_hits"], fs["resolve_hits"] + fs["resolve_misses"]),
        "fs.dirent_hit_rate": _ratio(
            fs["dirent_hits"], fs["dirent_hits"] + fs["dirent_misses"]),
        "tracer.serviced_ratio": _ratio(loop.serviced, loop.syscalls),
        "ckpt.snapshots": snapshots / ops,
        "ckpt.delta_ratio": _ratio(counts["ckpt.delta_snapshots"], snapshots),
        "ckpt.journal_bytes": counts["ckpt.journal_bytes"] / ops,
        "ckpt.durable_writes": sum(
            n for key, n in profile.counts.items()
            if key.startswith("fsync.ckpt.")) / ops,
        "cache.hit_ratio": _ratio(
            counts["cache.hit"], counts["cache.hit"] + counts["cache.store"]),
        "cache.reexecutions": counts["cache.reexecutions"],
        "harness.coverage": 1.0 - metrics["harness.share"],
        "harness.tracing_overhead": sum(loop.times) / sum(untraced.times),
    })
    return metrics


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run the timed loop and build this start's result object."""
    calibration = calibration_ops_per_s()
    if not trace:
        loop = run_ops(workload, deadline=time.perf_counter() + seconds)
        return {"correct": loop.failed == 0, "attempted": len(loop.times),
                "failed": loop.failed, "metrics": end_to_end(loop),
                "samples": len(loop.times), "calibration_ops_per_s": calibration}
    untraced = run_ops(workload, deadline=time.perf_counter() + seconds / 2)
    workload.reset()
    with traced(LayerProfile()) as profile:
        loop = run_ops(workload, count=len(untraced.times))
    # The spans must not perturb the program: every traced op repeats
    # its untraced output exactly.
    perturbed = sum(a != b for a, b in zip(untraced.digests, loop.digests))
    failed = untraced.failed + loop.failed + perturbed
    return {"correct": failed == 0,
            "attempted": len(untraced.times) + len(loop.times),
            "failed": failed, "metrics": per_layer(profile, loop, untraced),
            "samples": len(loop.times), "calibration_ops_per_s": calibration}


def start(name: str, seed: int, workdir: str):
    """Build workload *name* from *seed* and run its warm-up op."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    warm = workload.op(0)
    workload.reset()
    if not warm.ok:
        raise SystemExit("perfbench: %s warm-up op failed" % name)
    return workload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    before = loop_seconds(PROBE_LOOPS)
    use_checkout_src()
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        workload = start(args.workload, args.seed, workdir)
        # The parent times set-up up to this line and reads it at the
        # speed these two probes saw.
        print("ready %r %r" % (before, loop_seconds(PROBE_LOOPS)), flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only once no other start is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
