"""The one benchmark gate: host time read the perfbench way, one record
schema, one check.

Every bench that turns host time into a gated number times it here:

* on one CPU (:func:`pinned`), so the probes and the work they correct
  run on the same core;
* bracketed by perfbench's loop probe and scaled to its reference host
  speed (:func:`timed`), because one core of a shared host drifts by
  1.1-1.9x within half a minute;
* with both sides of a ratio run round by round (:func:`interleave`),
  gating the median of the per-round ratios (:func:`median_ratio`), so
  drift that the probes miss still reaches both sides of each round.

The pin, the probe and the reference speed are perfbench's own, loaded
from ``perfbench/harness.py`` by path, so the two measurements cannot
drift apart.

A bench writes one record, ``BENCH_<name>.json``::

    {"bench": name,
     "gates": {gate: {"value": v, "min": x}         # holds when v >= x
                   | {"value": v, "max": x}         # holds when v < x
                   | {"value": v, "better": "higher" | "lower",
                      "bound": b}},                  # trend, b a fraction
     "report": {...}}                                # context, never gated

:func:`check` gates a fresh record: its floors and ceilings always, and,
given the committed record as baseline, each trend, which fails when the
value got worse than the baseline's by more than its bound.  The pytest
benches call ``check(record)``; ``scripts/check.sh`` runs::

    python -m benchmarks.gate FRESH.json BASELINE.json
"""

import contextlib
import importlib.util
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where benches keep journals and cache stores: tmpfs where the host has
#: one.  On a virtual disk the kernel's file-system time follows the other
#: tenants, not the program, and the user-mode probe cannot correct it
#: (perfbench leaves fsync time out of its op times for the same reason).
TMPFS = "/dev/shm" if os.path.isdir("/dev/shm") else None


def _load_harness():
    path = os.path.join(ROOT, "perfbench", "harness.py")
    spec = importlib.util.spec_from_file_location("perfbench_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load_harness()


class GateFailure(AssertionError):
    """A gate failed, or a record lacks what a gate needs."""


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def pinned():
    """Run the block on one CPU, the way a perfbench start runs, then
    give the caller back its own CPU mask."""
    mask = os.sched_getaffinity(0)
    harness.pin_to_one_cpu()
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def timed(fn: Callable, *args) -> Tuple[object, float]:
    """Call ``fn(*args)`` once; return its result and its host seconds
    read at the reference speed of the probes just before and after."""
    before = harness.loop_seconds(harness.PROBE_LOOPS)
    t0 = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - t0
    after = harness.loop_seconds(harness.PROBE_LOOPS)
    return result, elapsed * harness.speed_factor([before, after])


def interleave(sides: Dict[str, Callable[[int], object]],
               rounds: int) -> Dict[str, List[Tuple[object, float]]]:
    """Call ``side(round)`` for every side, in order, once per round,
    each :func:`timed`; returns ``{side: [(result, seconds), ...]}``."""
    runs = {name: [] for name in sides}
    for r in range(rounds):
        for name, fn in sides.items():
            runs[name].append(timed(fn, r))
    return runs


def seconds(runs: List[Tuple[object, float]]) -> float:
    """Median seconds of one side's rounds."""
    return statistics.median(t for _, t in runs)


def median_ratio(runs: Dict[str, List[Tuple[object, float]]],
                 num: str, den: str) -> float:
    """Median over rounds of side *num*'s time over side *den*'s."""
    return statistics.median(a / b for (_, a), (_, b)
                             in zip(runs[num], runs[den]))


# ---------------------------------------------------------------------------
# the record and its check
# ---------------------------------------------------------------------------

def write(path: str, bench: str, gates: Dict[str, dict],
          report: dict) -> dict:
    """Write the BENCH record of *bench* to *path*; returns it."""
    record = {"bench": bench, "gates": gates, "report": report}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _verdict(name: str, gate: Optional[dict],
             base_gates: Optional[dict]) -> Tuple[bool, str]:
    if gate is None:
        return False, "%s: missing from the fresh record" % name
    if base_gates is not None and name not in base_gates:
        return False, "%s: missing from the baseline" % name
    value = gate.get("value")
    if not _number(value):
        return False, "%s: fresh value %r is not a number" % (name, value)
    if "min" in gate:
        return value >= gate["min"], "%s: %.6g (min %g)" % (
            name, value, gate["min"])
    if "max" in gate:
        return value < gate["max"], "%s: %.6g (max %g)" % (
            name, value, gate["max"])
    better, bound = gate.get("better"), gate.get("bound")
    if better not in ("higher", "lower") or not _number(bound):
        return False, "%s: no min, max or better+bound in %r" % (name, gate)
    if base_gates is None:
        return True, "%s: %.6g (trend, no baseline)" % (name, value)
    old = base_gates[name].get("value")
    if not _number(old) or old <= 0:
        return False, "%s: baseline value %r is not a positive number" % (
            name, old)
    if better == "higher":
        limit = old * (1.0 - bound)
        ok = value >= limit
    else:
        limit = old * (1.0 + bound)
        ok = value <= limit
    return ok, "%s: %.6g vs baseline %.6g (%.2fx; %s is better, limit %.6g)" % (
        name, value, old, value / old, better, limit)


def check(fresh: dict, baseline: Optional[dict] = None) -> List[str]:
    """Gate *fresh*, and its trends against *baseline* when given.

    Returns one line per gate; raises :class:`GateFailure` with every
    line when a gate fails, or when either record lacks a gate the
    other has or a value a gate needs."""
    gates = fresh.get("gates")
    if not isinstance(gates, dict):
        raise GateFailure("fresh record has no gates: %r" % sorted(fresh))
    base_gates = None
    if baseline is not None:
        base_gates = baseline.get("gates")
        if not isinstance(base_gates, dict):
            raise GateFailure("baseline has no gates: %r" % sorted(baseline))
        if baseline.get("bench") != fresh.get("bench"):
            raise GateFailure("baseline is of bench %r, fresh record of %r"
                              % (baseline.get("bench"), fresh.get("bench")))
    verdicts = [_verdict(name, gates.get(name), base_gates)
                for name in sorted(set(gates) | set(base_gates or ()))]
    lines = ["%s %s %s" % (fresh.get("bench"), "ok  " if ok else "FAIL", line)
             for ok, line in verdicts]
    if not all(ok for ok, _ in verdicts):
        raise GateFailure("\n".join(lines))
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: python -m benchmarks.gate FRESH.json "
                         "BASELINE.json")
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    try:
        lines = check(*records)
    except GateFailure as exc:
        print(exc)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
