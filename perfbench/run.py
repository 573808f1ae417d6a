"""Benchmark of the DetTrace container on five workloads, in host time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pkg-sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 0 --out a.json          # every workload
    python3 perfbench/run.py compare a.json b.json

Each start of a workload is a fresh process (``harness.py``).  Untraced,
five set-up-only starts run first and then the start that measures; the
first start is discarded, since it writes the bytecode caches, and
``setup_s`` is the median of the other five.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  The exit code is 0 only when
every op's output was correct.

Metric names, units, directions and regression bounds are read from
``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Set-up-only starts before the measuring one; the first is discarded.
SETUP_STARTS = 5
#: Seconds a start may take beyond twice its measuring time; five
#: set-up starts and one measuring start then end well within 180 s.
START_LIMIT = 20.0


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def _start(workload: str, seed: int, seconds: float, trace: bool,
           setup_only: bool) -> Tuple[float, Optional[dict]]:
    """One fresh process: (seconds until it printed ``ready``, at the
    reference speed, and its result)."""
    cmd = [sys.executable, HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(
        START_LIMIT + (0 if setup_only else 2 * seconds), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    fields = line.split()
    if fields[:1] != ["ready"] or code != 0:
        raise SystemExit("perfbench: %s start failed (exit %s)" % (workload, code))
    ready *= harness.speed_factor([float(p) for p in fields[1:]])
    if setup_only:
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> Tuple[dict, dict]:
    """Every start of one workload; returns the contract result object
    plus the context fields (``samples``, calibration, set-up starts)."""
    setups: List[float] = []
    if not trace:
        for _ in range(SETUP_STARTS):
            setups.append(_start(workload, seed, seconds, trace, True)[0])
    ready, result = _start(workload, seed, seconds, trace, False)
    setups.append(ready)
    raw = dict(result["metrics"])
    if not trace:
        raw["setup_s"] = statistics.median(setups[1:])
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        metrics[metric["name"]] = {"value": raw[metric["name"]],
                                   "unit": metric["unit"]}
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    context = {"samples": result["samples"],
               "calibration_ops_per_s": result["calibration_ops_per_s"]}
    if not trace:
        context["setup_starts_s"] = setups
    return out, context


def print_table(workload: str, result: dict, context: dict) -> None:
    print("%s: %d ops, %d failed, calibration %.0f loop ops/s"
          % (workload, result["attempted"], result["failed"],
             context["calibration_ops_per_s"]))
    for name, metric in result["metrics"].items():
        print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Print each (workload, metric) of two ``--out`` files; 1 if B is
    worse than A by more than a metric's bound or failed more often."""
    with open(path_a) as fh:
        a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        b = json.load(fh)["workloads"]
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    print("%-14s %-24s %14s %14s %9s %7s" % ("workload", "metric", "A", "B",
                                             "change", "bound"))
    for workload in sorted(set(a) & set(b)):
        ra, rb = a[workload], b[workload]
        if rb["failed"] / rb["attempted"] > ra["failed"] / ra["attempted"]:
            print("%-14s failed ratio rose: %d/%d -> %d/%d" % (
                workload, ra["failed"], ra["attempted"], rb["failed"],
                rb["attempted"]))
            worse += 1
        for name in sorted(set(ra["metrics"]) & set(rb["metrics"])):
            va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
            change = (vb - va) / va if va else 0.0
            bound = metrics.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                regress = (-change if metrics[name]["better"] == "higher"
                           else change)
                if regress > bound:
                    verdict = "WORSE"
                    worse += 1
            print("%-14s %-24s %14.6g %14.6g %+8.1f%% %7s %s" % (
                workload, name, va, vb, 100 * change,
                "" if bound is None else "%.0f%%" % (100 * bound), verdict))
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(spec, argv[1], argv[2])
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every result to this file")
    args = parser.parse_args(argv)
    results: Dict[str, dict] = {}
    for workload in [args.workload] if args.workload else names:
        result, context = run_workload(spec, workload, args.seed,
                                       args.seconds, bool(args.trace))
        print_table(workload, result, context)
        results[workload] = dict(result, **context)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "trace": args.trace,
                       "workloads": results}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.workload:
        last = {k: results[args.workload][k]
                for k in ("correct", "attempted", "failed", "metrics")}
    else:
        last = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": {w: r["metrics"] for w, r in results.items()}}
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
