#!/usr/bin/env python3
"""Cost-model calibration report.

Prints how the virtual-time constants in ``repro.kernel.costs`` map onto
the paper's measured overheads, by sweeping the two main knobs and
showing where the current configuration sits.  Useful when retuning after
substrate changes:

    python scripts/calibrate.py            # report current fit
    python scripts/calibrate.py --sweep    # sensitivity sweep
"""

from __future__ import annotations

import argparse

import numpy as np


def current_fit():
    """Where the current constants land vs the paper targets, on the
    Figure 5 and 6 measurements EXPERIMENTS.md reports (scale 1.0)."""
    from repro.analysis import PAPER_BUILD_AGGREGATE, PAPER_FIG6
    from repro.analysis.experiments import fig5_points, fig6_speedups

    print("== Figure 6 fit (speedups at 1/4/16 procs) ==")
    speedups, _succeeded = fig6_speedups()
    for tool, modes in speedups.items():
        for mode, vals in modes.items():
            paper = PAPER_FIG6[tool][mode]
            err = max(abs(a - b) / max(b, 0.1) for a, b in zip(vals, paper))
            print("  %-8s %-9s ours %s  paper %s  (max rel err %.0f%%)" % (
                tool, mode, ["%.2f" % v for v in vals],
                ["%.2f" % v for v in paper], 100 * err))

    print()
    print("== Figure 5 fit (build slowdowns) ==")
    points = fig5_points(1.0)
    rates, slows, walls = (np.array([p[i] for p in points]) for i in range(3))
    print("  correlation %.2f (target: positive)"
          % np.corrcoef(rates, slows)[0, 1])
    print("  aggregate %.2fx (paper %.2fx)"
          % ((slows * walls).sum() / walls.sum(), PAPER_BUILD_AGGREGATE))
    print("  per-syscall effective overhead: %.0f us (median)"
          % np.median((slows - 1) * walls / (rates * walls) * 1e6))


def sweep():
    """Sensitivity of the headline numbers to the two big constants."""
    import repro.kernel.costs as costs
    from repro.cpu.machine import HASWELL_XEON, HostEnvironment
    from repro.workloads.bioinf import RAXML, run_dettrace, run_native, tool_image

    img = tool_image(RAXML)
    host = HostEnvironment(machine=HASWELL_XEON, entropy_seed=1)
    seq = run_native(img, "raxml", 1, host=host).wall_time

    original = costs.TRACEE_WAKEUP_LATENCY
    print("== raxml DT@1 speedup vs TRACEE_WAKEUP_LATENCY "
          "(paper: 0.29) ==")
    try:
        for latency_us in (20, 40, 65, 90, 120):
            costs.TRACEE_WAKEUP_LATENCY = latency_us * 1e-6
            # the tracer module binds the constant at import; reload its copy
            import repro.core.tracer as tracer_mod
            tracer_mod.TRACEE_WAKEUP_LATENCY = costs.TRACEE_WAKEUP_LATENCY
            dt = run_dettrace(img, "raxml", 1, host=host).wall_time
            print("  latency %3d us -> speedup %.2f" % (latency_us, seq / dt))
    finally:
        costs.TRACEE_WAKEUP_LATENCY = original
        import repro.core.tracer as tracer_mod
        tracer_mod.TRACEE_WAKEUP_LATENCY = original


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sweep", action="store_true")
    args = parser.parse_args()
    current_fit()
    if args.sweep:
        print()
        sweep()


if __name__ == "__main__":
    main()
