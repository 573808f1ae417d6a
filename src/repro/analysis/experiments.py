"""The full evaluation, as a library (regenerates EXPERIMENTS.md).

Each ``*_section`` function runs one experiment for real and renders a
markdown section with measured-vs-paper numbers.  ``scripts/
run_experiments.py`` is a thin wrapper; ``generate(scale, out)`` is the
API (smoke-tested at a tiny scale in the test suite).
"""


import sys
import time
from collections import Counter

import numpy as np


def table1_section(scale):
    from repro.analysis import format_table, format_table1
    from repro.repro_tools import reprotest_dettrace, reprotest_native
    from repro.workloads.debian import generate_population

    n = max(40, int(80 * scale))
    specs = generate_population(n, seed=42)
    matrix = Counter()
    causes = Counter()
    stock = 0
    for spec in specs:
        bl = reprotest_native(spec)
        dt = reprotest_dettrace(spec)
        matrix[(bl.verdict, dt.verdict)] += 1
        if dt.verdict == "unsupported":
            for cause in spec.unsupported_causes:
                causes[cause] += 1
        if reprotest_native(spec, apply_tar_workaround=False).verdict == "reproducible":
            stock += 1
    bl_irr = sum(v for (b, _), v in matrix.items() if b == "irreproducible")
    rendered = matrix.get(("irreproducible", "reproducible"), 0)

    out = ["## Table 1 — build-status transitions (population: %d packages)" % n, ""]
    out.append("```")
    out.append(format_table1(matrix))
    out.append("```")
    out.append("")
    out.append("| §6.1 claim | measured | paper |")
    out.append("|---|---|---|")
    out.append("| stock system (no tar workaround) reproducible | %d/%d | 0 |" % (stock, n))
    out.append("| baseline reproducible (with workaround) | %.1f%% | 24.1%% |"
               % (100 * (n - bl_irr) / n))
    out.append("| BL-irreproducible rendered reproducible by DetTrace | %.1f%% | 72.65%% |"
               % (100 * rendered / max(1, bl_irr)))
    out.append("| reproducible→irreproducible regressions | %d | 0 |"
               % matrix.get(("reproducible", "irreproducible"), 0))
    out.append("| irreproducible under DetTrace | %d | 0 |"
               % matrix.get(("irreproducible", "irreproducible"), 0))
    out.append("")
    total_causes = sum(causes.values()) or 1
    out.append("§7.1.1 unsupported causes (paper: busy-wait 45.8%, sockets 15.8%, "
               "signals 4%, misc tail):")
    out.append("")
    for cause, count in causes.most_common():
        out.append("* %s: %d (%.0f%%)" % (cause, count, 100 * count / total_causes))
    out.append("")
    return "\n".join(out)


def table2_section(scale):
    from repro.repro_tools import first_build_host
    from repro.tracer.events import TraceCounters
    from repro.analysis import PAPER_TABLE2
    from repro.workloads.debian import build_dettrace, generate_population

    n = max(20, int(40 * scale))
    specs = [s for s in generate_population(n * 2, seed=7)
             if not s.expect_dt_unsupported and not s.syscall_storm][:n]
    total = TraceCounters()
    built = 0
    for spec in specs:
        rec = build_dettrace(spec, host=first_build_host())
        if rec.status == "built":
            built += 1
            total.add(rec.result.counters)
    out = ["## Table 2 — per-package average tracer events (%d builds)" % built, ""]
    out.append("| event | measured avg | paper avg |")
    out.append("|---|---|---|")
    for label, value in total.as_table2_rows():
        out.append("| %s | %.2f | %.2f |" % (label, value / max(1, built),
                                             PAPER_TABLE2[label]))
    out.append("")
    out.append("Our packages are ~10³× smaller than Debian's (hundreds of "
               "syscalls per build vs 843k), so compare the *mix*, not the "
               "magnitudes: syscalls ≫ memory reads ≫ rdtsc ≫ spawns ≫ IO "
               "retries, as in the paper.  One scale artifact: blocked-"
               "syscall replays are proportionally higher here because our "
               "builds spend most of their (short) lives with a parent "
               "blocked in wait4 while children run, and the scheduler "
               "re-probes the blocked call after every serviced syscall "
               "(§5.6.1); in the paper's hour-long builds that overhead "
               "amortizes to ~0.15% of events.  Every replay is still "
               "decided, charged and counted; a blocked wait4 probe with "
               "no notification since its last attempt only skips "
               "re-executing the call on the host.")
    out.append("")
    return "\n".join(out)


def fig5_section(scale):
    from repro.analysis import format_scatter
    from repro.repro_tools import first_build_host
    from repro.workloads.debian import build_dettrace, build_native, generate_population

    n = max(25, int(40 * scale))
    specs = [s for s in generate_population(n * 2, seed=13)
             if not s.expect_dt_unsupported and not s.syscall_storm][:n]
    points, thr, nothr = [], [], []
    thr_flags = []
    walls = []
    for spec in specs:
        base = build_native(spec, host=first_build_host())
        det = build_dettrace(spec, host=first_build_host())
        if base.status != "built" or det.status != "built":
            continue
        rate = base.result.syscall_count / base.result.wall_time
        slow = det.result.wall_time / base.result.wall_time
        points.append((rate, slow))
        walls.append(base.result.wall_time)
        thr_flags.append(spec.uses_threads)
        (thr if spec.uses_threads else nothr).append(slow)
    rates = np.array([p[0] for p in points])
    slows = np.array([p[1] for p in points])
    w = np.array(walls)
    corr = float(np.corrcoef(rates, slows)[0, 1])
    aggregate = float((slows * w).sum() / w.sum())

    from .figures import figure5_svg
    with open("figure5.svg", "w") as fh:
        fh.write(figure5_svg(points, thr_flags))

    out = ["## Figure 5 — slowdown vs syscall rate (%d packages)" % len(points),
           "", "Rendered to `figure5.svg`.", ""]
    out.append("```")
    out.append(format_scatter(points, title=""))
    out.append("```")
    out.append("")
    out.append("| §7.4 claim | measured | paper |")
    out.append("|---|---|---|")
    out.append("| rate/slowdown correlation | %.2f | positive |" % corr)
    out.append("| aggregate slowdown | %.2fx | 3.49x |" % aggregate)
    out.append("| slowdown range | %.1f–%.1fx | ~1–30x |" % (slows.min(), slows.max()))
    if thr and nothr:
        out.append("| threaded vs non-threaded mean | %.2fx vs %.2fx | threaded slower |"
                   % (float(np.mean(thr)), float(np.mean(nothr))))
    out.append("")
    return "\n".join(out)


def fig6_section():
    from repro.analysis import PAPER_FIG6
    from repro.analysis.figures import figure6_svg
    from repro.cpu.machine import HASWELL_XEON, HostEnvironment
    from repro.workloads.bioinf import ALL_TOOLS, run_dettrace, run_native, tool_image

    out = ["## Figure 6 — bioinformatics speedups (1/4/16 processes)",
           "", "Rendered to `figure6.svg`.", ""]
    out.append("| tool | mode | measured | paper |")
    out.append("|---|---|---|---|")
    collected = {}
    for tool, spec in ALL_TOOLS.items():
        img = tool_image(spec)
        seq = None
        for mode, runner in (("native", run_native), ("dettrace", run_dettrace)):
            vals = []
            for nprocs in (1, 4, 16):
                host = HostEnvironment(machine=HASWELL_XEON, entropy_seed=nprocs * 7)
                r = runner(img, tool, nprocs, host=host)
                if mode == "native" and nprocs == 1:
                    seq = r.wall_time
                vals.append(seq / r.wall_time)
            out.append("| %s | %s | %s | %s |" % (
                tool, mode, " / ".join("%.2f" % v for v in vals),
                " / ".join("%.2f" % v for v in PAPER_FIG6[tool][mode])))
            collected.setdefault(tool, {})[mode] = vals
    with open("figure6.svg", "w") as fh:
        fh.write(figure6_svg(collected))
    out.append("")
    return "\n".join(out)


def tf_section():
    from repro.analysis import PAPER_TF
    from repro.cpu.machine import HASWELL_XEON, HostEnvironment
    from repro.workloads.ml import (ALEXNET, CIFAR10, losses_of, run_dettrace,
                                    run_parallel_native, run_serial_native)

    def host(seed, boot=0.0):
        return HostEnvironment(machine=HASWELL_XEON, entropy_seed=seed,
                               boot_epoch=1.7e9 + boot)

    out = ["## §7.6 — TensorFlow analog", ""]
    out.append("| model | DT vs parallel (paper) | DT vs serial (paper) | "
               "DT losses reproducible | native reproducible |")
    out.append("|---|---|---|---|---|")
    for cfg in (ALEXNET, CIFAR10):
        par = run_parallel_native(cfg, host=host(1))
        ser = run_serial_native(cfg, host=host(2))
        det = run_dettrace(cfg, host=host(3))
        det2 = run_dettrace(cfg, host=host(4, 500.0))
        par2 = run_parallel_native(cfg, host=host(5, 900.0))
        out.append("| %s | %.2fx (%.2fx) | %.2fx (%.2fx) | %s | %s |" % (
            cfg.name,
            det.wall_time / par.wall_time, PAPER_TF[cfg.name]["vs_parallel"],
            det.wall_time / ser.wall_time, PAPER_TF[cfg.name]["vs_serial"],
            losses_of(det) == losses_of(det2),
            losses_of(par) == losses_of(par2)))
    out.append("")
    return "\n".join(out)


def rr_section(scale):
    from repro.repro_tools import first_build_host
    from repro.rnr import record, replay
    from repro.workloads.debian import (TOOLS, build_native,
                                        generate_population, package_image)

    n = max(15, int(25 * scale))
    specs = [s for s in generate_population(n * 3, seed=29)
             if not s.syscall_storm and not s.busy_waits
             and not s.uses_threads and s.language != "java"][:n]
    crashes, overheads, sizes, replays_ok = 0, [], [], 0
    for spec in specs:
        base = build_native(spec, host=first_build_host())
        if base.status != "built":
            continue
        rec = record(package_image(spec), TOOLS["driver"],
                     argv=["dpkg-buildpackage", spec.name],
                     host=first_build_host())
        if rec.status == "crash":
            crashes += 1
            continue
        overheads.append(rec.wall_time / base.result.wall_time)
        sizes.append(rec.recording.storage_size())
        if replay(package_image(spec), TOOLS["driver"], rec.recording,
                  argv=["dpkg-buildpackage", spec.name],
                  host=first_build_host(seed=999)):
            replays_ok += 1
    o = np.array(overheads)
    out = ["## §7.1.3 — Mozilla rr baseline (%d packages)" % n, ""]
    out.append("| metric | measured | paper |")
    out.append("|---|---|---|")
    out.append("| crashed on unsupported ioctl | %d/%d (%.0f%%) | 46/81 (57%%) |"
               % (crashes, n, 100 * crashes / n))
    out.append("| mean record overhead | %.2fx | 5.8x |" % o.mean())
    out.append("| overhead range | %.1f–%.1fx | 3.3–22.7x |" % (o.min(), o.max()))
    out.append("| replays completed faithfully | %d/%d | n/a |"
               % (replays_ok, len(overheads)))
    out.append("| mean trace size | %.0f KB | 'much more than source' |"
               % (np.mean(sizes) / 1024))
    out.append("")
    return "\n".join(out)


def portability_section(scale):
    from repro.core import ablated
    from repro.cpu.machine import BROADWELL_XEON, SKYLAKE_CLOUDLAB
    from repro.repro_tools import reprotest_portability
    from repro.workloads.debian import generate_population

    n = max(12, int(20 * scale))
    specs = [s for s in generate_population(n * 3, seed=31)
             if not s.expect_dt_unsupported and not s.syscall_storm][:n]
    identical = sum(
        1 for s in specs
        if reprotest_portability(s, SKYLAKE_CLOUDLAB, BROADWELL_XEON).verdict
        == "reproducible")
    broken = sum(
        1 for s in specs
        if reprotest_portability(s, SKYLAKE_CLOUDLAB, BROADWELL_XEON,
                                 config=ablated("deterministic_dir_sizes")).verdict
        != "reproducible")
    out = ["## §7.3 — portability (Skylake/18.04 vs Broadwell/18.10)", ""]
    out.append("| metric | measured | paper |")
    out.append("|---|---|---|")
    out.append("| bitwise identical across machines | %d/%d | 1,000/1,000 |"
               % (identical, n))
    out.append("| broken with the directory-size extension ablated | %d/%d | "
               "extension was required |" % (broken, n))
    out.append("")
    return "\n".join(out)


def correctness_section():
    from repro.workloads.debian import PackageSpec, build_dettrace, build_native

    spec = PackageSpec(name="llvm", n_sources=8, parallel_jobs=4,
                       has_tests=True, embeds_timestamp=True,
                       embeds_random_symbols=True)
    native = build_native(spec)
    det = build_dettrace(spec)

    def outcome(rec):
        for line in rec.result.stdout.splitlines():
            if line.startswith("tests:"):
                return line
        return "?"

    out = ["## §7.2 — functional correctness", ""]
    out.append("The llvm-analog package's own test suite reports identical "
               "outcomes whether it was built natively or under DetTrace "
               "(the paper's LLVM self-host check):")
    out.append("")
    out.append("* native build: `%s`" % outcome(native))
    out.append("* DetTrace build: `%s`" % outcome(det))
    out.append("* match: **%s**" % (outcome(native) == outcome(det)))
    out.append("")
    return "\n".join(out)


SECTIONS = [
    ("table1", table1_section, True),
    ("table2", table2_section, True),
    ("fig5", fig5_section, True),
    ("fig6", lambda scale: fig6_section(), False),
    ("tf", lambda scale: tf_section(), False),
    ("rr", rr_section, True),
    ("portability", portability_section, True),
    ("correctness", lambda scale: correctness_section(), False),
]


HEADER = """# EXPERIMENTS — paper vs measured

Generated by `python scripts/run_experiments.py` (scale=%s).  Every
"measured" number comes from an actual run of this repository; "paper"
columns are transcribed from *Reproducible Containers* (ASPLOS 2020).
Absolute magnitudes are not comparable — the substrate is a simulator
and package sizes are scaled down ~10^3x (DESIGN.md, "Scaling note") —
the reproduced claims are the *shapes*: status transitions, event mixes,
correlations, speedup curves, crossovers and failure modes.

Per-experiment index (id → workload → modules → bench target) lives in
DESIGN.md.
"""


def generate(scale: float = 1.0, out: str = "EXPERIMENTS.md",
             sections=None, quiet: bool = False) -> str:
    """Run the evaluation and write *out*; returns the markdown text."""
    chosen = SECTIONS if sections is None else [
        s for s in SECTIONS if s[0] in sections]
    parts = [HEADER % scale]
    for name, fn, _takes_scale in chosen:
        t0 = time.time()
        if not quiet:
            sys.stderr.write("running %s...\n" % name)
        parts.append(fn(scale))
        if not quiet:
            sys.stderr.write("  done in %.1fs\n" % (time.time() - t0))
    text = "\n".join(parts)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    return text
