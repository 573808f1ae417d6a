"""The full evaluation, as a library (regenerates EXPERIMENTS.md).

Each ``*_section`` function runs one experiment for real and returns a
markdown section with measured-vs-paper numbers, together with the
paper's shape claims checked on those same numbers, as ``(claim,
measured, holds)`` triples; the Figure 5 and 6 sections also write
their SVG into a given directory.  ``generate`` closes the document with
a table of every claim.  ``scripts/run_experiments.py`` is a thin
wrapper that fails when a claim does not hold; ``generate(scale, out)``
is the API (smoke-tested at a tiny scale in the test suite).
"""


import os
import sys
import time
from collections import Counter, namedtuple

import numpy as np

#: One shape claim of the evaluation, as ``generate`` reports it.
Claim = namedtuple("Claim", "section claim measured holds")


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
    regressions = matrix.get(("reproducible", "irreproducible"), 0)
    dt_irr = matrix.get(("irreproducible", "irreproducible"), 0)

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
               % regressions)
    out.append("| irreproducible under DetTrace | %d | 0 |" % dt_irr)
    out.append("")
    total_causes = sum(causes.values()) or 1
    out.append("§7.1.1 unsupported causes (paper: busy-wait 45.8%, sockets 15.8%, "
               "signals 4%, misc tail):")
    out.append("")
    for cause, count in causes.most_common():
        out.append("* %s: %d (%.0f%%)" % (cause, count, 100 * count / total_causes))
    out.append("")
    claims = [
        ("stock system (no tar workaround) reproducible = 0",
         "%d" % stock, stock == 0),
        ("reproducible→irreproducible regressions = 0",
         "%d" % regressions, regressions == 0),
        ("irreproducible under DetTrace = 0", "%d" % dt_irr, dt_irr == 0),
        ("BL-irreproducible rendered reproducible > 60%",
         "%.1f%%" % (100 * rendered / max(1, bl_irr)),
         rendered / max(1, bl_irr) > 0.6),
    ]
    return "\n".join(out), claims


def table2_section(scale):
    from repro.repro_tools import first_build_host
    from repro.obs.metrics import Metrics
    from repro.analysis import PAPER_TABLE2
    from repro.workloads.debian import build_dettrace, generate_population

    n = max(20, int(40 * scale))
    specs = [s for s in generate_population(n * 2, seed=7)
             if not s.expect_dt_unsupported and not s.syscall_storm][:n]
    total = Metrics(runs=0)
    for spec in specs:
        rec = build_dettrace(spec, host=first_build_host())
        if rec.status == "built":
            total.add(rec.result.metrics)
    out = ["## Table 2 — per-package average tracer events (%d builds)"
           % total.runs, ""]
    out.append("| event | measured avg | paper avg |")
    out.append("|---|---|---|")
    averages = total.table2_averages()
    for label, value in averages.items():
        paper = PAPER_TABLE2.get(label)
        out.append("| %s | %.2f | %s |" % (
            label, value, "n/a" if paper is None else "%.2f" % paper))
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
    syscalls = averages["System call events"]
    reads = averages["User process memory reads"]
    rdtsc = averages["rdtsc intercepted"]
    retries = averages["read retries"]
    urandom = averages["/dev/urandom opens"]
    claims = [
        ("at least 80%% of the %d sampled packages build" % n,
         "%d" % total.runs, total.runs >= n * 0.8),
        ("system call events > user memory reads",
         "%.2f > %.2f" % (syscalls, reads), syscalls > reads),
        ("user memory reads > rdtsc intercepted",
         "%.2f > %.2f" % (reads, rdtsc), reads > rdtsc),
        ("system call events > 100 × read retries",
         "%.2f vs %.2f" % (syscalls, retries), syscalls > 100 * retries),
        ("/dev/urandom opens ≥ 0", "%.2f" % urandom, urandom >= 0),
    ]
    return "\n".join(out), claims


def fig5_points(scale):
    """Figure 5's measurement: ``(syscall rate, slowdown, native wall,
    threaded)`` for every sampled package that built both ways."""
    from repro.repro_tools import first_build_host
    from repro.workloads.debian import build_dettrace, build_native, generate_population

    n = max(25, int(40 * scale))
    specs = [s for s in generate_population(n * 2, seed=13)
             if not s.expect_dt_unsupported and not s.syscall_storm][:n]
    points = []
    for spec in specs:
        base = build_native(spec, host=first_build_host())
        det = build_dettrace(spec, host=first_build_host())
        if base.status != "built" or det.status != "built":
            continue
        rate = base.result.syscall_count / base.result.wall_time
        slow = det.result.wall_time / base.result.wall_time
        points.append((rate, slow, base.result.wall_time, spec.uses_threads))
    return points


def fig5_section(scale, figdir):
    from repro.analysis import PAPER_BUILD_AGGREGATE, format_scatter

    measured = fig5_points(scale)
    points = [(rate, slow) for rate, slow, _, _ in measured]
    thr_flags = [threaded for _, _, _, threaded in measured]
    thr = [slow for _, slow, _, threaded in measured if threaded]
    nothr = [slow for _, slow, _, threaded in measured if not threaded]
    rates = np.array([p[0] for p in points])
    slows = np.array([p[1] for p in points])
    w = np.array([wall for _, _, wall, _ in measured])
    corr = float(np.corrcoef(rates, slows)[0, 1])
    aggregate = float((slows * w).sum() / w.sum())

    from .figures import figure5_svg
    with open(os.path.join(figdir, "figure5.svg"), "w") as fh:
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
    out.append("| aggregate slowdown | %.2fx | %.2fx |"
               % (aggregate, PAPER_BUILD_AGGREGATE))
    out.append("| slowdown range | %.1f–%.1fx | ~1–30x |" % (slows.min(), slows.max()))
    if thr and nothr:
        out.append("| threaded vs non-threaded mean | %.2fx vs %.2fx | threaded slower |"
                   % (float(np.mean(thr)), float(np.mean(nothr))))
    out.append("")
    claims = [
        ("rate/slowdown correlation > 0.6", "%.2f" % corr, corr > 0.6),
        ("aggregate slowdown within 1.5–6.0x (paper %.2fx)"
         % PAPER_BUILD_AGGREGATE, "%.2fx" % aggregate,
         1.5 < aggregate < 6.0),
        ("no package builds faster under DetTrace (slowdown ≥ 1.0)",
         "%.2fx" % slows.min(), slows.min() >= 1.0),
    ]
    return "\n".join(out), claims


def fig6_speedups():
    """Figure 6's measurement: tool -> mode -> speedups over sequential
    native at 1/4/16 processes, and how many of its runs succeeded."""
    from repro.cpu.machine import HASWELL_XEON, HostEnvironment
    from repro.workloads.bioinf import ALL_TOOLS, run_dettrace, run_native, tool_image

    collected = {}
    succeeded = 0
    for tool, spec in ALL_TOOLS.items():
        img = tool_image(spec)
        seq = None
        for mode, runner in (("native", run_native), ("dettrace", run_dettrace)):
            vals = []
            for nprocs in (1, 4, 16):
                host = HostEnvironment(machine=HASWELL_XEON, entropy_seed=nprocs * 7)
                r = runner(img, tool, nprocs, host=host)
                succeeded += bool(r.succeeded)
                if mode == "native" and nprocs == 1:
                    seq = r.wall_time
                vals.append(seq / r.wall_time)
            collected.setdefault(tool, {})[mode] = vals
    return collected, succeeded


def fig6_section(figdir):
    from repro.analysis import PAPER_FIG6
    from repro.analysis.figures import figure6_svg

    collected, succeeded = fig6_speedups()
    out = ["## Figure 6 — bioinformatics speedups (1/4/16 processes)",
           "", "Rendered to `figure6.svg`.", ""]
    out.append("| tool | mode | measured | paper |")
    out.append("|---|---|---|---|")
    for tool, modes in collected.items():
        for mode, vals in modes.items():
            out.append("| %s | %s | %s | %s |" % (
                tool, mode, " / ".join("%.2f" % v for v in vals),
                " / ".join("%.2f" % v for v in PAPER_FIG6[tool][mode])))
    with open(os.path.join(figdir, "figure6.svg"), "w") as fh:
        fh.write(figure6_svg(collected))
    out.append("")
    runs = sum(len(vals) for modes in collected.values()
               for vals in modes.values())
    clustal, hmmer, raxml = (collected[t]["dettrace"]
                             for t in ("clustal", "hmmer", "raxml"))
    native16 = collected["clustal"]["native"][2]
    claims = [
        ("every run succeeds", "%d/%d" % (succeeded, runs),
         succeeded == runs),
        ("clustal: DetTrace@16 > 0.75 × native@16",
         "%.2f vs %.2f" % (clustal[2], native16),
         clustal[2] > 0.75 * native16),
        ("raxml: DetTrace@1 < 0.5", "%.2f" % raxml[0], raxml[0] < 0.5),
        ("raxml: DetTrace@16 > 2 × DetTrace@1",
         "%.2f vs %.2f" % (raxml[2], raxml[0]), raxml[2] > raxml[0] * 2),
        ("DetTrace@1: clustal > hmmer > raxml",
         "%.2f > %.2f > %.2f" % (clustal[0], hmmer[0], raxml[0]),
         clustal[0] > hmmer[0] > raxml[0]),
        ("native speedup rises from 1 to 4 to 16 processes, every tool",
         "; ".join("%s %s" % (tool, "/".join("%.2f" % v for v in modes["native"]))
                   for tool, modes in collected.items()),
         all(a < b < c for a, b, c in
             (modes["native"] for modes in collected.values()))),
    ]
    return "\n".join(out), claims


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
    rows = {}
    for cfg in (ALEXNET, CIFAR10):
        par = run_parallel_native(cfg, host=host(1))
        ser = run_serial_native(cfg, host=host(2))
        det = run_dettrace(cfg, host=host(3))
        det2 = run_dettrace(cfg, host=host(4, 500.0))
        par2 = run_parallel_native(cfg, host=host(5, 900.0))
        row = rows[cfg.name] = (
            det.wall_time / par.wall_time, det.wall_time / ser.wall_time,
            losses_of(det) == losses_of(det2),
            losses_of(par) == losses_of(par2))
        out.append("| %s | %.2fx (%.2fx) | %.2fx (%.2fx) | %s | %s |" % (
            cfg.name,
            row[0], PAPER_TF[cfg.name]["vs_parallel"],
            row[1], PAPER_TF[cfg.name]["vs_serial"], row[2], row[3]))
    out.append("")

    def count(index):
        return "%d/%d models" % (sum(row[index] for row in rows.values()),
                                 len(rows))

    def each(index):
        return ", ".join("%s %.2fx" % (name, row[index])
                         for name, row in rows.items())

    claims = [
        ("DetTrace losses reproducible across boots, both models",
         count(2), all(row[2] for row in rows.values())),
        ("native losses reproducible across boots, neither model",
         count(3), not any(row[3] for row in rows.values())),
        ("DetTrace vs parallel native > 6.0x, both models",
         each(0), all(row[0] > 6.0 for row in rows.values())),
        ("DetTrace vs serialized native < 2.5x, both models",
         each(1), all(row[1] < 2.5 for row in rows.values())),
        ("alexnet slows more than cifar10 vs parallel native",
         "%.2fx vs %.2fx" % (rows["alexnet"][0], rows["cifar10"][0]),
         rows["alexnet"][0] > rows["cifar10"][0]),
    ]
    return "\n".join(out), claims


def rr_section(scale):
    from repro.analysis import PAPER_RR
    from repro.core import CRASHED, OK
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
        rec, recording = record(package_image(spec), TOOLS["driver"],
                                argv=["dpkg-buildpackage", spec.name],
                                host=first_build_host())
        if rec.status == CRASHED:
            crashes += 1
            continue
        overheads.append(rec.wall_time / base.result.wall_time)
        sizes.append(recording.storage_size())
        if replay(package_image(spec), TOOLS["driver"], recording,
                  argv=["dpkg-buildpackage", spec.name],
                  host=first_build_host(seed=999)).status == OK:
            replays_ok += 1
    o = np.array(overheads)
    out = ["## §7.1.3 — Mozilla rr baseline (%d packages)" % n, ""]
    out.append("| metric | measured | paper |")
    out.append("|---|---|---|")
    out.append("| crashed on unsupported ioctl | %d/%d (%.0f%%) | 46/81 (57%%) |"
               % (crashes, n, 100 * crashes / n))
    out.append("| mean record overhead | %.2fx | %.1fx |"
               % (o.mean(), PAPER_RR["mean_overhead"]))
    out.append("| overhead range | %.1f–%.1fx | %.1f–%.1fx |" % (
        o.min(), o.max(), PAPER_RR["min_overhead"], PAPER_RR["max_overhead"]))
    out.append("| replays completed faithfully | %d/%d | n/a |"
               % (replays_ok, len(overheads)))
    out.append("| mean trace size | %.0f KB | 'much more than source' |"
               % (np.mean(sizes) / 1024))
    out.append("")
    claims = [
        ("crash fraction within 30–85%% (paper %.0f%%)"
         % (100 * PAPER_RR["crash_fraction"]),
         "%d/%d" % (crashes, len(specs)),
         0.3 < crashes / len(specs) < 0.85),
        ("mean record overhead > 2.0x (paper %.1fx)"
         % PAPER_RR["mean_overhead"], "%.2fx" % o.mean(), o.mean() > 2.0),
        ("every completed recording replays faithfully",
         "%d/%d" % (replays_ok, len(overheads)),
         replays_ok == len(overheads)),
        ("every recording stores a non-empty trace",
         "%d B smallest" % min(sizes), min(sizes) > 0),
    ]
    return "\n".join(out), claims


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
    claims = [
        ("every package bitwise identical across machines",
         "%d/%d" % (identical, len(specs)), identical == len(specs)),
        ("the directory-size extension is load-bearing (≥ 1 breaks without it)",
         "%d" % broken, broken >= 1),
    ]
    return "\n".join(out), claims


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
    match = outcome(native) == outcome(det)
    out.append("* match: **%s**" % match)
    out.append("")
    claims = [("native and DetTrace builds report the same test outcome",
               "same" if match else "different", match)]
    return "\n".join(out), claims


#: (name, section function, does it write a figure?).  Figure sections
#: take (scale, figdir); the others take only the scale.  Each returns
#: ``(markdown, [(claim, measured, holds), ...])``.
SECTIONS = [
    ("table1", table1_section, False),
    ("table2", table2_section, False),
    ("fig5", fig5_section, True),
    ("fig6", lambda scale, figdir: fig6_section(figdir), True),
    ("tf", lambda scale: tf_section(), False),
    ("rr", rr_section, False),
    ("portability", portability_section, False),
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


CLAIMS_HEADER = """## Shape claims

The paper's shapes, each checked on the numbers above;
`scripts/run_experiments.py` exits 1 when one does not hold.

| section | claim | measured | holds |
|---|---|---|---|"""


def generate(scale: float = 1.0, out: str = "EXPERIMENTS.md",
             sections=None, quiet: bool = False):
    """Run the evaluation and write *out*, with the figures beside it;
    returns the markdown text and every section's :class:`Claim`."""
    chosen = SECTIONS if sections is None else [
        s for s in SECTIONS if s[0] in sections]
    figdir = os.path.dirname(out) or "."
    parts = [HEADER % scale]
    claims = []
    for name, fn, writes_figure in chosen:
        t0 = time.time()
        if not quiet:
            sys.stderr.write("running %s...\n" % name)
        text, section_claims = fn(scale, figdir) if writes_figure else fn(scale)
        parts.append(text)
        claims += [Claim(name, *claim) for claim in section_claims]
        if not quiet:
            sys.stderr.write("  done in %.1fs\n" % (time.time() - t0))
    parts.append("\n".join([CLAIMS_HEADER] + [
        "| %s | %s | %s | %s |" % (
            c.section, c.claim, c.measured, "yes" if c.holds else "**no**")
        for c in claims] + [""]))
    text = "\n".join(parts)
    with open(out, "w") as fh:
        fh.write(text)
    return text, claims
