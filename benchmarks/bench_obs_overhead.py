"""Observability overhead: obs-on vs obs-off host wall time.

The observer-effect invariant (tests/obs) guarantees the event stream
never changes *virtual* behaviour — same output hashes, same schedules.
This bench quantifies what observability costs in *host* time: each
package of the sample is built with ``observe=False`` and then with
``observe=True``, round by round through :mod:`benchmarks.gate`, and the
median per-package ratio is gated below 3x.

The diagnosis plane rides the same budget: a run-pair diff
(``diff_captures``) and a checkpoint bisection over the known-leak
harness are timed as well, and the diff, pure alignment with no reruns,
must cost less than the bisection.
"""
import os

import pytest

from repro.core import ContainerConfig
from repro.diag import bisect_divergence, content_leak_pair, diff_captures
from repro.repro_tools import first_build_host
from repro.repro_tools.hashing import tree_digest
from repro.workloads.debian import build_dettrace, generate_population

from . import gate
from .conftest import scaled

SAMPLE = scaled(12)
#: Rounds of the diff-vs-bisect comparison.
DIAG_ROUNDS = 3
OUT_PATH = os.path.join(gate.ROOT, "BENCH_obs_overhead.json")


def measure_obs_overhead():
    specs = [s for s in generate_population(SAMPLE * 2, seed=21)
             if not s.expect_dt_unsupported and not s.syscall_storm][:SAMPLE]

    def build(observe):
        return lambda r: build_dettrace(
            specs[r], config=ContainerConfig(observe=observe),
            host=first_build_host())

    runs = gate.interleave({"off": build(False), "on": build(True)},
                           len(specs))
    built = [(off, on) for (off, _), (on, _) in zip(runs["off"], runs["on"])
             if off.status == "built" and on.status == "built"]
    for off, on in built:
        # The observer effect must be nil: identical trees either way.
        assert (tree_digest(off.result.output_tree)
                == tree_digest(on.result.output_tree))
    return {
        "packages": len(built),
        "obs_off_wall_s": round(sum(t for _, t in runs["off"]), 6),
        "obs_on_wall_s": round(sum(t for _, t in runs["on"]), 6),
        "overhead_ratio": round(gate.median_ratio(runs, "on", "off"), 4),
        "trace_events": sum(len(on.result.trace) for _, on in built
                            if on.result.trace is not None),
    }


def measure_diag_cost():
    """Host cost of the diagnosis plane on the known-leak harness."""
    spec_a, spec_b = content_leak_pair()
    cap_a, cap_b = spec_a.capture(), spec_b.capture()
    runs = gate.interleave({
        "diff": lambda _round: diff_captures(cap_a, cap_b),
        "bisect": lambda _round: bisect_divergence(*content_leak_pair(),
                                                   coarse=16),
    }, DIAG_ROUNDS)
    for (report, _), (result, _) in zip(runs["diff"], runs["bisect"]):
        assert report.diverged
        assert result.diverged and result.hi - result.lo == 1
    return {
        "diff_wall_s": round(gate.seconds(runs["diff"]), 6),
        "bisect_wall_s": round(gate.seconds(runs["bisect"]), 6),
        "diff_vs_bisect": round(gate.median_ratio(runs, "diff", "bisect"), 6),
        "bisect_probes": runs["bisect"][0][0].probes,
    }


@pytest.mark.obs
def test_obs_overhead(capsys):
    with gate.pinned():
        report = measure_obs_overhead()
        report.update(measure_diag_cost())
    record = gate.write(OUT_PATH, "obs_overhead", {
        # Collecting the stream should stay cheap relative to the run.
        "overhead_ratio": {"value": report["overhead_ratio"], "max": 3.0},
        # Diffing an already-captured pair is pure alignment — no reruns.
        "diff_vs_bisect": {"value": report["diff_vs_bisect"], "max": 1.0},
    }, report)
    with capsys.disabled():
        print()
        print("obs overhead: %d packages, off %.3fs vs on %.3fs "
              "(ratio %.2fx, %d trace events) -> %s"
              % (report["packages"], report["obs_off_wall_s"],
                 report["obs_on_wall_s"], report["overhead_ratio"],
                 report["trace_events"], os.path.basename(OUT_PATH)))
        print("diag cost: diff %.4fs, bisect %.3fs (%d probes)"
              % (report["diff_wall_s"], report["bisect_wall_s"],
                 report["bisect_probes"]))
    assert report["packages"] >= SAMPLE * 0.8
    assert report["trace_events"] > 0
    gate.check(record)
