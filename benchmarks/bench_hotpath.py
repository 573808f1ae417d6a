"""Hot-path engine throughput: scheduler, dispatch caches, fan-out.

Wraps :mod:`repro.hotpath` as a pytest bench (``pytest -m perf``),
emitting ``BENCH_hotpath.json`` at the repo root for trend tracking
(the ``perf`` stage of scripts/check.sh gates on it).

The determinism contract is asserted, not sampled: the O(log n)
scheduler must produce the *identical* decision sequence as the
``logical-ref`` oracle, and the parallel fan-out must produce
byte-identical per-run digests versus the serial sweep.  The fan-out
speedup depends on the host (its core count, and whatever else shares
those cores), so it is recorded in the report and never asserted.
"""
import json
import os

import pytest

from repro.hotpath import format_report, run_hotpath_bench

from .conftest import SCALE

OUT_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "BENCH_hotpath.json")


@pytest.mark.perf
def test_hotpath(capsys):
    report = run_hotpath_bench(scale=SCALE, out_path=OUT_PATH)
    with capsys.disabled():
        print()
        print(format_report(report))
        print("-> %s" % os.path.basename(OUT_PATH))

    sched = report["scheduler"]
    served = report["serviced"]
    fan = report["fanout"]

    # Identity first: speed never at the cost of the schedule.
    assert sched["orders_identical"] is True
    assert fan["digests_identical"] is True

    # The heap scheduler must beat the quadratic reference decisively
    # at 16 threads (acceptance: >= 5x decision throughput).
    assert sched["threads"] == 16
    assert sched["speedup"] >= 5.0

    # End-to-end throughput sanity: the sample built and was serviced.
    assert served["packages"] >= 2
    assert served["serviced_syscalls_per_s"] > 0
    assert served["resolve_hit_rate"] is not None

    # The fan-out speedup is a property of the host, not of the code:
    # it stays in the report and is not asserted.


def regression_check(baseline_path: str, current_path: str = OUT_PATH,
                     tolerance: float = 0.30) -> str:
    """Compare serviced-syscalls/sec against a committed baseline.

    Returns a human-readable verdict line; raises ``SystemExit`` when
    throughput regressed more than *tolerance* (scripts/check.sh perf
    stage calls this).  Scheduler decision throughput is reported but
    not gated here — it is asserted against its own 5x floor above.
    """
    with open(baseline_path) as fh:
        base = json.load(fh)
    with open(current_path) as fh:
        cur = json.load(fh)
    old = base["serviced"]["serviced_syscalls_per_s"]
    new = cur["serviced"]["serviced_syscalls_per_s"]
    ratio = new / old if old else 1.0
    line = ("serviced syscalls/s: baseline %.0f -> current %.0f (%.2fx)"
            % (old, new, ratio))
    if ratio < 1.0 - tolerance:
        raise SystemExit("perf regression: %s exceeds the %d%% budget"
                         % (line, int(tolerance * 100)))
    return line


if __name__ == "__main__":
    import sys

    print(regression_check(sys.argv[1]))
