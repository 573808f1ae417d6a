"""Checkpoint cost: snapshot overhead vs barrier interval, full vs delta.

Three claims get numbers here.  First, snapshotting is pay-as-you-go:
the wall-time overhead scales with barrier frequency, and every
interval/mode still produces the byte-identical output tree
(checkpointing must never perturb the run it protects).  Second,
dirty-tracked delta snapshots make dense checkpointing affordable: each
interval is measured in ``full`` mode (``full_every=1``, every snapshot
a complete image) and ``delta`` mode (``full_every=16``, dirty-set
deltas chained on periodic fulls), and at the densest interval the
delta journal must stay under 40% of the full journal's bytes (a
deterministic ratio) and its wall overhead under 3x.  Third, the
disabled path is free: with ``ContainerConfig.checkpoint`` unset the
kernel only ever evaluates an ``is not None`` guard, so disabled
throughput is trend-gated by ``check.sh ckpt`` against the committed
``BENCH_ckpt.json``.

Every case runs once per round, round by round, timed through
:mod:`benchmarks.gate`; an overhead ratio is the median over rounds of
the case's time over the disabled run's time in the same round.
"""
import os
import shutil
import tempfile

import pytest

from repro.ckpt import scan
from repro.core import ContainerConfig, DetTrace, Image
from repro.core.config import CheckpointConfig
from repro.cpu.machine import HostEnvironment
from repro.repro_tools.hashing import tree_digest

from . import gate
from .conftest import scaled

ROUNDS = scaled(5)
INTERVALS = (200, 50, 10)
#: (row label, CheckpointConfig.full_every): every snapshot a complete
#: image vs dirty-set deltas chained on periodic fulls.  The delta row
#: uses a longer chain than the config default (16 vs 4): dense
#: checkpointing is exactly the regime where amortizing the full-image
#: cost (capture + fsync durability barrier) over more deltas pays, and
#: the row records its cadence.
MODES = (("full", 1), ("delta", 16))
OUT_PATH = os.path.join(gate.ROOT, "BENCH_ckpt.json")


def _child(sys_):
    yield from sys_.write_file("child.txt", b"from child\n")
    return 0


def _workload(sys_):
    yield from sys_.mkdir_p("out")
    for i in range(120):
        yield from sys_.write_file("out/f%d.txt" % i, b"x" * (10 + i))
    for i in range(0, 120, 7):
        data = yield from sys_.read_file("out/f%d.txt" % i)
        yield from sys_.write_file("out/c%d.bin" % i, data)
    names = yield from sys_.listdir("out")
    yield from sys_.println("%d entries" % len(names))
    res = yield from sys_.run("/bin/child")
    yield from sys_.println("child exit %d" % res.status)
    return 0


def _image() -> Image:
    image = Image()
    image.add_binary("/bin/main", _workload)
    image.add_binary("/bin/child", _child)
    return image


def _run(cfg: ContainerConfig):
    return DetTrace(cfg).run(_image(), "/bin/main",
                             host=HostEnvironment(entropy_seed=7))


def _journal_shape(directory):
    """The (deterministic) journal one checkpointed run left behind."""
    infos = scan(directory)
    return {
        "snapshots": len(infos),
        "journal_bytes": sum(i.payload_len for i in infos),
        "full_snapshots": sum(i.snapshot_kind == "full" for i in infos),
        "delta_snapshots": sum(i.snapshot_kind == "delta" for i in infos),
    }


def measure_ckpt_cost(work):
    """Time every case ROUNDS times, round by round, each checkpointed
    run journaling into its own directory under *work*."""
    def case(every, full_every):
        if every is None:
            return lambda _round: _run(ContainerConfig())

        def side(r):
            return _run(ContainerConfig(checkpoint=CheckpointConfig(
                directory=os.path.join(work, "%d-%d-%d" % (every, full_every, r)),
                every=every, keep=0, full_every=full_every)))
        return side

    sides = {"disabled": case(None, 1)}
    for every in INTERVALS:
        for mode, full_every in MODES:
            sides["%d/%s" % (every, mode)] = case(every, full_every)
    runs = gate.interleave(sides, ROUNDS)
    digests = set()
    for side_runs in runs.values():
        for result, _ in side_runs:
            assert result.exit_code == 0, (result.status, result.error)
            digests.add(tree_digest(result.output_tree))
    assert len(digests) == 1, "checkpointing perturbed the output tree"

    disabled = gate.seconds(runs["disabled"])
    intervals = {}
    for every in INTERVALS:
        cell = {}
        for mode, full_every in MODES:
            side = "%d/%s" % (every, mode)
            row = _journal_shape(os.path.join(
                work, "%d-%d-0" % (every, full_every)))
            row.update(full_every=full_every,
                       wall_s=round(gate.seconds(runs[side]), 6),
                       overhead_ratio=round(
                           gate.median_ratio(runs, side, "disabled"), 4))
            cell[mode] = row
        cell["delta"]["journal_vs_full"] = round(
            cell["delta"]["journal_bytes"] / cell["full"]["journal_bytes"], 4)
        intervals[str(every)] = cell
    syscalls = runs["disabled"][0][0].syscall_count
    return {
        "rounds": ROUNDS,
        "workload_syscalls": syscalls,
        "disabled_wall_s": round(disabled, 6),
        "disabled_syscalls_per_s": round(syscalls / disabled, 1),
        "intervals": intervals,
    }


@pytest.mark.ckpt
def test_ckpt_overhead(capsys):
    work = tempfile.mkdtemp(prefix="bench-ckpt-", dir=gate.TMPFS)
    try:
        with gate.pinned():
            report = measure_ckpt_cost(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sparse = report["intervals"][str(max(INTERVALS))]
    dense = report["intervals"][str(min(INTERVALS))]
    record = gate.write(OUT_PATH, "ckpt", {
        # Sparse checkpointing must stay cheap (measured ~1.2x); the
        # densest interval in full mode is a stress case, reported only.
        "sparse_full_overhead": {
            "value": sparse["full"]["overhead_ratio"], "max": 3.0},
        # The delta-compression contract: at the densest interval the
        # delta journal carries < 40% of the full journal's bytes, and
        # the wall overhead stays below the 3x line full mode crosses.
        "dense_delta_overhead": {
            "value": dense["delta"]["overhead_ratio"], "max": 3.0},
        "dense_journal_vs_full": {
            "value": dense["delta"]["journal_vs_full"], "max": 0.40},
        # Checkpointing off costs nothing: a trend, with a wide bound to
        # catch gross mistakes (tape recording with checkpointing off
        # is a 2x+ hit), not single-digit drift.
        "disabled_syscalls_per_s": {
            "value": report["disabled_syscalls_per_s"],
            "better": "higher", "bound": 0.40},
    }, report)
    with capsys.disabled():
        print()
        print("ckpt: disabled %.1f syscalls/s (%.3fs)"
              % (report["disabled_syscalls_per_s"],
                 report["disabled_wall_s"]))
        for every in sorted(report["intervals"], key=int):
            for mode, _ in MODES:
                row = report["intervals"][every][mode]
                print("  every %4s %-5s: %.2fx wall, %d snapshots "
                      "(%d full + %d delta), %d KiB journal"
                      % (every, mode, row["overhead_ratio"],
                         row["snapshots"], row["full_snapshots"],
                         row["delta_snapshots"],
                         row["journal_bytes"] // 1024))
        print("-> %s" % os.path.basename(OUT_PATH))
    for every, cell in report["intervals"].items():
        for mode, _ in MODES:
            assert cell[mode]["snapshots"] > 0, \
                "interval %s/%s never snapshotted" % (every, mode)
        assert cell["full"]["delta_snapshots"] == 0
        assert cell["delta"]["delta_snapshots"] > 0, \
            "interval %s delta mode wrote no deltas" % every
    gate.check(record)
