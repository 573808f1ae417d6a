"""Tests of the benchmark itself.  Run from the root of a checkout::

    python3 -m pytest perfbench/test_harness.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import run

harness.use_checkout_src()

import workloads  # noqa: E402  (needs the checkout's src/ on the path)

SPEC = run.load_spec()


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# -- statistics ---------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert sum(v > harness.percentile(values, 90) for v in values) == 10
    assert harness.percentile([7.5], 90) == 7.5
    assert harness.percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_self_time_subtracts_child_spans():
    now = [0.0]
    profile = harness.LayerProfile(clock=lambda: now[0])

    def advance(seconds):
        now[0] += seconds

    leaf = profile.wrap("fs", lambda: advance(2.0))

    def middle():
        advance(1.0)
        leaf()
        leaf()
        advance(0.5)

    def failing():
        advance(0.25)
        raise KeyError("x")

    def top():
        advance(3.0)
        profile.wrap("syscalls", middle)()
        with pytest.raises(KeyError):
            profile.wrap("handlers", failing)()

    profile.wrap("kernel", top)()
    assert dict(profile.self_s) == {"fs": 4.0, "syscalls": 1.5,
                                    "handlers": 0.25, "kernel": 3.0}
    assert dict(profile.calls) == {"fs": 2, "syscalls": 1, "handlers": 1,
                                   "kernel": 1}
    assert profile.current == "harness"  # every span closed, even on raise


def test_harness_share_is_op_time_not_covered_by_layers():
    profile = harness.LayerProfile()
    profile.self_s.update({"kernel": 6.0, "tracer": 3.0})
    profile.calls.update({"kernel": 2, "tracer": 30})
    loop = harness.Loop()
    loop.raw = [5.0, 5.0]
    loop.times = [10.0, 10.0]  # the host ran at half the reference speed
    untraced = harness.Loop()
    untraced.times = [8.0, 8.0]
    metrics = harness.per_layer(profile, loop, untraced)
    assert metrics["harness.share"] == pytest.approx(0.1)
    assert metrics["harness.coverage"] == pytest.approx(0.9)
    assert metrics["kernel.share"] == pytest.approx(0.6)
    assert metrics["kernel.self_ms"] == pytest.approx(6000.0)
    assert metrics["tracer.calls"] == 15
    assert metrics["tracer.us_per_call"] == pytest.approx(2e5)
    assert metrics["harness.tracing_overhead"] == pytest.approx(1.25)
    assert set(metrics) == set(_units("per_layer"))


# -- workloads, in process ----------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_ops_repeat_untraced_ops(name, tmp_path):
    from repro.core.container import DetTrace
    from repro.core.tracer import DetTraceTracer

    before = (DetTrace.run, DetTraceTracer.on_trace_stop, os.fsync)
    workload = harness.start(name, 3, str(tmp_path))
    untraced = harness.run_ops(workload, count=3)
    workload.reset()
    with harness.traced(harness.LayerProfile()) as profile:
        traced = harness.run_ops(workload, count=3)
    assert (DetTrace.run, DetTraceTracer.on_trace_stop, os.fsync) == before
    assert untraced.failed == traced.failed == 0
    assert traced.digests == untraced.digests
    assert profile.calls["container"] >= 3
    metrics = harness.per_layer(profile, traced, untraced)
    assert metrics["harness.coverage"] > 0.8


def test_corrupted_reference_counts_as_failure(tmp_path):
    workload = harness.start("bioinf-raxml", 0, str(tmp_path))
    workload.reference = "0" * 64
    result = harness.measure(workload, seconds=0.2, trace=False)
    assert result["failed"] == result["attempted"] > 0
    assert result["correct"] is False


def test_failed_ops_give_nonzero_exit(monkeypatch, capsys):
    metrics = {name: 1.0 for name in _units("end_to_end")}
    child = {"correct": False, "attempted": 4, "failed": 1, "metrics": metrics,
             "samples": 4, "calibration_ops_per_s": 1.0}
    monkeypatch.setattr(run, "_start", lambda *args: (0.5, child))
    code = run.main(["--workload", "pkg-sweep", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 4, 1)


# -- the command line ---------------------------------------------------------

def _run(args, cwd=harness.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_by_name_and_unit(trace, tmp_path):
    out = tmp_path / "result.json"
    proc = _run(["--seed", "1", "--seconds", "0.3", "--trace", trace,
                 "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        results = json.load(fh)["workloads"]
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    expected = _units("per_layer" if trace == "1" else "end_to_end")
    for result in results.values():
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == expected


def test_single_workload_prints_the_result_object_last():
    proc = _run(["--workload", "cache-mixed", "--seed", "2", "--seconds",
                 "0.3", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["metrics"]["setup_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(harness.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "pkg-sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _result_file(path, runs_per_s, failed=0):
    metrics = {"runs_per_s": {"value": runs_per_s, "unit": "1/s"},
               "run_p50_ms": {"value": 10.0, "unit": "ms"}}
    with open(path, "w") as fh:
        json.dump({"workloads": {"pkg-sweep": {
            "correct": not failed, "attempted": 100, "failed": failed,
            "metrics": metrics}}}, fh)
    return str(path)


def test_compare_flags_changes_beyond_the_bound(tmp_path):
    base = _result_file(tmp_path / "a.json", 100.0)
    assert _run(["compare", base, _result_file(tmp_path / "b.json", 95.0)]
                ).returncode == 0
    assert _run(["compare", base, _result_file(tmp_path / "c.json", 80.0)]
                ).returncode == 1
    assert _run(["compare", base, _result_file(tmp_path / "d.json", 100.0, 1)]
                ).returncode == 1
