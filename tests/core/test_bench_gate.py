"""The one benchmark gate (benchmarks/gate.py): its bounds, its refusal
of records that lack a gated metric, and its CPU pin."""
import itertools
import json
import os

import pytest

from benchmarks import gate
from repro.parallel import effective_host_cores


def record(bench="demo", **gates):
    return {"bench": bench, "gates": gates, "report": {}}


def passes(fresh, baseline=None):
    try:
        gate.check(fresh, baseline)
    except gate.GateFailure:
        return False
    return True


class TestBounds:
    def test_min_holds_at_the_floor(self):
        assert passes(record(speedup={"value": 5.0, "min": 5.0}))
        assert not passes(record(speedup={"value": 4.99, "min": 5.0}))

    def test_max_holds_only_below_the_ceiling(self):
        assert passes(record(ratio={"value": 2.99, "max": 3.0}))
        assert not passes(record(ratio={"value": 3.0, "max": 3.0}))

    def test_higher_is_better_trend(self):
        base = record(rate={"value": 100.0, "better": "higher", "bound": 0.3})
        assert passes(record(rate={"value": 70.1, "better": "higher",
                                   "bound": 0.3}), base)
        assert not passes(record(rate={"value": 69.9, "better": "higher",
                                       "bound": 0.3}), base)

    def test_lower_is_better_trend(self):
        base = record(ms={"value": 10.0, "better": "lower", "bound": 0.4})
        assert passes(record(ms={"value": 13.9, "better": "lower",
                                 "bound": 0.4}), base)
        assert not passes(record(ms={"value": 14.1, "better": "lower",
                                     "bound": 0.4}), base)

    def test_a_trend_needs_a_baseline_to_gate(self):
        # The pytest benches check their floors with no baseline.
        assert passes(record(rate={"value": 1.0, "better": "higher",
                                   "bound": 0.3}))

    def test_every_failing_gate_is_named(self):
        with pytest.raises(gate.GateFailure) as failure:
            gate.check(record(a={"value": 1.0, "min": 2.0},
                              b={"value": 9.0, "max": 3.0},
                              c={"value": 1.0, "min": 0.0}))
        assert "FAIL a:" in str(failure.value)
        assert "FAIL b:" in str(failure.value)
        assert "ok   c:" in str(failure.value)


class TestMissingMetrics:
    TREND = {"value": 50.0, "better": "higher", "bound": 0.3}

    def test_fresh_record_lacking_a_baseline_gate(self):
        with pytest.raises(gate.GateFailure, match="missing from the fresh"):
            gate.check(record(), record(rate=self.TREND))

    def test_baseline_lacking_a_fresh_gate(self):
        with pytest.raises(gate.GateFailure, match="missing from the baseline"):
            gate.check(record(rate=self.TREND), record())

    @pytest.mark.parametrize("value", [0, 0.0, None, "fast"])
    def test_baseline_value_that_cannot_be_compared(self, value):
        baseline = record(rate=dict(self.TREND, value=value))
        with pytest.raises(gate.GateFailure, match="baseline value"):
            gate.check(record(rate=self.TREND), baseline)

    @pytest.mark.parametrize("value", [None, True, "2.0"])
    def test_fresh_value_that_is_not_a_number(self, value):
        with pytest.raises(gate.GateFailure, match="not a number"):
            gate.check(record(ratio={"value": value, "max": 3.0}))

    def test_record_of_another_schema(self):
        old = {"serviced": {"serviced_syscalls_per_s": 17014.0}}
        with pytest.raises(gate.GateFailure, match="no gates"):
            gate.check(record(rate=self.TREND), old)
        with pytest.raises(gate.GateFailure, match="no gates"):
            gate.check(old)

    def test_baseline_of_another_bench(self):
        with pytest.raises(gate.GateFailure, match="bench"):
            gate.check(record("ckpt", rate=self.TREND),
                       record("cache", rate=self.TREND))


def test_cli_exit_status(tmp_path, capsys):
    def path(name, rec):
        target = tmp_path / name
        target.write_text(json.dumps(rec))
        return str(target)

    base = path("base.json", record(rate={"value": 100.0, "better": "higher",
                                          "bound": 0.3}))
    good = path("good.json", record(rate={"value": 90.0, "better": "higher",
                                          "bound": 0.3}))
    bad = path("bad.json", record(rate={"value": 60.0, "better": "higher",
                                        "bound": 0.3}))
    assert gate.main([good, base]) == 0
    assert gate.main([bad, base]) == 1
    assert "FAIL rate" in capsys.readouterr().out


class TestTiming:
    def test_time_is_read_at_the_reference_speed(self, monkeypatch):
        # Probes of 2 ms and 4 ms around the call: the host ran at half
        # the reference speed (1.5 ms), so 0.2 s reads as 0.1 s.
        probes = iter([2 * gate.harness.REFERENCE_PROBE_S / 1.5,
                       4 * gate.harness.REFERENCE_PROBE_S / 1.5])
        clock = itertools.count(10.0, 0.2)
        monkeypatch.setattr(gate.harness, "loop_seconds",
                            lambda iterations: next(probes))
        monkeypatch.setattr(gate.time, "perf_counter", lambda: next(clock))
        result, seconds = gate.timed(lambda x: x + 1, 41)
        assert result == 42
        assert seconds == pytest.approx(0.1)

    def test_sides_run_round_by_round(self):
        calls = []
        runs = gate.interleave({
            "a": lambda r: calls.append(("a", r)) or r,
            "b": lambda r: calls.append(("b", r)) or -r,
        }, 3)
        assert calls == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                         ("a", 2), ("b", 2)]
        assert [result for result, _ in runs["b"]] == [0, -1, -2]
        assert all(seconds > 0 for _, seconds in runs["a"] + runs["b"])

    def test_ratio_is_the_median_per_round_ratio(self):
        runs = {"num": [(None, 2.0), (None, 40.0), (None, 9.0)],
                "den": [(None, 1.0), (None, 10.0), (None, 1.0)]}
        assert gate.median_ratio(runs, "num", "den") == 4.0
        assert gate.seconds(runs["num"]) == 9.0


class TestPin:
    def test_pin_restores_the_callers_cpu_mask(self):
        before = os.sched_getaffinity(0)
        with gate.pinned():
            assert len(os.sched_getaffinity(0)) == 1
        assert os.sched_getaffinity(0) == before
        assert effective_host_cores() == len(before)

    def test_pin_restores_the_mask_when_the_block_raises(self):
        before = os.sched_getaffinity(0)
        with pytest.raises(RuntimeError):
            with gate.pinned():
                raise RuntimeError("bench failed")
        assert os.sched_getaffinity(0) == before

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="fan-out falls back to serial on one CPU")
    def test_fanout_after_a_pinned_bench_keeps_its_workers(self):
        from benchmarks.bench_hotpath import bench_fanout

        with gate.pinned():
            pass
        fan = bench_fanout(sample=2, jobs=2)
        assert fan["host_cores"] == len(os.sched_getaffinity(0))
        assert fan["fallback"] is None
