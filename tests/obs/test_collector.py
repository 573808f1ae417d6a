"""Unit tests for the repro.obs primitives: events, collector, profiler,
trace log, and metrics accumulation."""

import json

import pytest

from repro.obs.collector import Collector, _bucket
from repro.obs.events import DEBUG, SYSCALL, TRAP, NO_VTS, ObsEvent
from repro.obs.metrics import Metrics
from repro.obs.profiler import FS, HANDLER, INTERCEPTION, PHASES, SCHEDULER, PhaseProfile
from repro.obs.trace import Span, TraceLog, _us

pytestmark = pytest.mark.obs


class TestObsEvent:
    def test_tuple_compatibility(self):
        """Legacy consumers index events like (nspid, index, name)."""
        ev = ObsEvent(vts=1.5, pid=7, index=3, kind=SYSCALL, name="read")
        assert ev[0] == 7
        assert ev[1] == 3
        assert ev[2] == "read"
        nspid, index, name = ev
        assert (nspid, index, name) == (7, 3, "read")
        assert list(ev) == [7, 3, "read"]

    def test_coord_and_dict_round_trip(self):
        ev = ObsEvent(vts=2.0, pid=1, index=9, kind=TRAP, name="rdtsc",
                      detail="trap rdtsc")
        assert ev.coord == (1, 9, "rdtsc")
        assert ObsEvent.from_dict(ev.to_dict()) == ev

    def test_frozen(self):
        ev = ObsEvent(vts=0.0, pid=1, index=0, kind=SYSCALL, name="read")
        with pytest.raises(Exception):
            ev.pid = 2


class TestCollector:
    def test_counters_accumulate_on_tuple_keys(self):
        c = Collector()
        c.count(("syscall", "read", "passthrough"))
        c.count(("syscall", "read", "passthrough"), 2)
        c.count("loose")
        assert c.counters[("syscall", "read", "passthrough")] == 3
        assert c.counters[("loose",)] == 1

    def test_gauge_tracks_peak_only(self):
        c = Collector()
        c.gauge_max("g", 3)
        c.gauge_max("g", 1)
        c.gauge_max("g", 7)
        assert c.gauges["g"] == 7

    def test_histogram_buckets_are_power_of_two(self):
        assert _bucket(0) == 0
        assert _bucket(1) == 0
        assert _bucket(2) == 1
        assert _bucket(3) == 2
        assert _bucket(1024) == 10
        c = Collector()
        for v in (0, 1, 3, 3, 1000):
            c.observe("h", v)
        assert c.histograms["h"] == {0: 2, 2: 2, 10: 1}

    def test_event_stream_gated_by_trace_flag(self):
        ev = ObsEvent(vts=0.0, pid=1, index=0, kind=SYSCALL, name="read")
        span = Span(name="read", cat="rewritten", pid=1, tid=0, vts=0.0,
                    dur=1e-6, index=0)
        off = Collector(trace=False)
        off.record(ev)
        off.span(span)
        assert off.events == [] and off.spans == []
        on = Collector(trace=True)
        on.record(ev)
        on.span(span)
        assert on.events == [ev] and on.spans == [span]

    def test_debug_gated_by_level_and_renders_legacy_lines(self):
        ev = ObsEvent(vts=0.0, pid=4, index=1, kind=DEBUG, name="read",
                      detail="read(fd=3) -> value b'x'")
        c = Collector(debug=0)
        c.debug(1, ev)
        assert c.render_debug() == []
        c = Collector(debug=1)
        c.debug(1, ev)
        c.debug(2, ev)  # below threshold: dropped
        assert c.render_debug() == ["[pid 4] read(fd=3) -> value b'x'"]

    def test_aggregates_always_on_even_without_trace(self):
        c = Collector(trace=False)
        c.count(("trap", "rdtsc"))
        c.charge(HANDLER, 1e-6)
        assert c.counters[("trap", "rdtsc")] == 1
        assert c.profile.total() == pytest.approx(1e-6)

    def test_tail_events_bounded(self):
        c = Collector(trace=True)
        for i in range(40):
            c.record(ObsEvent(vts=float(i), pid=1, index=i, kind=SYSCALL,
                              name="s%d" % i))
        tail = c.tail_events(8)
        assert len(tail) == 8
        assert tail[-1].name == "s39"


class TestPhaseProfile:
    def test_phases_are_the_documented_four(self):
        assert PHASES == (INTERCEPTION, HANDLER, SCHEDULER, FS)

    def test_charge_breakdown_fractions_sum_to_one(self):
        p = PhaseProfile()
        p.charge(INTERCEPTION, 1.0)
        p.charge(HANDLER, 2.0)
        p.charge(HANDLER, 1.0)
        assert p.total() == pytest.approx(4.0)
        rows = dict((phase, frac) for phase, _, frac in p.breakdown())
        assert rows[HANDLER] == pytest.approx(0.75)
        assert sum(frac for _, _, frac in p.breakdown()) == pytest.approx(1.0)

    def test_extra_phase_reported_after_the_documented_four(self):
        p = PhaseProfile()
        p.charge(HANDLER, 1.0)
        p.charge("extra", 1.0)
        assert [row[0] for row in p.breakdown()] == list(PHASES) + ["extra"]


class TestTraceLog:
    def _span(self, **kw):
        base = dict(name="read", cat="rewritten", pid=1, tid=0, vts=1e-6,
                    dur=2e-6, index=0, attempt=1)
        base.update(kw)
        return Span(**base)

    def test_microsecond_conversion(self):
        assert _us(1.5e-6) == 1.5
        assert _us(0.0) == 0.0

    def test_chrome_records_sorted_canonically(self):
        """Append order must not matter: untraced syscalls append in
        jittered simulated-wall order, so to_chrome sorts."""
        spans = [self._span(vts=3e-6, name="b"), self._span(vts=1e-6, name="a")]
        ev = ObsEvent(vts=2e-6, pid=1, index=5, kind=SYSCALL, name="m")
        fwd = TraceLog([ev], list(spans)).to_json()
        rev = TraceLog([ev], list(reversed(spans))).to_json()
        assert fwd == rev
        names = [r["name"] for r in
                 TraceLog([ev], spans).to_chrome()["traceEvents"]]
        assert names == ["a", "syscall:m", "b"]

    def test_json_is_canonical_and_parseable(self):
        log = TraceLog([], [self._span()])
        text = log.to_json()
        assert json.loads(text)["traceEvents"][0]["ph"] == "X"
        assert text == TraceLog([], [self._span()]).to_json()

    def test_write_is_byte_stable(self, tmp_path):
        log = TraceLog([], [self._span()])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        log.write(str(p1))
        log.write(str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestMetrics:
    def _snapshot(self):
        c = Collector()
        c.count(("syscall", "read", "passthrough"), 2)
        c.count(("kernel", "syscall", "read"), 2)
        c.count(("tracer", "memory_writes"), 5)
        c.count(("fault", "eio"), 1)
        c.gauge_max("sched/blocked_peak", 3)
        c.observe("sched/blocked", 2)
        c.charge(SCHEDULER, 4e-6)
        return Metrics.from_run(c)

    def test_from_run_flattens_counters(self):
        m = self._snapshot()
        assert m.counters["syscall/read/passthrough"] == 2
        # Every key outside kernel/, tracer/ included; nothing synthetic.
        assert m.counters == {"syscall/read/passthrough": 2,
                              "tracer/memory_writes": 5, "fault/eio": 1}
        assert m.syscalls_by_name == {"read": 2}
        assert m.gauges["sched/blocked_peak"] == 3
        assert m.histograms["sched/blocked"] == {"<=2": 1}
        assert m.profile[SCHEDULER] == pytest.approx(4e-6)
        assert m.runs == 1

    def test_add_sums_counts_and_maxes_gauges(self):
        a, b = self._snapshot(), self._snapshot()
        b.gauges["sched/blocked_peak"] = 9
        a.add(b)
        assert a.runs == 2
        assert a.counters["syscall/read/passthrough"] == 4
        assert a.gauges["sched/blocked_peak"] == 9
        assert a.profile[SCHEDULER] == pytest.approx(8e-6)

    def test_table2_averages_divide_by_runs(self):
        a, b = self._snapshot(), self._snapshot()
        a.counters["tracer/syscall_events"] = 10
        b.counters["tracer/syscall_events"] = 20
        a.add(b)
        assert a.table2_averages()["System call events"] == pytest.approx(15.0)

    def test_to_dict_is_json_serializable(self):
        text = json.dumps(self._snapshot().to_dict(), sort_keys=True)
        assert "syscall/read/passthrough" in text


def test_no_vts_sentinel():
    assert NO_VTS == -1.0
