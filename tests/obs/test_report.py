"""Rendering tests for repro.obs.report (the --metrics / `repro obs`
text output)."""

import pytest

from repro.obs.metrics import Metrics
from repro.obs.report import (
    format_dispositions,
    format_metrics,
    format_profile,
    format_table2_summary,
)

pytestmark = pytest.mark.obs


def _metrics(syscall_events=12, **overrides):
    m = Metrics(
        counters={
            "syscall/read/passthrough": 4,
            "syscall/write/rewritten": 2,
            "syscall/open/skipped": 6,
            "fault/eio": 1,
            "tracer/syscall_events": syscall_events,
            "tracer/read_retries": 1,
        },
        gauges={"sched/blocked_peak": 2.0},
        profile={"interception": 1e-3, "handler": 3e-3,
                 "scheduler": 0.5e-3, "fs": 0.5e-3},
    )
    for key, value in overrides.items():
        setattr(m, key, value)
    return m


class TestTable2Summary:
    def test_single_run_shows_counts(self):
        text = format_table2_summary(_metrics())
        assert "Table 2 rows, 1 run)" in text
        assert "count" in text
        assert "System call events" in text
        assert "12.00" in text

    def test_aggregate_shows_per_run_averages(self):
        m = _metrics()
        m.add(_metrics(syscall_events=6))
        text = format_table2_summary(m)
        assert "2 runs" in text
        assert "avg/run" in text
        assert "9.00" in text  # (12 + 6) / 2


class TestDispositions:
    def test_partition_and_top_list(self):
        text = format_dispositions(_metrics())
        assert "passthrough  4" in text
        assert "rewritten    2" in text
        assert "skipped      6" in text
        assert "open (skipped)" in text

    def test_limit_caps_top_list(self):
        counters = {"syscall/s%02d/passthrough" % i: 1 for i in range(20)}
        text = format_dispositions(_metrics(counters=counters), limit=3)
        assert text.count("passthrough)") == 3


class TestProfile:
    def test_shares_sum_to_hundred_percent(self):
        text = format_profile(_metrics())
        assert "handler" in text
        assert "60.0%" in text  # 3e-3 of 5e-3 total
        assert "3.000 ms" in text


class TestFullReport:
    def test_all_sections_present(self):
        text = format_metrics(_metrics())
        assert "Determinization events" in text
        assert "Syscall dispositions" in text
        assert "Fault injections" in text
        assert "eio" in text
        assert "Virtual-time overhead attribution" in text
        assert "Peak gauges" in text

    def test_fault_section_omitted_when_no_faults(self):
        m = _metrics(counters={"syscall/read/passthrough": 1})
        assert "Fault injections" not in format_metrics(m)

    def test_report_is_deterministic(self):
        assert format_metrics(_metrics()) == format_metrics(_metrics())
