"""Trace alignment and capture diffing against synthetic records: the
classification rules, precedence order, and context windows."""

import pytest

from repro.diag import (
    CONTEXT_WINDOW,
    DivergenceReport,
    align_records,
    diff_captures,
    diff_trees,
    record_key,
)
from repro.diag.align import RunCapture

pytestmark = pytest.mark.diag


def span(ts, name="write", pid=1, tid=0, index=0, dur=13.0, cat="rewritten",
         attempt=1):
    return {"ph": "X", "name": name, "cat": cat, "pid": pid, "tid": tid,
            "ts": ts, "dur": dur, "args": {"index": index,
                                           "attempt": attempt}}


def stream(n, start_index=0):
    return [span(15.0 * (i + 1), index=start_index + i) for i in range(n)]


class TestAlignRecords:
    def test_identical_streams_report_none(self):
        assert align_records(stream(10), stream(10)) is None

    def test_empty_streams_report_none(self):
        assert align_records([], []) is None

    def test_same_key_different_payload_is_syscall_result(self):
        a, b = stream(5), stream(5)
        b[2] = dict(b[2], dur=99.0)
        report = align_records(a, b)
        assert report.classification == "syscall-result"
        assert report.position == 2
        assert report.vts == pytest.approx(a[2]["ts"] / 1e6)
        assert report.divergent["a"]["dur"] == 13.0
        assert report.divergent["b"]["dur"] == 99.0

    def test_different_key_is_schedule(self):
        a, b = stream(5), stream(5)
        b[3] = dict(b[3], name="open")
        report = align_records(a, b)
        assert report.classification == "schedule"
        assert report.position == 3

    def test_truncated_tail_is_schedule(self):
        a = stream(8)
        report = align_records(a, a[:5], labels=("long", "short"))
        assert report.classification == "schedule"
        assert report.position == 5
        assert report.divergent["a"] == a[5]
        assert report.divergent["b"] is None
        assert "long" in report.summary

    def test_context_window_is_bounded_and_pre_divergence(self):
        a, b = stream(40), stream(40)
        b[30] = dict(b[30], dur=1.0)
        report = align_records(a, b, context=4)
        assert len(report.context["a"]) == 4
        assert report.context["a"] == a[26:30]
        # Default window matches the shared EventRing default.
        wide = align_records(a, b)
        assert len(wide.context["a"]) == CONTEXT_WINDOW

    def test_record_key_ignores_payload_fields(self):
        rec = span(15.0)
        assert record_key(rec) == record_key(dict(rec, dur=1e9,
                                                  cat="other"))
        assert record_key(rec) != record_key(dict(rec, name="open"))


def capture(label="x", status="ok", exit_code=0, stdout="out",
            stderr="", tree_files=None, tree="digest", counters=None,
            totals=None, records=None):
    return RunCapture(
        label=label, status=status, exit_code=exit_code, stdout=stdout,
        stderr=stderr, tree_files=dict(tree_files or {"a.txt": "h1"}),
        tree_digest=tree, metrics={"counters": dict(counters or {"c": 1}),
                                   "totals": dict(totals or {"syscalls": 5})},
        records=list(stream(3) if records is None else records))


class TestDiffCaptures:
    def test_identical_captures_report_none(self):
        report = diff_captures(capture("a"), capture("b"))
        assert not report.diverged
        assert report.classification == "none"
        assert "no divergence" in report.format()

    def test_trace_divergence_wins_over_everything(self):
        divergent = stream(3)
        divergent[1] = dict(divergent[1], name="open")
        report = diff_captures(
            capture("a"),
            capture("b", exit_code=1, stdout="other",
                    tree_files={"a.txt": "h2"}, records=divergent))
        assert report.classification == "schedule"

    def test_exit_status_beats_fs_and_streams(self):
        report = diff_captures(
            capture("a"),
            capture("b", exit_code=1, stdout="other",
                    tree_files={"a.txt": "h2"}))
        assert report.classification == "exit-status"

    def test_fs_content_beats_streams(self):
        report = diff_captures(
            capture("a"),
            capture("b", stdout="other", tree_files={"a.txt": "h2"}))
        assert report.classification == "fs-content"
        assert report.first_path == "a.txt"

    def test_stream_content_beats_counters(self):
        report = diff_captures(
            capture("a"),
            capture("b", stdout="outX", counters={"c": 2}))
        assert report.classification == "stream-content"
        assert "offset 3" in report.summary

    def test_counters_only(self):
        report = diff_captures(
            capture("a"), capture("b", counters={"c": 2},
                                  totals={"syscalls": 6}))
        assert report.classification == "counters"
        assert report.counter_deltas == {"counter/c": [1, 2],
                                         "total/syscalls": [5, 6]}

    def test_surface_always_attached(self):
        report = diff_captures(capture("a"), capture("b"))
        assert report.surface["a"]["status"] == "ok"
        assert report.surface["b"]["tree_digest"] == "digest"


class TestDiffTrees:
    def test_identical_trees(self):
        tree = {"bin/x": b"same", "doc": b"text"}
        report = diff_trees(tree, dict(tree))
        assert not report.diverged

    def test_content_difference_names_first_path(self):
        report = diff_trees({"a": b"1", "b": b"2"},
                            {"a": b"1", "b": b"3"},
                            labels=("first-build", "second-build"))
        assert report.classification == "fs-content"
        assert report.first_path == "b"
        assert report.labels == ("first-build", "second-build")

    def test_missing_file_reported(self):
        report = diff_trees({"a": b"1", "extra": b"2"}, {"a": b"1"})
        assert report.first_path == "extra"
        assert "only in" in report.summary


class TestReportRoundtrip:
    def test_json_roundtrip_preserves_fields(self, tmp_path):
        a, b = stream(5), stream(5)
        b[2] = dict(b[2], dur=99.0)
        report = align_records(a, b)
        report.bisect = {"lo": 3, "hi": 4, "probes": 2, "scope": "guest",
                         "lo_vclock": 0.1, "hi_vclock": 0.2,
                         "diverged": True}
        path = str(tmp_path / "div.json")
        report.write_json(path)
        import json

        loaded = DivergenceReport.from_dict(json.load(open(path)))
        assert loaded.classification == report.classification
        assert loaded.position == report.position
        assert loaded.vts == report.vts
        assert loaded.bisect == report.bisect
        assert loaded.diverged

    def test_format_mentions_bisect_window(self):
        report = DivergenceReport(
            classification="fs-content", summary="trees differ",
            bisect={"lo": 38, "hi": 39, "probes": 4, "scope": "guest",
                    "lo_vclock": 0.1, "hi_vclock": 0.2})
        text = report.format()
        assert "barrier 38" in text
        assert "39" in text
