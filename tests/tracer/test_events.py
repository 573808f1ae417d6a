import dataclasses

import pytest

from repro.obs.collector import Collector
from repro.obs.metrics import Metrics
from repro.tracer.events import SYSCALL_EVENTS, TraceCounters


class TestTraceCounters:
    def test_table2_rows_order(self):
        c = TraceCounters(syscall_events=10, read_retries=2)
        rows = c.as_table2_rows()
        assert rows[0] == ("System call events", 10)
        assert ("read retries", 2) in rows
        # The paper's nine Table-2 rows plus the in-container socket pair.
        assert len(rows) == 11
        assert ("Socket connects (in-container)", 0) in rows
        assert ("Socket accepts (in-container)", 0) in rows

    def test_view_reads_collector_keys(self):
        c = Collector()
        c.count(("trap", "rdtsc"), 2)
        # no tracer namespace
        assert TraceCounters.of(Metrics.from_run(c).counters) is None
        c.count(SYSCALL_EVENTS, 7)
        c.count(("trap", "rdtscp"), 3)
        c.count(("trap", "cpuid"))
        c.count(("trap", "rdpmc"))
        c.count(("fault", "eio"), 2)
        c.count(("fault", "short_read"))
        c.count(("faults", "injected"), 100)  # not the fault/ namespace
        c.count(("process", "spawn"), 4)
        c.count(("process", "exit"), 4)
        c.count(("sched", "context_switch"), 5)
        view = TraceCounters.of(Metrics.from_run(c).counters)
        assert view.syscall_events == 7
        assert view.rdtsc_intercepted == 5
        assert view.cpuid_intercepted == 1
        assert view.faults_injected == 3
        assert view.process_spawns == 4
        assert view.sched_requests == 5
        assert view.read_retries == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.syscall_events = 8
