"""Fuzz coverage of blocked FUTEX_WAIT: the lockwait op, its store
variant, and the banked corpus entry that keeps both on the matrix.

A thread blocked on a futex lock is the traffic the futex replay test
(``SyscallTable.replay_test``) serves.  The ``threads`` op joins on a
shared-memory counter, so without this op no fuzzed program blocks in
futex.
"""
import json
import os

from repro.core import ContainerConfig, DetTrace
from repro.core.tracer import DetTraceTracer
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.grammar import ProgramSpec, generate_program
from repro.fuzz.guest import build_image
from repro.fuzz.runner import MATRIX, _host_for
from repro.fuzz.shrinker import shrink
from repro.kernel.syscalls import SyscallTable

ENTRY = os.path.join(os.path.dirname(__file__), "corpus",
                     "lockwait-store-waiter-at-kill.json")


def entry_spec() -> ProgramSpec:
    with open(ENTRY) as fh:
        return CorpusEntry.from_dict(json.load(fh)).spec


def futex_waits(monkeypatch, spec, config, host):
    """Run *spec* uninterrupted; returns (result, [(tick, tick)]): for
    each futex call that blocked, the event tick of the service that
    first blocked and of the probe that completed it."""
    waits, blocked = [], {}
    service, probe = DetTraceTracer._service, DetTraceTracer._probe

    def serviced(self, thread):
        tick, name = self.kernel.events_processed, thread.current_syscall.name
        done = service(self, thread)
        if name == "futex" and not done:
            blocked[thread] = tick
        return done

    def probed(self, thread):
        tick = self.kernel.events_processed
        done = probe(self, thread)
        if done and thread in blocked:
            waits.append((blocked.pop(thread), tick))
        return done

    with monkeypatch.context() as patch:
        patch.setattr(DetTraceTracer, "_service", serviced)
        patch.setattr(DetTraceTracer, "_probe", probed)
        result = DetTrace(config).run(build_image(spec), "/bin/fuzz",
                                      host=host)
    assert result.succeeded, (result.status, result.error)
    return result, waits


class TestGrammar:
    def test_walk_reaches_both_variants(self):
        stores = {op["store"] for seed in range(60)
                  for op in generate_program(seed).ops
                  if op["op"] == "lockwait"}
        assert stores == {False, True}

    def test_counts_as_threaded(self):
        spec = ProgramSpec(seed=0, ops=(
            {"op": "lockwait", "threads": 2, "rounds": 1, "store": False},))
        assert spec.uses_threads()

    def test_shrinks_to_the_smallest_lock(self):
        spec = ProgramSpec(seed=0, ops=(
            {"op": "lockwait", "threads": 3, "rounds": 3, "store": True},))

        def fails(candidate):
            return any(op["op"] == "lockwait" for op in candidate.ops)

        small = shrink(spec, fails)
        assert small.ops[0] == {"op": "lockwait", "threads": 2, "rounds": 1,
                                "store": False}


class TestCorpusEntry:
    """The full-matrix replay of the entry is test_corpus.py's job, and
    its replays are executed by test_wake_gated_replay.py."""

    def test_store_waiter_blocks_before_the_word_changes(self):
        """The store variant's waiter blocks on the held word, and a
        later probe of the same call sees it changed (EAGAIN), although
        nothing ever wakes that lock."""
        result = DetTrace(ContainerConfig(debug=2)).run(
            build_image(entry_spec()), "/bin/fuzz")
        assert result.succeeded, (result.status, result.error)
        assert "002 lockwait ok:count=9\n" in result.stdout
        lines = result.debug_log
        assert not any("futex(addr='lockwait_lock_002', op=1)" in line
                       for line in lines)
        blocked = next(i for i, line in enumerate(lines)
                       if "futex(addr='lockwait_lock_002', op=0, val=1) "
                          "-> block" in line)
        probes = [line for line in lines[blocked:] if "] probe futex " in line]
        assert probes[0].endswith("-> block")
        assert any(line.endswith("-> error") for line in probes)

    def test_a_waiter_is_blocked_at_the_kill_tick(self, monkeypatch):
        """The crash/resume axis kills the base cell at half its event
        count; a futex waiter is blocked across that tick."""
        spec = entry_spec()
        result, waits = futex_waits(monkeypatch, spec, MATRIX[0].config(),
                                    _host_for(spec.seed, 0))
        tick = result.metrics.totals["events_processed"] // 2
        assert any(start <= tick < end for start, end in waits), (tick, waits)

    def test_a_replay_blind_to_the_word_hangs(self, monkeypatch):
        """Re-introduction: a futex replay test that never re-reads the
        word keeps the waiters blocked past every release, so the run
        spins in main's join loop until the container timeout."""
        replay_test = SyscallTable.replay_test

        def blind(self, t, call):
            if call.name == "futex":
                return lambda: True
            return replay_test(self, t, call)

        monkeypatch.setattr(SyscallTable, "replay_test", blind)
        result = DetTrace(ContainerConfig(timeout=1.0)).run(
            build_image(entry_spec()), "/bin/fuzz")
        assert result.status == "timeout", (result.status, result.error)
