"""Unit tests for the O(log n) scheduler's incremental structures.

The end-to-end schedule identity is covered by the differential suite
(tests/properties/test_sched_differential.py) and the bench loop
(benchmarks/bench_hotpath.py); these tests pin the *mechanisms* — lazy
heap repair, the probe stash, stamp refresh, O(1) removal — with
hand-built states, plus a randomized lockstep drive against the
reference oracle.
"""
import random

from repro.core.scheduler import (
    PROBE,
    SERVICE,
    SYSCALL_TICK,
    WAIT,
    LogicalClockRefScheduler,
    LogicalClockScheduler,
    make_scheduler,
)
from repro.kernel.process import ThreadState
from tests.core.test_scheduler_repro import make_thread


def both_schedulers():
    return LogicalClockScheduler(), LogicalClockRefScheduler()


def test_make_scheduler_kinds():
    assert isinstance(make_scheduler("logical"), LogicalClockScheduler)
    assert isinstance(make_scheduler("logical-ref"), LogicalClockRefScheduler)


def test_notify_stop_inserts_candidate():
    s = LogicalClockScheduler()
    t = make_thread(1, clock=1.0, stopped=False)
    s.add(t)
    assert s.next_action() == (WAIT, None)
    from repro.kernel.ops import Syscall

    t.state = ThreadState.TRACE_STOP
    t.current_syscall = Syscall("write", {})
    s.notify_stop(t)
    assert s.next_action() == (SERVICE, t)


def test_stale_stop_entries_discarded():
    """A heap entry for an old (clock, thread) pairing must never be
    serviced once the thread has moved on."""
    s = LogicalClockScheduler()
    a = make_thread(1, clock=1.0, stopped=True)
    b = make_thread(2, clock=2.0, stopped=True)
    s.add(a)
    s.add(b)
    # a advances to a later stop without being serviced through the
    # scheduler (e.g. after a completed service): push the new stop.
    a.det_clock = a.det_bound = 5.0
    s.notify_stop(a)
    # b (clock 2.0) now outranks both of a's entries, the stale 1.0 one
    # included.
    assert s.next_action() == (SERVICE, b)


def test_remove_is_o1_and_rearms_blocked():
    s = LogicalClockScheduler()
    a = make_thread(1, clock=1.0, stopped=True)
    b = make_thread(2, clock=2.0, stopped=True)
    s.add(a)
    s.add(b)
    # b's probe fails in the current epoch: it parks in the stash.
    s.still_blocked(b)
    assert len(s._fail_seq) == 1
    assert s.next_action() == (SERVICE, a)
    # a exits; the epoch bump must re-arm b as a PROBE candidate even
    # though no service completed.
    a.state = ThreadState.EXITED
    s.remove(a)
    assert len(s.live()) == 1
    assert s.next_action() == (PROBE, b)
    # Removal leaves no membership behind (heap entries die lazily).
    assert a not in s._index and a not in s._fail_seq


def test_stash_rearmed_after_service():
    s = LogicalClockScheduler()
    a = make_thread(1, clock=1.0, stopped=True)
    b = make_thread(2, clock=2.0, stopped=True)
    s.add(a)
    s.add(b)
    s.still_blocked(a)
    # a is parked: b is the only candidate this epoch.
    assert s.next_action() == (SERVICE, b)
    s.completed(b)
    b.state = ThreadState.RUNNING
    b.current_syscall = None
    # The completed service advanced the epoch: a is probe-eligible and
    # its retry is a PROBE (it still sits in _fail_seq until it lands).
    assert s.next_action() == (PROBE, a)
    assert s.completed(a) == 0


def test_transitions_consume_the_decided_entry():
    """The plain pump sequence: a decision returns the top of the stop
    heap, and the transition that follows takes that entry off it —
    ``completed`` drops it, ``still_blocked`` parks it in the stash —
    so the next decision never re-validates it."""
    s = LogicalClockScheduler()
    waiter = make_thread(1, clock=1.0, stopped=True)
    a = make_thread(2, clock=2.0, stopped=True)
    b = make_thread(3, clock=3.0, stopped=True)
    for t in (waiter, a, b):
        s.add(t)

    def stop_entries(t):
        return [e for e in s._stop_heap if e[2] is t]

    assert s.next_action() == (SERVICE, waiter)
    s.still_blocked(waiter)
    assert stop_entries(waiter) == []
    assert [e[2] for e in s._stash] == [waiter]
    assert s.next_action() == (SERVICE, a)
    s.completed(a)
    assert stop_entries(a) == []
    a.state = ThreadState.RUNNING
    a.current_syscall = None
    # The service re-armed the waiter: probed, it blocks again.
    assert s._stash == []
    assert s.next_action() == (PROBE, waiter)
    s.still_blocked(waiter)
    assert stop_entries(waiter) == []
    assert [e[2] for e in s._stash] == [waiter]
    # a runs again with a bound past b's clock, so b is serviced.
    a.det_clock = a.det_bound = 9.0
    assert s.next_action() == (SERVICE, b)
    s.completed(b)
    assert stop_entries(b) == []
    b.state = ThreadState.RUNNING
    b.current_syscall = None
    assert s.next_action() == (PROBE, waiter)
    blocked = s.completed(waiter)
    assert s._stop_heap == [] and s._stash == []
    assert blocked == 0


def test_bound_heap_refreshes_stale_stamps():
    """Seccomp-skipped syscalls advance det_bound silently; the heap
    entry must refresh in place and keep gating with the new bound."""
    s = LogicalClockScheduler()
    stopped = make_thread(1, clock=5.0, stopped=True)
    running = make_thread(2, clock=1.0, bound=1.0, stopped=False)
    s.add(stopped)
    s.add(running)
    assert s.next_action() == (WAIT, None)
    # The running thread commits more compute without any notify (the
    # no-stop fast path): once its bound passes the candidate's clock
    # the stale entry must not keep gating forever.
    running.det_bound = 9.0
    assert s.next_action() == (SERVICE, stopped)


def test_token_queued_thread_does_not_gate():
    s = LogicalClockScheduler()
    stopped = make_thread(1, clock=5.0, stopped=True)
    waiter = make_thread(2, clock=1.0, bound=1.0, stopped=False)
    waiter.token_queued = True
    s.add(stopped)
    s.add(waiter)
    # The token-queued sibling cannot stop before a grant, so it must
    # not hold up the candidate...
    assert s.next_action() == (SERVICE, stopped)
    # ...until the grant puts it back in the running set.
    waiter.token_queued = False
    s.notify_running(waiter)
    assert s.next_action() == (WAIT, None)


def test_notify_hooks_are_noops_on_reference_schedulers():
    """The hooks exist so the tracer can drive any scheduler uniformly;
    the scan-based implementations ignore them."""
    for kind in ("logical-ref", "strict"):
        s = make_scheduler(kind)
        t = make_thread(1, clock=1.0, stopped=True)
        s.add(t)
        s.notify_stop(t)
        s.notify_bound(t)
        s.notify_running(t)
        assert s.next_action() == (SERVICE, t)


def test_randomized_lockstep_against_reference():
    """Drive both implementations through the same randomized sequence
    of stops/services/blocks/exits and require identical decisions."""
    from repro.kernel.ops import Syscall

    rng = random.Random(1234)
    for trial in range(20):
        fast, ref = both_schedulers()
        threads = []
        for tid in range(1, 7):
            t = make_thread(tid, clock=float(rng.randint(0, 3)),
                            stopped=rng.random() < 0.5)
            t.det_bound = t.det_clock
            threads.append(t)
            fast.add(t)
            ref.add(t)
        for step in range(60):
            a_fast = fast.next_action()
            a_ref = ref.next_action()
            assert a_fast == a_ref, (trial, step, a_fast, a_ref)
            action, t = a_fast
            if action == WAIT:
                # Wake the lowest-bound running thread at a deterministic
                # later stop, mirroring the kernel resuming compute.
                running = [x for x in threads
                           if x.alive and x.state is ThreadState.RUNNING]
                if not running:
                    break
                nxt = min(running, key=lambda x: (x.det_bound, x.tid))
                nxt.det_clock = nxt.det_bound = nxt.det_bound + SYSCALL_TICK
                nxt.state = ThreadState.TRACE_STOP
                nxt.current_syscall = Syscall("write", {})
                fast.notify_stop(nxt)
                ref.notify_stop(nxt)
                continue
            roll = rng.random()
            if action == SERVICE and roll < 0.2:
                # Would-block verdict.
                fast.still_blocked(t)
                ref.still_blocked(t)
            elif roll < 0.3 and action == SERVICE:
                # The syscall was an exit.
                t.state = ThreadState.EXITED
                t.current_syscall = None
                fast.remove(t)
                ref.remove(t)
            else:
                t.current_syscall = None
                t.state = ThreadState.RUNNING
                t.det_clock = t.det_bound = t.det_clock + SYSCALL_TICK * (
                    1 + rng.randint(0, 3))
                assert fast.completed(t) == ref.completed(t)
        assert len(fast._fail_seq) == len(ref._fail_seq)
        assert len(fast.live()) == len(ref.live())
