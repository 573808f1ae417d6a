"""Reproducible schedulers (paper §5.6, Figure 3).

DetTrace must execute guest syscalls *sequentially in a deterministic
total order* — otherwise the virtual inode/mtime clocks (§5.5) and every
other cross-process effect would depend on wall-clock racing.  Three
implementations are provided:

:class:`StrictQueueScheduler`
    A literal reading of Figure 3: three queues, and only the *front* of
    the Parallel queue may move to Runnable when it reaches a syscall.
    Fully deterministic, but it gates every stopped process behind the
    front's compute, serializing workloads whose processes compute for
    long stretches — which contradicts the scaling the paper measures
    (clustal reaches 4.17x at 16 processes under DetTrace, §7.5).

:class:`LogicalClockScheduler` (the default)
    A deterministic-logical-time scheduler in the style of Kendo [32],
    which the paper cites for deterministic synchronization.  Every
    thread carries a logical clock advanced by the *work it requests*
    (not the jittered wall time it takes), so each trace stop has a
    deterministic timestamp.  A stopped thread is serviced when it holds
    the minimum (clock, spawn-index) among stopped threads AND no
    still-running thread could possibly stop with a smaller timestamp
    (its lower bound — current clock plus in-flight compute — is already
    past the candidate's).  Would-block outcomes deterministically
    defer the blocked thread until the next serviced syscall or thread
    exit, giving the fair retry of §5.6.1.  The result is the same
    guarantee as the queues — a syscall order that is a pure function of
    guest behaviour — without serializing compute.

    Decisions are O(log n): a heap of stopped candidates keyed on
    (det_clock, spawn_index), a stash of probe-ineligible candidates
    re-armed whenever the determinism epoch advances, and a lazily
    repaired min-heap over running threads' committed lower bounds.
    A decision is one pass over the two heap tops, and the transition
    that follows it (``completed`` or ``still_blocked``) consumes the
    entry the decision returned, so the next decision never
    re-validates it.  The decision *sequence* is byte-identical to the
    reference implementation below — enforced by the differential
    suite in ``tests/properties/test_sched_differential.py``.

:class:`LogicalClockRefScheduler` (``scheduler="logical-ref"``)
    The original sort-and-scan implementation of the same policy,
    O(threads²) per decision.  Kept solely as the differential-testing
    oracle: any schedule divergence between "logical" and "logical-ref"
    is a bug in the optimized structure, never a policy change.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..kernel.process import Thread, ThreadState

from ..kernel.costs import SYSCALL_TICK  # noqa: F401  (re-exported)

#: next_action verdicts.
SERVICE = "service"
PROBE = "probe"
WAIT = "wait"

#: The one WAIT verdict, returned by every decision that waits.
_WAIT_VERDICT = (WAIT, None)
#: Thread states the decision loop compares against, as module globals.
_TRACE_STOP = ThreadState.TRACE_STOP
_EXITED = ThreadState.EXITED


def _is_stopped_at_syscall(thread: Thread) -> bool:
    return (thread.state is ThreadState.TRACE_STOP
            and thread.current_syscall is not None)


class SchedulerBase:
    """Interface the DetTrace tracer drives."""

    def add(self, thread: Thread) -> None:
        raise NotImplementedError

    def remove(self, thread: Thread) -> None:
        raise NotImplementedError

    def next_action(self) -> Tuple[str, Optional[Thread]]:
        """(SERVICE, t): run t's syscall for the first time;
        (PROBE, t): retry a previously-blocked syscall;
        (WAIT, None): nothing may be serviced yet."""
        raise NotImplementedError

    def completed(self, thread: Thread) -> int:
        """The serviced/probed syscall finished (value/error/exit).
        Returns how many candidates stay deterministically deferred (the
        Blocked-queue occupancy sampled into repro.obs)."""
        raise NotImplementedError

    def still_blocked(self, thread: Thread) -> None:
        """The probe reported would-block."""
        raise NotImplementedError

    def note_progress(self) -> None:
        """Guest-visible state changed outside a completed service (e.g.
        a blocked write transferred part of its buffer before blocking
        again): blocked candidates must become probe-eligible."""

    def notify_stop(self, thread: Thread) -> None:
        """The thread reached a trace stop (incremental-index hook; the
        reference schedulers rediscover stops by scanning instead)."""

    def notify_bound(self, thread: Thread) -> None:
        """The thread committed to more compute: its deterministic lower
        bound rose (incremental-index hook)."""

    def notify_running(self, thread: Thread) -> None:
        """The thread re-entered the running set after waiting for the
        sibling-serialization token (incremental-index hook)."""


class LogicalClockScheduler(SchedulerBase):
    """Deterministic logical-time servicing in O(log n) per decision.

    Blocked candidates are *skipped* — deterministically — until at least
    one other syscall has been serviced since their last failed probe:
    under the serialized-syscall discipline, all guest-visible state
    changes flow through serviced syscalls, so re-probing earlier would
    provably fail again.  This is exactly §5.6.1's "consult the blocked
    queue after each executed syscall", expressed in logical time.

    Data structures (lazily repaired, so membership updates are
    amortized O(log n) and ``remove`` is O(1)):

    * ``_stop_heap`` — stopped candidates as ``(det_clock, spawn_index,
      thread)``.  An entry is live while the thread is still stopped at
      a syscall at the same deterministic timestamp; anything else is
      discarded when it surfaces.
    * ``_stash`` — candidates whose last probe failed in the current
      epoch.  Every epoch advance (service, exit, note_progress) re-arms
      the whole stash, mirroring the reference policy of reconsidering
      all blocked threads after each serviced syscall.
    * ``_bound_heap`` — ``(det_bound + SYSCALL_TICK, spawn_index,
      thread, det_bound)`` lower bounds for running threads.  Stale
      bounds are *refreshed in place* rather than discarded, because
      seccomp-skipped syscalls advance ``det_bound`` without any
      scheduler notification; deterministic clocks only move forward, so
      a stale entry always surfaces before its refresh is needed.

    A decision is one pass over the two heap tops, and the transition
    that follows it consumes the entry it returned: ``completed`` pops
    it off the stop heap, ``still_blocked`` moves it to the stash.  So
    the next decision starts at the next candidate instead of
    re-validating the one just decided.  The entry is at the top unless
    the service itself pushed a smaller one (an exit or a partial
    transfer re-arms the stash; a token grant can stop a sibling); it
    then dies lazily, as every other stale entry does.

    Validation reads thread fields only: a thread leaves the membership
    only once ``EXITED``, so state, pending syscall and clock decide
    whether an entry is live without a membership lookup.
    """

    def __init__(self):
        #: Insertion-ordered membership: thread -> spawn index.
        self._index: Dict[Thread, int] = {}
        self._next_index = 0
        #: Global count of completed services (the determinism epoch).
        self._service_seq = 0
        #: thread -> service_seq at its last failed probe.
        self._fail_seq: Dict[Thread, int] = {}
        #: Min-heap of stopped candidates: (det_clock, index, thread).
        self._stop_heap: List[Tuple[float, int, Thread]] = []
        #: Candidates parked until the next epoch advance.
        self._stash: List[Tuple[float, int, Thread]] = []
        #: Min-heap of running lower bounds:
        #: (det_bound + SYSCALL_TICK, index, thread, det_bound).
        self._bound_heap: List[Tuple[float, int, Thread, float]] = []

    # -- membership -------------------------------------------------------

    def add(self, thread: Thread) -> None:
        idx = self._next_index
        self._next_index += 1
        self._index[thread] = idx
        if _is_stopped_at_syscall(thread):
            heapq.heappush(self._stop_heap, (thread.det_clock, idx, thread))
        else:
            heapq.heappush(self._bound_heap,
                           (thread.det_bound + SYSCALL_TICK, idx, thread,
                            thread.det_bound))

    def remove(self, thread: Thread) -> None:
        if thread in self._index:
            self._index.pop(thread)
            self._fail_seq.pop(thread, None)
            # A thread exit is a guest-visible state change (it can
            # unblock wait4 and pipe readers): advance the epoch so
            # blocked candidates become probe-eligible again.  Heap
            # entries for the removed thread die lazily.
            self._bump_epoch()

    def live(self) -> List[Thread]:
        return [t for t in self._index if t.alive]

    # -- incremental-index hooks ---------------------------------------------

    def notify_stop(self, thread: Thread) -> None:
        idx = self._index.get(thread)
        if idx is not None:
            heapq.heappush(self._stop_heap, (thread.det_clock, idx, thread))

    def notify_bound(self, thread: Thread) -> None:
        idx = self._index.get(thread)
        if idx is not None:
            heapq.heappush(self._bound_heap,
                           (thread.det_bound + SYSCALL_TICK, idx, thread,
                            thread.det_bound))

    notify_running = notify_bound

    def _bump_epoch(self) -> None:
        self._service_seq += 1
        # Every epoch advance re-arms all probe-deferred candidates,
        # mirroring the reference scan that reconsiders them.
        if self._stash:
            for entry in self._stash:
                heapq.heappush(self._stop_heap, entry)
            del self._stash[:]

    # -- decision ------------------------------------------------------------

    def next_action(self) -> Tuple[str, Optional[Thread]]:
        # The live minimum of the stop heap: dead entries are dropped and
        # probe-ineligible ones parked in the stash on the way.
        heap = self._stop_heap
        seq = self._service_seq
        fail_get = self._fail_seq.get
        while heap:
            clock, idx, thread = heap[0]
            if (thread.state is not _TRACE_STOP
                    or thread.current_syscall is None
                    or thread.det_clock != clock):
                heapq.heappop(heap)
                continue
            failed = fail_get(thread)
            if failed == seq:
                # Nothing serviced since its last failed probe: park it
                # until the epoch advances.
                self._stash.append(heapq.heappop(heap))
                continue
            break
        else:
            return _WAIT_VERDICT
        # The smallest (det_bound + SYSCALL_TICK, index) over threads
        # that could still stop on their own: not exited, not waiting
        # for the sibling token, not already stopped at a syscall.
        bounds = self._bound_heap
        while bounds:
            bound, other_idx, other, stamp = bounds[0]
            state = other.state
            if (state is _EXITED or other.token_queued
                    or (state is _TRACE_STOP
                        and other.current_syscall is not None)):
                # Outside the running set; re-pushed on the token grant
                # or service completion that brings it back.
                heapq.heappop(bounds)
                continue
            if other.det_bound != stamp:
                # Seccomp-skipped syscalls raise det_bound without a
                # notify hook: refresh in place (bounds only grow, so
                # the stale entry surfaces before the fresh one is due).
                heapq.heapreplace(
                    bounds, (other.det_bound + SYSCALL_TICK, other_idx,
                             other, other.det_bound))
                continue
            if bound < clock or (bound == clock and other_idx < idx):
                # Some running thread could stop with a smaller
                # deterministic timestamp: servicing now would commit
                # the wrong order.
                return _WAIT_VERDICT
            break
        if failed is None:
            return (SERVICE, thread)
        return (PROBE, thread)

    def completed(self, thread: Thread) -> int:
        # Consume the decided entry before the epoch advance re-arms the
        # stash over it, then put the thread back among the running
        # bounds.
        heap = self._stop_heap
        if heap and heap[0][2] is thread:
            idx = heapq.heappop(heap)[1]
        else:
            idx = self._index.get(thread)
        # _bump_epoch, inline.
        self._service_seq += 1
        stash = self._stash
        if stash:
            for entry in stash:
                heapq.heappush(heap, entry)
            del stash[:]
        self._fail_seq.pop(thread, None)
        # An exited thread (already removed by its exit hook) has no
        # bound left to keep.
        if idx is not None and thread.state is not _EXITED:
            bound = thread.det_bound
            heapq.heappush(self._bound_heap,
                           (bound + SYSCALL_TICK, idx, thread, bound))
        return len(self._fail_seq)

    def still_blocked(self, thread: Thread) -> None:
        self._fail_seq[thread] = self._service_seq
        heap = self._stop_heap
        if heap and heap[0][2] is thread:
            self._stash.append(heapq.heappop(heap))

    def note_progress(self) -> None:
        self._bump_epoch()


class LogicalClockRefScheduler(SchedulerBase):
    """The original O(threads²)-per-decision logical-clock scheduler.

    Kept as the differential-testing oracle for
    :class:`LogicalClockScheduler` (``scheduler="logical-ref"``): both
    must produce byte-identical service orders, virtual times and output
    hashes on every workload.
    """

    def __init__(self):
        self._threads: List[Thread] = []
        self._index: Dict[Thread, int] = {}
        self._next_index = 0
        #: Global count of completed services (the determinism epoch).
        self._service_seq = 0
        #: thread -> service_seq at its last failed probe.
        self._fail_seq: Dict[Thread, int] = {}

    # -- membership -------------------------------------------------------

    def add(self, thread: Thread) -> None:
        self._threads.append(thread)
        self._index[thread] = self._next_index
        self._next_index += 1

    def remove(self, thread: Thread) -> None:
        if thread in self._index:
            self._threads.remove(thread)
            self._index.pop(thread)
            self._fail_seq.pop(thread, None)
            # A thread exit is a guest-visible state change (it can
            # unblock wait4 and pipe readers): advance the epoch so
            # blocked candidates become probe-eligible again.
            self._service_seq += 1

    def live(self) -> List[Thread]:
        return [t for t in self._threads if t.alive]

    # -- decision ------------------------------------------------------------

    def _key(self, thread: Thread) -> Tuple[float, int]:
        return (thread.det_clock, self._index[thread])

    def next_action(self) -> Tuple[str, Optional[Thread]]:
        stopped = sorted(
            (t for t in self._threads if t.alive and _is_stopped_at_syscall(t)),
            key=self._key)
        if not stopped:
            return (WAIT, None)
        for candidate in stopped:
            blocked_at = self._fail_seq.get(candidate)
            if blocked_at is not None and blocked_at == self._service_seq:
                continue  # nothing changed since its last probe: skip
            cand_key = (candidate.det_clock, self._index[candidate])
            for other in self._threads:
                if other is candidate or not other.alive:
                    continue
                if _is_stopped_at_syscall(other):
                    continue  # later than the candidate, by the sort
                if other.token_queued:
                    # Waiting for the sibling token: it can only run after
                    # a deterministic token grant, which itself requires a
                    # serviced syscall — it cannot stop before this one.
                    continue
                # Lower bound on the other thread's next stop timestamp:
                # its committed bound plus the per-stop tick (every stop
                # advances the clock by at least SYSCALL_TICK past the
                # bound).  Ties resolve by spawn index, deterministically.
                if (other.det_bound + SYSCALL_TICK,
                        self._index[other]) < cand_key:
                    return (WAIT, None)
            if candidate in self._fail_seq:
                return (PROBE, candidate)
            return (SERVICE, candidate)
        return (WAIT, None)

    def completed(self, thread: Thread) -> int:
        self._service_seq += 1
        self._fail_seq.pop(thread, None)
        return len(self._fail_seq)

    def still_blocked(self, thread: Thread) -> None:
        self._fail_seq[thread] = self._service_seq

    def note_progress(self) -> None:
        self._service_seq += 1


class StrictQueueScheduler(SchedulerBase):
    """The literal Figure 3 queues (kept for ablation studies)."""

    def __init__(self):
        self.parallel: Deque[Thread] = deque()
        self.runnable: Deque[Thread] = deque()
        self.blocked: Deque[Thread] = deque()
        self._probe_credit = 0

    def add(self, thread: Thread) -> None:
        self.parallel.append(thread)

    def remove(self, thread: Thread) -> None:
        for queue in (self.parallel, self.runnable, self.blocked):
            try:
                queue.remove(thread)
            except ValueError:
                pass

    def next_action(self) -> Tuple[str, Optional[Thread]]:
        while self.parallel and _is_stopped_at_syscall(self.parallel[0]):
            self.runnable.append(self.parallel.popleft())
        if self.runnable:
            return (SERVICE, self.runnable[0])
        if self.blocked and (self._probe_credit > 0
                             or not (self.parallel or self.runnable)):
            # Consult the blocked front after each executed syscall, and
            # whenever nothing else can run (§5.6.1's fair iteration).
            if self._probe_credit > 0:
                self._probe_credit -= 1
            return (PROBE, self.blocked[0])
        return (WAIT, None)

    def completed(self, thread: Thread) -> int:
        self._probe_credit = 1 if self.blocked else 0
        if self.runnable and self.runnable[0] is thread:
            self.runnable.popleft()
        elif self.blocked and self.blocked[0] is thread:
            self.blocked.popleft()
        else:
            self.remove(thread)
            return len(self.blocked)
        self.parallel.append(thread)
        return len(self.blocked)

    def still_blocked(self, thread: Thread) -> None:
        if self.runnable and self.runnable[0] is thread:
            self.runnable.popleft()
            self.blocked.append(thread)
        elif self.blocked and self.blocked[0] is thread:
            self.blocked.rotate(-1)

    def note_progress(self) -> None:
        self._probe_credit = len(self.blocked)


def make_scheduler(kind: str) -> SchedulerBase:
    if kind == "logical":
        return LogicalClockScheduler()
    if kind == "logical-ref":
        return LogicalClockRefScheduler()
    if kind == "strict":
        return StrictQueueScheduler()
    raise ValueError("unknown scheduler kind %r" % kind)
