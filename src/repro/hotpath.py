"""Hot-path throughput measurements (``repro bench hotpath``).

Three numbers track whether the engine stays "as fast as the hardware
allows" (ROADMAP north star) without ever bending the determinism
contract:

* **scheduler decisions/sec** — a steady-state service loop over N
  threads, run against both the O(log n) ``logical`` scheduler and its
  quadratic ``logical-ref`` oracle; the decision *sequences* are
  asserted identical while the throughputs are compared;
* **serviced syscalls/sec** — end-to-end Debian package builds under
  DetTrace, host wall time divided into the tracer's serviced syscall
  events, plus the filesystem dentry/dirent cache hit rates;
* **fan-out speedup** — the same build sample executed serially and via
  :mod:`repro.parallel` workers, with byte-identical per-run digests
  required before the speedup is reported.

The library is import-light so both the CLI subcommand and the pytest
wrapper (``benchmarks/bench_hotpath.py``) can drive it; all knobs scale
down for CI via the ``scale`` argument.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from .core import ContainerConfig
from .core.scheduler import SERVICE, WAIT, make_scheduler
from .kernel.costs import SYSCALL_TICK
from .kernel.ops import Syscall
from .kernel.process import Process, Thread, ThreadState
from .parallel import Job, effective_host_cores, run_jobs


# ---------------------------------------------------------------------------
# scheduler decision throughput
# ---------------------------------------------------------------------------

def _make_stopped_threads(n: int) -> List[Thread]:
    threads = []
    for tid in range(1, n + 1):
        proc = Process(pid=tid, nspid=tid, parent=None, root=None, cwd=None,
                       cwd_path="/", env={}, argv=["bench%d" % tid])
        t = Thread(tid=tid, process=proc, gen=None)
        proc.threads.append(t)
        t.det_clock = t.det_bound = float(tid)
        t.state = ThreadState.TRACE_STOP
        t.current_syscall = Syscall("write", {})
        threads.append(t)
    return threads


def _drive_scheduler(kind: str, threads_n: int, decisions: int) -> Tuple[float, List[int]]:
    """Steady-state service loop mirroring the tracer's pump: a serviced
    thread resumes *running* (computing toward its next stop), and when
    nothing is serviceable the lowest-bound runner reaches its stop —
    so every decision sees a mix of stopped and running threads, exactly
    the regime the scheduler operates in.  Returns (seconds,
    serviced-tid sequence) so callers can assert schedule identity."""
    import heapq

    sched = make_scheduler(kind)
    threads = _make_stopped_threads(threads_n)
    for t in threads:
        sched.add(t)
    order: List[int] = []
    #: Harness-side wake queue of running threads, (det_bound, tid,
    #: thread) — O(log n) so the harness never dominates the loop.
    runners: List[Tuple[float, int, Thread]] = []
    serviced = 0
    t0 = time.perf_counter()
    while serviced < decisions:
        action, thread = sched.next_action()
        if action == SERVICE:
            thread.current_syscall = None
            thread.state = ThreadState.RUNNING
            thread.det_clock = thread.det_bound = (
                thread.det_clock + threads_n * SYSCALL_TICK)
            sched.completed(thread)
            heapq.heappush(runners, (thread.det_bound, thread.tid, thread))
            order.append(thread.tid)
            serviced += 1
        elif action == WAIT:
            # The kernel resumes compute: the lowest-bound runner hits
            # its next trace stop (deterministically, by (bound, tid)).
            _, _, nxt = heapq.heappop(runners)
            nxt.det_clock = nxt.det_bound
            nxt.state = ThreadState.TRACE_STOP
            nxt.current_syscall = Syscall("write", {})
            sched.notify_stop(nxt)
        else:
            raise AssertionError("bench loop got unexpected %r" % action)
    elapsed = time.perf_counter() - t0
    return elapsed, order


def bench_scheduler(threads_n: int = 16, decisions: int = 20_000,
                    repeats: int = 5) -> Dict[str, object]:
    """Decisions/sec for logical vs logical-ref at *threads_n* threads.

    Noise shields for shared CI cores: an untimed warm-up pass per
    implementation, GC paused across the timed loops, the timed repeats
    of the two implementations interleaved (so host-speed drift reaches
    both alike instead of moving their ratio), and best-of-*repeats*
    reported.  The decision sequences of the two implementations are
    asserted identical."""
    import gc

    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _drive_scheduler("logical", threads_n, max(500, decisions // 10))
        _drive_scheduler("logical-ref", threads_n, max(500, decisions // 10))
        fast_runs, ref_runs = [], []
        for _ in range(repeats):
            fast_runs.append(_drive_scheduler("logical", threads_n, decisions))
            ref_runs.append(_drive_scheduler("logical-ref", threads_n,
                                             decisions))
        fast_s, fast_order = min(fast_runs, key=lambda r: r[0])
        ref_s, ref_order = min(ref_runs, key=lambda r: r[0])
    finally:
        if gc_was_enabled:
            gc.enable()
    if fast_order != ref_order:
        raise AssertionError(
            "schedule divergence between logical and logical-ref in the "
            "bench loop (first delta at %d)"
            % next(i for i, (a, b) in enumerate(zip(fast_order, ref_order))
                   if a != b))
    return {
        "threads": threads_n,
        "decisions": decisions,
        "logical_decisions_per_s": round(decisions / fast_s, 1),
        "logical_ref_decisions_per_s": round(decisions / ref_s, 1),
        "speedup": round(ref_s / fast_s, 2),
        "orders_identical": True,
    }


# ---------------------------------------------------------------------------
# end-to-end serviced-syscall throughput + cache hit rates
# ---------------------------------------------------------------------------

def _build_sample(sample: int, seed: int = 33):
    from .workloads.debian import generate_population

    return [s for s in generate_population(sample * 2, seed=seed)
            if not s.expect_dt_unsupported and not s.syscall_storm][:sample]


def bench_serviced_syscalls(sample: int = 8, repeats: int = 3) -> Dict[str, object]:
    """Serviced syscalls per host-second over a package-build sample.

    The sample is built *repeats* times and the fastest pass is the one
    timed — the counters are deterministic (identical every pass), only
    the host wall time is noisy, so best-of-N is the honest estimator
    for the regression gate in scripts/check.sh."""
    from .repro_tools import first_build_host
    from .workloads.debian import build_dettrace

    specs = _build_sample(sample)
    wall = None
    for _ in range(max(1, repeats)):
        serviced = 0
        syscalls = 0
        resolve_hits = resolve_misses = 0
        dirent_hits = dirent_misses = 0
        t0 = time.perf_counter()
        built = 0
        for spec in specs:
            record = build_dettrace(spec, config=ContainerConfig(),
                                    host=first_build_host())
            if record.status != "built":
                continue
            built += 1
            serviced += record.result.counters.syscall_events
            syscalls += record.result.syscall_count
            stats = record.result.fs_cache_stats
            resolve_hits += stats.get("resolve_hits", 0)
            resolve_misses += stats.get("resolve_misses", 0)
            dirent_hits += stats.get("dirent_hits", 0)
            dirent_misses += stats.get("dirent_misses", 0)
        pass_wall = time.perf_counter() - t0
        wall = pass_wall if wall is None else min(wall, pass_wall)
    lookups = resolve_hits + resolve_misses
    listings = dirent_hits + dirent_misses
    return {
        "packages": built,
        "wall_s": round(wall, 6),
        "serviced_syscalls": serviced,
        "total_syscalls": syscalls,
        "serviced_syscalls_per_s": round(serviced / wall, 1) if wall else 0.0,
        "resolve_hit_rate": round(resolve_hits / lookups, 4) if lookups else None,
        "dirent_hit_rate": round(dirent_hits / listings, 4) if listings else None,
    }


# ---------------------------------------------------------------------------
# container fan-out speedup
# ---------------------------------------------------------------------------

def _fanout_build(spec_name_seed) -> Dict[str, object]:
    """Worker: build one spec, return only the digest-reduced record
    (keeps the cross-process payload small and definitely picklable)."""
    from .repro_tools import first_build_host
    from .repro_tools.hashing import tree_digest
    from .workloads.debian import build_dettrace

    spec = spec_name_seed
    record = build_dettrace(spec, config=ContainerConfig(),
                            host=first_build_host())
    return {
        "package": spec.name,
        "status": record.status,
        "digest": tree_digest(record.result.output_tree),
        "virtual_wall": record.result.wall_time,
    }


def bench_fanout(sample: int = 8, jobs: int = 4) -> Dict[str, object]:
    """Wall-clock speedup of a *jobs*-worker sweep vs the serial sweep,
    with per-run digest identity required.

    The speedup is physically bounded by ``host_cores`` (the builds are
    CPU-bound simulations): on a single-core host :func:`run_jobs`
    falls back to the serial loop (pool overhead only ever loses there),
    the record reports ``"fallback": "serial"``.  Only the identity
    property is asserted; the speedup is recorded, never gated.
    """
    cores = effective_host_cores()
    specs = _build_sample(sample, seed=47)
    job_list = [Job(key=i, fn=_fanout_build, args=(spec,))
                for i, spec in enumerate(specs)]
    t0 = time.perf_counter()
    serial = run_jobs(job_list, workers=1)
    serial_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    parallel = run_jobs(job_list, workers=jobs)
    parallel_s = time.perf_counter() - t1
    identical = serial == parallel
    if not identical:
        raise AssertionError(
            "serial and %d-worker fan-out produced different results: %r"
            % (jobs, [(a, b) for a, b in zip(serial, parallel) if a != b]))
    return {
        "runs": len(specs),
        "jobs": jobs,
        "host_cores": cores,
        "fallback": ("serial" if jobs > 1 and cores == 1 else None),
        "serial_wall_s": round(serial_s, 6),
        "parallel_wall_s": round(parallel_s, 6),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
        "digests_identical": identical,
    }


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------

def run_hotpath_bench(scale: float = 1.0,
                      out_path: Optional[str] = None) -> Dict[str, object]:
    """Run all three hot-path benches; optionally write BENCH_hotpath.json."""
    decisions = max(2_000, int(20_000 * scale))
    sample = max(2, int(8 * scale))
    report = {
        "scheduler": bench_scheduler(threads_n=16, decisions=decisions),
        "serviced": bench_serviced_syscalls(sample=sample),
        "fanout": bench_fanout(sample=sample, jobs=4),
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def format_report(report: Dict[str, object]) -> str:
    sched = report["scheduler"]
    served = report["serviced"]
    fan = report["fanout"]
    lines = [
        "hot-path bench:",
        "  scheduler @%d threads: %.0f decisions/s vs ref %.0f (%.1fx), orders identical"
        % (sched["threads"], sched["logical_decisions_per_s"],
           sched["logical_ref_decisions_per_s"], sched["speedup"]),
        "  serviced syscalls: %.0f/s over %d packages (resolve hit rate %s, dirent %s)"
        % (served["serviced_syscalls_per_s"], served["packages"],
           served["resolve_hit_rate"], served["dirent_hit_rate"]),
        "  fan-out: %d runs, %d jobs on %d cores: %.2fs serial vs %.2fs parallel (%.2fx), digests identical"
        % (fan["runs"], fan["jobs"], fan["host_cores"], fan["serial_wall_s"],
           fan["parallel_wall_s"], fan["speedup"] or 0.0),
    ]
    return "\n".join(lines)
