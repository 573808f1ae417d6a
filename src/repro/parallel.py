"""Deterministic fan-out of independent container runs.

DetTrace determinizes *within* a container; across containers there is
nothing to serialize — every run is a pure function of (image, config,
host), so N runs can execute on N worker processes and must produce
byte-identical results to the same N runs executed serially.  This
module is that fan-out: the §7 package sweeps, reprotest double-builds
and ``repro run --jobs N`` all funnel through :func:`run_jobs`.

Determinism contract:

* results are collected **ordered by job key**, never by completion
  order — a worker pool's racy finish order is invisible to callers;
* a worker exception does not tear down the pool non-deterministically:
  every job still runs, then the error belonging to the *smallest key*
  is re-raised (exactly the error serial execution would have hit
  first);
* ``workers=1`` takes a plain in-process loop, so serial-vs-parallel
  identity tests compare genuinely different execution paths.

Job functions and their arguments must be picklable (module-level
functions, dataclass/primitive arguments) because workers are separate
processes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import traceback
from typing import Any, Callable, Dict, List, Sequence, Tuple


class WorkerError(Exception):
    """Picklable carrier for a worker exception that cannot itself cross
    the process boundary.

    Exceptions with custom ``__init__`` signatures (e.g. the kernel's
    ``SyscallError(errno, syscall)``) pickle but explode on *unpickle*,
    which would crash ``pool.map`` at a completion-order-dependent
    moment — a non-deterministic teardown.  Such errors are converted to
    this carrier *in the worker*, preserving the original type name,
    message, errno (when present) and formatted traceback.  The same
    conversion runs on the serial path so the raised error is a pure
    function of the jobs, never of the worker count.
    """

    def __init__(self, type_name: str, message: str, errno: int = 0,
                 tb: str = ""):
        self.type_name = type_name
        self.message = message
        self.errno = errno
        self.tb = tb
        super().__init__("%s: %s" % (type_name, message))

    def __reduce__(self):
        return (WorkerError, (self.type_name, self.message, self.errno,
                              self.tb))

    def format_traceback(self) -> str:
        return self.tb


def _sanitize_error(err: BaseException) -> BaseException:
    """Return *err* if it survives a pickle round-trip, else a carrier.

    The round-trip includes ``loads``: pickling an exception succeeds for
    almost anything (the default reduce stores ``args``), but rebuilding
    it calls ``type(err)(*args)``, which fails for custom signatures.
    """
    try:
        rebuilt = pickle.loads(pickle.dumps(err))
        if type(rebuilt) is type(err):
            return err
    except Exception:
        pass
    return WorkerError(
        type_name=type(err).__name__,
        message=str(err),
        errno=int(getattr(err, "errno", 0) or 0),
        tb="".join(traceback.format_exception(type(err), err,
                                              err.__traceback__)))


@dataclasses.dataclass(frozen=True)
class Job:
    """One independent unit of work.

    ``key`` orders the results (and error precedence) deterministically;
    it must be sortable and unique within one :func:`run_jobs` call.
    """

    key: Any
    fn: Callable
    args: Tuple = ()
    kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict)


def _execute(job: Job) -> Tuple[Any, str, Any]:
    """Worker trampoline: never raises, so pool teardown stays orderly.

    Errors are sanitized *here* — before the result crosses the process
    boundary — so an unpicklable exception can never detonate inside
    ``pool.map``'s result plumbing (which would tear the pool down at a
    completion-order-dependent point).  The serial path runs the same
    sanitizer, keeping the raised error independent of worker count.
    """
    try:
        return (job.key, "ok", job.fn(*job.args, **job.kwargs))
    except BaseException as err:  # re-raised deterministically by caller
        return (job.key, "err", _sanitize_error(err))


def default_workers() -> int:
    """A sensible worker count for --jobs 0 ("auto")."""
    return max(1, min(8, os.cpu_count() or 1))


def effective_host_cores() -> int:
    """Cores this process may actually run on.

    Prefers the scheduler affinity mask (a cgroup/taskset-restricted
    host may expose 64 CPUs but allow 1), falling back to the raw CPU
    count where unavailable.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def run_jobs(jobs: Sequence[Job], workers: int = 1) -> List[Tuple[Any, Any]]:
    """Run every job; return ``[(key, result), ...]`` sorted by key.

    The returned list — and any exception raised — is a pure function of
    the jobs themselves, independent of *workers*.
    """
    ordered = sorted(jobs, key=lambda j: j.key)
    keys = [j.key for j in ordered]
    if len(set(map(repr, keys))) != len(keys):
        raise ValueError("job keys must be unique: %r" % (keys,))
    workers = max(1, min(int(workers), len(ordered) or 1))
    if workers > 1 and effective_host_cores() == 1:
        # Forking a pool on a single effective core only adds process
        # setup and context-switch overhead (speedup < 1 in practice);
        # the serial loop produces identical, key-ordered results by
        # contract, so fall back.
        workers = 1
    if workers == 1:
        # The plain in-process loop: serial-vs-parallel identity tests
        # compare genuinely different execution paths.
        outcomes = [_execute(job) for job in ordered]
    else:
        # fork is the bake-in on Linux and keeps job functions' module
        # state (registered binaries, images) available without re-import.
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            # map() preserves input order, so completion races never
            # reach us; chunksize=1 keeps long jobs load-balanced.
            outcomes = pool.map(_execute, ordered, chunksize=1)
    for key, tag, payload in outcomes:  # smallest key first, as serial would
        if tag == "err":
            raise payload
    return [(job.key, payload)
            for job, (_key, _tag, payload) in zip(ordered, outcomes)]


def fan_out(fn: Callable, arg_tuples: Sequence[Tuple], workers: int = 1) -> List[Any]:
    """Convenience wrapper: ``[fn(*args) for args in arg_tuples]`` with
    *workers* processes; results in input order."""
    jobs = [Job(key=i, fn=fn, args=tuple(args))
            for i, args in enumerate(arg_tuples)]
    return [result for _key, result in run_jobs(jobs, workers=workers)]


def cache_tally(records: Sequence[Any]) -> Dict[str, int]:
    """Run-cache disposition counts across fan-out *records*.

    Each record is a dict carrying a ``"cache"`` sub-record; records
    that carried no cache at all are ignored, so callers can apply it
    unconditionally.  Shared by ``repro run --repeat`` and the cache
    benchmark to report hit/store breakdowns.
    """
    tally: Dict[str, int] = {}
    for rec in records:
        cache = rec.get("cache")
        if not cache:
            continue
        outcome = cache.get("outcome", "?")
        tally[outcome] = tally.get(outcome, 0) + 1
    return tally
