"""repro.parallel: deterministic fan-out of independent jobs.

The contract under test: the result list (and any raised error) is a
pure function of the jobs, independent of the worker count — completion
races in the pool must never be observable.
"""
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.kernel.errors import Errno, SyscallError
from repro.parallel import (
    Job,
    WorkerError,
    default_workers,
    fan_out,
    run_jobs,
)

# Workers are forked processes: job functions must be module-level.


def _square(x):
    return x * x


def _tag(name, n):
    return "%s:%d" % (name, n)


def _boom(x):
    if x % 2:
        raise ValueError("odd %d" % x)
    return x


def test_results_sorted_by_key():
    jobs = [Job(key=k, fn=_square, args=(k,)) for k in (3, 1, 2)]
    assert run_jobs(jobs) == [(1, 1), (2, 4), (3, 9)]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_worker_count_invisible(workers):
    jobs = [Job(key=k, fn=_tag, args=("j", k)) for k in range(8)]
    assert run_jobs(jobs, workers=workers) \
        == [(k, "j:%d" % k) for k in range(8)]


def test_serial_and_parallel_identical():
    jobs = [Job(key=k, fn=_square, args=(k,)) for k in range(10)]
    assert run_jobs(jobs, workers=1) == run_jobs(jobs, workers=4)


@pytest.mark.parametrize("workers", [1, 3])
def test_error_precedence_is_smallest_key(workers):
    """Key 1 fails and key 3 fails; serial execution would hit key 1
    first, so every worker count must raise key 1's error."""
    jobs = [Job(key=k, fn=_boom, args=(k,)) for k in (3, 0, 1, 2)]
    with pytest.raises(ValueError, match="odd 1"):
        run_jobs(jobs, workers=workers)


def test_duplicate_keys_rejected():
    jobs = [Job(key=1, fn=_square, args=(1,)),
            Job(key=1, fn=_square, args=(2,))]
    with pytest.raises(ValueError, match="unique"):
        run_jobs(jobs)


def test_kwargs_and_empty_inputs():
    assert run_jobs([]) == []
    jobs = [Job(key="a", fn=_tag, args=("x",), kwargs={"n": 7})]
    assert run_jobs(jobs, workers=2) == [("a", "x:7")]


def _raise_syscall_error(x):
    # SyscallError(errno, syscall, detail) has a custom __init__ whose
    # args don't round-trip through the default Exception pickling: it
    # pickles fine but explodes on *unpickle* inside pool.map's result
    # plumbing — exactly the non-deterministic teardown the carrier
    # prevents.
    raise SyscallError(Errno.ENOSPC, "write", "disk full on job %d" % x)


def test_unpicklable_exception_does_not_crash_the_pool():
    jobs = [Job(key=k, fn=_raise_syscall_error, args=(k,))
            for k in range(4)]
    with pytest.raises(WorkerError) as exc_info:
        run_jobs(jobs, workers=3)
    err = exc_info.value
    assert err.type_name == "SyscallError"
    assert err.errno == int(Errno.ENOSPC)
    assert "job 0" in err.message  # smallest key's error, as serial would
    assert "SyscallError" in err.format_traceback()


@pytest.mark.parametrize("workers", [1, 3])
def test_carrier_identical_serial_and_pooled(workers):
    """The raised error must be a pure function of the jobs: the same
    WorkerError whether the exception crossed a process boundary or not."""
    jobs = [Job(key=k, fn=_raise_syscall_error, args=(k,))
            for k in range(3)]
    with pytest.raises(WorkerError) as exc_info:
        run_jobs(jobs, workers=workers)
    assert exc_info.value.type_name == "SyscallError"
    assert exc_info.value.errno == int(Errno.ENOSPC)
    assert "job 0" in exc_info.value.message


def test_worker_error_survives_pickle():
    err = WorkerError("SyscallError", "boom", errno=28, tb="trace\n")
    back = pickle.loads(pickle.dumps(err))
    assert isinstance(back, WorkerError)
    assert (back.type_name, back.message, back.errno, back.tb) \
        == ("SyscallError", "boom", 28, "trace\n")


def test_picklable_exceptions_pass_through_unwrapped():
    # ValueError round-trips, so callers keep catching the real type
    # (the existing error-precedence contract depends on this).
    jobs = [Job(key=0, fn=_boom, args=(1,))]
    with pytest.raises(ValueError, match="odd 1"):
        run_jobs(jobs, workers=2)


def test_workers_clamped_to_job_count():
    # More workers than jobs must not spin up idle processes or change
    # anything observable.
    jobs = [Job(key=0, fn=_square, args=(5,))]
    assert run_jobs(jobs, workers=16) == [(0, 25)]


def test_fan_out_preserves_input_order():
    assert fan_out(_tag, [("a", 1), ("b", 2), ("c", 3)], workers=2) \
        == ["a:1", "b:2", "c:3"]


def test_default_workers_bounds():
    n = default_workers()
    assert 1 <= n <= 8


def test_reprotest_jobs_identity():
    """A reprotest double-build reaches the same verdict and artifact
    diff whether its two builds run serially or on two workers."""
    from repro.repro_tools.reprotest import reprotest_dettrace
    from repro.workloads.debian.package import PackageSpec

    spec = PackageSpec(name="par-ident", embeds_timestamp=True)
    serial = reprotest_dettrace(spec, jobs=1)
    parallel = reprotest_dettrace(spec, jobs=2)
    assert serial.verdict == parallel.verdict
    assert serial.first.artifacts == parallel.first.artifacts
    assert serial.second.artifacts == parallel.second.artifacts


@pytest.mark.parametrize("package", ["repro.repro_tools", "repro.fuzz",
                                     "repro.diag"])
def test_importing_loads_no_multiprocessing(package):
    """A serial caller never builds a pool, so importing a package that
    can fan out must not pay for loading ``multiprocessing``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, %s; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'multiprocessing'))" % package],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
