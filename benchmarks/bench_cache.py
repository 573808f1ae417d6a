"""Run-cache payoff: cold package sweep vs warm memoized sweep.

The cache's one number that matters: a warm sweep over N already-built
packages must re-execute **zero** guests — every job resolves to a
``hit`` with ``executed=False`` — and finish at least 5x faster than the
cold sweep that populated the store.  Both sweeps run the same N
distinct "package" images through :func:`repro.parallel.run_jobs`
sharing one cache directory, exactly the §7 package-sweep shape, and the
warm results must be byte-identical to the cold ones (a hit reproduces
every deterministic surface).  A third sweep in ``--cache=verify`` mode
re-executes everything and must come back all ``verify_ok`` — the
store's contents agree with reality.

The warm-lookup rate (keys resolved per reference second) is the
trend-gated number: it prices the fingerprint + CAS read path, which is
pure overhead on every hit.  Each round sweeps a fresh store cold, then
warm, timed through :mod:`benchmarks.gate`; the speedup is the median
of the per-round cold/warm ratios.
"""
import os
import shutil
import tempfile

import pytest

from repro.core import CacheConfig, ContainerConfig, DetTrace, Image
from repro.cpu.machine import HostEnvironment
from repro.parallel import Job, cache_tally, run_jobs
from repro.repro_tools.hashing import tree_digest

from . import gate
from .conftest import scaled

ROUNDS = scaled(5)
#: Distinct package images per sweep; each gets its own run key.
PACKAGES = scaled(6)
#: Files each "package build" writes — enough guest work that execution
#: dwarfs the key computation the warm path still pays.
FILES = 100
OUT_PATH = os.path.join(gate.ROOT, "BENCH_cache.json")


def _pkg_guest(sys_):
    name = yield from sys_.read_file("/etc/package")
    tag = name.strip()
    yield from sys_.mkdir_p("out")
    for i in range(FILES):
        yield from sys_.write_file("out/f%d.txt" % i,
                                   tag + b":" + b"x" * (10 + i))
    for i in range(0, FILES, 9):
        data = yield from sys_.read_file("out/f%d.txt" % i)
        yield from sys_.write_file("out/c%d.bin" % i, data)
    names = yield from sys_.listdir("out")
    yield from sys_.println("%s built %d entries"
                            % (tag.decode("utf-8"), len(names)))
    return 0


def _pkg_image(index: int) -> Image:
    image = Image()
    image.add_binary("/bin/build", _pkg_guest)
    image.add_file("/etc/package", "pkg-%03d\n" % index)
    return image


def _build_package(index: int, cache_dir: str, mode: str):
    """Module-level (picklable) worker: one package build, reduced to a
    record the pool can ship home."""
    cfg = ContainerConfig(cache=CacheConfig(directory=cache_dir, mode=mode))
    result = DetTrace(cfg).run(_pkg_image(index), "/bin/build",
                               host=HostEnvironment(entropy_seed=11))
    assert result.exit_code == 0, (result.status, result.error)
    return {
        "index": index,
        "tree": tree_digest(result.output_tree),
        "stdout": result.stdout,
        "syscalls": result.syscall_count,
        "cache": ({"outcome": result.cache["outcome"],
                   "key": result.cache["key"],
                   "executed": result.cache["executed"]}
                  if result.cache else None),
    }


def _sweep(cache_dir: str, mode: str):
    """One fan-out over every package; returns the job records."""
    jobs = [Job(key=i, fn=_build_package, args=(i, cache_dir, mode))
            for i in range(PACKAGES)]
    return [record for _key, record in run_jobs(jobs, workers=1)]


def measure_cache_payoff(work):
    """ROUNDS rounds, each a cold then a warm sweep over a fresh store
    under *work*; then a verify sweep over the last store."""
    def sweep(r):
        return _sweep(os.path.join(work, str(r)), "write")

    runs = gate.interleave({"cold": sweep, "warm": sweep}, ROUNDS)
    for (cold, _), (warm, _) in zip(runs["cold"], runs["warm"]):
        # A hit reproduces every deterministic surface bytewise.
        for a, b in zip(cold, warm):
            assert (a["tree"], a["stdout"], a["syscalls"]) \
                == (b["tree"], b["stdout"], b["syscalls"]), a["index"]
    cold, warm = runs["cold"][-1][0], runs["warm"][-1][0]
    verified = _sweep(os.path.join(work, str(ROUNDS - 1)), "verify")
    warm_wall = gate.seconds(runs["warm"])
    return {
        "rounds": ROUNDS,
        "packages": PACKAGES,
        "workload_syscalls": sum(rec["syscalls"] for rec in cold),
        "cold_wall_s": round(gate.seconds(runs["cold"]), 6),
        "warm_wall_s": round(warm_wall, 6),
        "speedup": round(gate.median_ratio(runs, "cold", "warm"), 2),
        "warm_reexecutions": sum(1 for rec in warm
                                 if rec["cache"]["executed"]),
        "warm_lookups_per_s": round(PACKAGES / warm_wall, 1),
        "cold_tally": cache_tally(cold),
        "warm_tally": cache_tally(warm),
        "verify_tally": cache_tally(verified),
    }


@pytest.mark.cache
def test_cache_payoff(capsys):
    work = tempfile.mkdtemp(prefix="bench-cache-", dir=gate.TMPFS)
    try:
        with gate.pinned():
            report = measure_cache_payoff(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = gate.write(OUT_PATH, "cache", {
        "speedup": {"value": report["speedup"], "min": 5.0},
        # Wide for the same reason as the ckpt trend: it exists to catch
        # a grossly regressed hit path (e.g. re-executing on hits), not
        # single-digit drift.
        "warm_lookups_per_s": {"value": report["warm_lookups_per_s"],
                               "better": "higher", "bound": 0.40},
    }, report)
    with capsys.disabled():
        print()
        print("cache: %d packages cold %.4fs -> warm %.4fs (%.1fx), "
              "%d re-executions"
              % (report["packages"], report["cold_wall_s"],
                 report["warm_wall_s"], report["speedup"],
                 report["warm_reexecutions"]))
        print("  cold %r  warm %r  verify %r"
              % (report["cold_tally"], report["warm_tally"],
                 report["verify_tally"]))
        print("-> %s" % os.path.basename(OUT_PATH))
    # The memoization contract, as hard gates:
    assert report["cold_tally"] == {"store": PACKAGES}
    assert report["warm_tally"] == {"hit": PACKAGES}
    assert report["warm_reexecutions"] == 0, \
        "warm sweep re-executed a guest"
    assert report["verify_tally"] == {"verify_ok": PACKAGES}
    gate.check(record)
