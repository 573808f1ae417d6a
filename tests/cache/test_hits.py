"""A cache hit returns what the run produced: the entry is the result
itself, so a hit's capture equals the fresh run's in full, trace
included, on every fault storm a run survives."""
import pytest

from repro.core import CacheConfig, ContainerConfig, DetTrace
from repro.cpu.machine import HostEnvironment
from repro.diag import SAME_HOST, RunCapture, diff_captures
from tests.integration.test_quasi_determinism import (
    MATRIX_PLANS,
    workload_image,
)

pytestmark = pytest.mark.cache

#: Every storm the workload survives: the kill storm crashes the run,
#: and a crashed run is never stored.
SURVIVED = sorted(kind for kind in MATRIX_PLANS if kind != "kill")


def test_eleven_storms_are_survived():
    assert len(SURVIVED) == 11


@pytest.mark.parametrize("kind", SURVIVED)
def test_hit_captures_like_the_fresh_run(tmp_path, kind):
    cfg = ContainerConfig(fault_plan=MATRIX_PLANS[kind], observe=True,
                          cache=CacheConfig(directory=str(tmp_path)))
    host = HostEnvironment(entropy_seed=1)
    fresh = DetTrace(cfg).run(workload_image(), "/bin/main", host=host)
    hit = DetTrace(cfg).run(workload_image(), "/bin/main", host=host)
    assert (fresh.status, fresh.cache["outcome"]) == ("ok", "store")
    assert hit.cache["outcome"] == "hit" and not hit.cache["executed"]
    report = diff_captures(RunCapture.from_result(fresh, "fresh"),
                           RunCapture.from_result(hit, "hit"),
                           scope=SAME_HOST)
    assert not report.diverged, report.format()
    assert hit.trace.to_json() == fresh.trace.to_json()
    assert hit.counters == fresh.counters
    assert hit.debug_log == fresh.debug_log
    assert hit.host is host
