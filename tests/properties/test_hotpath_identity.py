"""Golden identity of the tracer stop path.

The per-stop bookkeeping (span construction, counter keys, the
threads-peak gauge, the live-thread test of thread serialization) is a
host-time concern only: rewriting it must leave every deterministic
output byte-identical.  Each case below pins the sha256 of
``metrics.to_dict()`` and of ``trace.to_json()`` for one fixed run, with
the event stream on and off.  The pinned digests were computed before
the stop path was made allocation-free, so any drift in virtual times,
the phase profile, counters, gauges, histograms, schedules or traces
fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core import ContainerConfig, DetTrace, Image
from repro.cpu.machine import HostEnvironment
from repro.workloads.bioinf import RAXML, tool_image
from repro.workloads.debian import BUILT, build_dettrace, generate_population
from repro.workloads.ml import ALEXNET, tf_image


def _sibling(sys_):
    for i in range(60):
        yield from sys_.compute(2e-5)
        yield from sys_.stat("/")
        if i % 16 == 0:
            yield from sys_.write_file("sib-%d.txt" % i, b"s" * i)
    return 0


def _exec_main(sys_):
    """Spawns three threads, then execs while all three are still alive
    (execve tears them down without the thread-exit hook)."""
    for _ in range(3):
        yield from sys_.spawn_thread(_sibling)
    for i in range(5):
        yield from sys_.compute(1e-5)
        yield from sys_.write_file("pre-%d.txt" % i, b"p" * (i + 1))
    yield from sys_.execve("/bin/after", ["after", "ok"])
    return 1


def _after(sys_):
    tsc = yield from sys_.rdtsc()  # a trapped instruction: a TRAP event
    yield from sys_.println("after exec %s %d" % (sys_.argv[1], tsc))
    yield from sys_.write_file("after.txt", b"done\n")
    return 0


def exec_siblings_image() -> Image:
    """A program that execs while sibling threads are alive."""
    image = Image()
    image.add_binary("/bin/main", _exec_main)
    image.add_binary("/bin/after", _after)
    return image


def _package():
    for spec in generate_population(40, seed=3):
        if not spec.expect_dt_unsupported and not spec.syscall_storm:
            return spec
    raise AssertionError("no buildable package in the population")


def _run(case: str, cfg: ContainerConfig):
    host = HostEnvironment(entropy_seed=11)
    if case == "raxml":
        image = tool_image(dataclasses.replace(RAXML, n_units=60))
        return DetTrace(cfg).run(image, "/usr/bin/raxml",
                                 argv=["raxml", "16"], host=host)
    if case == "alexnet":
        image = tf_image(dataclasses.replace(ALEXNET, steps=2))
        return DetTrace(cfg).run(image, "/usr/bin/tensorflow", host=host)
    if case == "debian":
        record = build_dettrace(_package(), config=cfg, host=host)
        assert record.status == BUILT, record.status
        return record.result
    if case == "exec-siblings":
        return DetTrace(cfg).run(exec_siblings_image(), "/bin/main",
                                 host=host)
    raise ValueError(case)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(case: str, observe: bool):
    """(metrics digest, trace digest or None) of one golden run."""
    result = _run(case, ContainerConfig(observe=observe))
    assert result.succeeded, (case, result.status, result.error)
    metrics = _sha(json.dumps(result.metrics.to_dict(), sort_keys=True))
    trace = _sha(result.trace.to_json()) if result.trace else None
    return metrics, trace


#: (case, observe) -> (metrics sha256, trace sha256 or None).
GOLDEN = {
    ("raxml", False): (
        "9fbf155450fde926cce37a1783dc9d7bf0825157863f53ed6e3b9f775d5fc8b9",
        None),
    ("raxml", True): (
        "9fbf155450fde926cce37a1783dc9d7bf0825157863f53ed6e3b9f775d5fc8b9",
        "e3a176df3957bd5c810541ebf1ce9719315811c393fb62a701c898e4858e9ec7"),
    ("alexnet", False): (
        "c136dcb4c17f84f2238aad1638de37776c31cc7d010077cf1dd7e380762a18eb",
        None),
    ("alexnet", True): (
        "c136dcb4c17f84f2238aad1638de37776c31cc7d010077cf1dd7e380762a18eb",
        "5745897dc364d1628f005316ad396256043d2b7ae0d66b1fbb7b65ec7fd3d2c5"),
    ("debian", False): (
        "9123738b6d70634593917357be9b57069ccc3c1ef7f8e47be276e8727d707eaf",
        None),
    ("debian", True): (
        "9123738b6d70634593917357be9b57069ccc3c1ef7f8e47be276e8727d707eaf",
        "409f0dc4e32e29102887e7b1d66e3e8d30865efcf45db3631c03dc6c8a44a9ff"),
    ("exec-siblings", False): (
        "2f54633d94a98d550e567501231f79a24d0d84062d6b658a4f61ebc883c8402b",
        None),
    ("exec-siblings", True): (
        "2f54633d94a98d550e567501231f79a24d0d84062d6b658a4f61ebc883c8402b",
        "342a1595918b5e5f1d68e13abff5b44971b97ae5f1ac20edc6270e2136f8c3f9"),
}


@pytest.mark.parametrize("case,observe", sorted(GOLDEN))
def test_stop_path_outputs_match_golden(case, observe):
    assert digests(case, observe) == GOLDEN[(case, observe)]


if __name__ == "__main__":
    # Prints the table above for the current code.
    for case in ("raxml", "alexnet", "debian", "exec-siblings"):
        for observe in (False, True):
            print("    (%r, %r): %r," % (case, observe,
                                        digests(case, observe)))
