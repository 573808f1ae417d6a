"""Golden identity of the tracer stop path.

The per-stop bookkeeping (span construction, counter keys, the
threads-peak gauge, the live-thread test of thread serialization) is a
host-time concern only: rewriting it must leave every deterministic
output byte-identical.  Each case below pins the sha256 of
``metrics.to_dict()`` and of ``trace.to_json()`` for one fixed run, with
the event stream on and off.  The pinned digests were computed before
the stop path was made allocation-free, so any drift in virtual times,
the phase profile, counters, gauges, histograms, schedules or traces
fails here.  They were re-pinned once, when the tracer's counters
joined the metrics and the syscalls served by the ``passthrough``
default started counting as ``passthrough``: each new digest is the
old run's output with exactly those relabels and additions applied.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core import ContainerConfig, DetTrace, Image
from repro.core.tracer import DetTraceTracer
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
        "4e3eac03f1c905a7b86d573b254ab396b2a6a59e9f4ba577af19c311afd90002",
        None),
    ("raxml", True): (
        "4e3eac03f1c905a7b86d573b254ab396b2a6a59e9f4ba577af19c311afd90002",
        "40481a3620390f1e61941d4f7b260236bd378c7b091e69d03cdda5299dddaded"),
    ("alexnet", False): (
        "0ffe90fa7dffbacd74b4696b5f3fba4259f1ae9dcceb863cd86ba635093cee1b",
        None),
    ("alexnet", True): (
        "0ffe90fa7dffbacd74b4696b5f3fba4259f1ae9dcceb863cd86ba635093cee1b",
        "4d551757fec549cf5381b600ff8f3d76dbd5b6d91e7529ca62b00df70178f781"),
    ("debian", False): (
        "3d3dbdfa2626dc1db824a15735cb9687d76cb6b8caab7509cf0a2befd1c93506",
        None),
    ("debian", True): (
        "3d3dbdfa2626dc1db824a15735cb9687d76cb6b8caab7509cf0a2befd1c93506",
        "d150b0cdd42c965aae8fe1a23ed52dd026f8c2a6d92f0ed0d4363d34a4b7b5f8"),
    ("exec-siblings", False): (
        "3b1e080d79dcaa6bd3abde77f0ef546f2d903f263f0775f6f060023b29fa354d",
        None),
    ("exec-siblings", True): (
        "3b1e080d79dcaa6bd3abde77f0ef546f2d903f263f0775f6f060023b29fa354d",
        "6c2a4b23ec074a7bad560ee0648318c462ef04f2eb2428891032885520fb44ad"),
}


@pytest.mark.parametrize("case,observe", sorted(GOLDEN))
def test_stop_path_outputs_match_golden(case, observe):
    assert digests(case, observe) == GOLDEN[(case, observe)]


#: case -> sha256 of the tracer's charge state after every service and
#: probe (see test_stop_charges_match_golden), pinned while each stop
#: still made one charge() call per fixed cost.
CHARGE_GOLDEN = {
    "alexnet":
        "c59c5b4e837bd640a242e7642e96c7fd62332f78737dae652f94c160bf383653",
    "debian":
        "c3667da3dfd098672a2d25048b1d3d3adb7fb420bf46762fd80f46ff396a6411",
    "exec-siblings":
        "4f5031f56782843ea7554bd1f80da2b75801480e46403a3920067d2b804a014e",
    "raxml":
        "7237d6ae71347f718893fb1084a49c75bd85d9b863ebf8f31d7b3f6759d65bea",
}


@pytest.mark.parametrize("case", sorted(CHARGE_GOLDEN))
def test_stop_charges_match_golden(monkeypatch, case):
    """busy_until, the span cost and the phase totals, bit for bit
    (float.hex), after every service and probe.  The digests above miss
    a busy_until that falls behind the clock, because the kernel never
    schedules a resume before the clock."""
    seen = []
    for name in ("_service", "_probe"):
        def recorded(self, thread, step=getattr(DetTraceTracer, name),
                     name=name):
            done = step(self, thread)
            seen.append("%s %s %s %s %s" % (
                name, done, self.busy_until.hex(), self._span_cost.hex(),
                ",".join("%s=%s" % (phase, cost.hex()) for phase, cost
                         in self.obs.profile.totals.items())))
            return done

        monkeypatch.setattr(DetTraceTracer, name, recorded)
    assert _run(case, ContainerConfig()).succeeded
    assert _sha("\n".join(seen)) == CHARGE_GOLDEN[case]


if __name__ == "__main__":
    # Prints the table above for the current code.
    for case in ("raxml", "alexnet", "debian", "exec-siblings"):
        for observe in (False, True):
            print("    (%r, %r): %r," % (case, observe,
                                        digests(case, observe)))
