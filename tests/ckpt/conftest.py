"""Shared pieces for the checkpoint/restore suite: a workload exercising
every snapshotted surface, a result fingerprint that captures each
byte-identity the resume gate promises, and the stamp oracle every test
here runs under."""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import weakref

import pytest

from repro.ckpt import snapshot
from repro.ckpt.manager import CheckpointManager
from repro.core import ContainerConfig, DetTrace, Image
from repro.core.config import CheckpointConfig
from repro.cpu.machine import HostEnvironment
from repro.faults.plan import FaultPlan, FaultRule


def _child(sys_):
    yield from sys_.write_file("child.txt", b"from child\n")
    return 0


def _workload(sys_):
    """File IO, directory listing, a child process, device randomness and
    clock reads — everything a snapshot must carry across the barrier."""
    yield from sys_.mkdir_p("out")
    for i in range(40):
        yield from sys_.write_file("out/f%d.txt" % i, b"x" * (10 + i))
    data = yield from sys_.read_file("out/f3.txt")
    yield from sys_.write_file("out/copy.bin", data)
    names = yield from sys_.listdir("out")
    yield from sys_.println(",".join(sorted(names)))
    res = yield from sys_.run("/bin/child")
    yield from sys_.println("child exit %d" % res.status)
    noise = yield from sys_.urandom(8)
    yield from sys_.write_file("out/noise.bin", noise)
    t = yield from sys_.clock_gettime()
    yield from sys_.println("t=%.3f" % t)
    return 0


def ckpt_image() -> Image:
    image = Image()
    image.add_binary("/bin/main", _workload)
    image.add_binary("/bin/child", _child)
    return image


def kill_plan(tick: int) -> FaultPlan:
    return FaultPlan(rules=(
        FaultRule(fault="kill", at_tick=tick, transient=True),))


def ckpt_config(directory: str, tick=None, every=7, full_every=4, keep=3,
                **kwargs) -> ContainerConfig:
    return ContainerConfig(
        fault_plan=kill_plan(tick) if tick is not None else None,
        checkpoint=CheckpointConfig(directory=directory, every=every,
                                    keep=keep, full_every=full_every),
        **kwargs)


def run_baseline(**kwargs):
    """An uninterrupted run of the workload (no kill, no checkpointing)."""
    return DetTrace(ContainerConfig(**kwargs)).run(
        ckpt_image(), "/bin/main", host=HostEnvironment(entropy_seed=7))


def result_fp(result) -> dict:
    """Everything the identity gate compares, bytewise."""
    return {
        "exit": result.exit_code,
        "stdout": result.stdout,
        "stderr": result.stderr,
        "tree": {path: hashlib.sha256(data).hexdigest()
                 for path, data in sorted(result.output_tree.items())},
        "counters": (dataclasses.asdict(result.counters)
                     if result.counters else None),
        "syscalls": result.syscall_count,
        "metrics": result.metrics.to_dict() if result.metrics else None,
        "trace": result.trace.to_json() if result.trace else None,
    }


@pytest.fixture
def journal_dir(tmp_path):
    return str(tmp_path / "journal")


class StampOracle:
    """The check behind delta captures' version stamps.

    At every barrier it recomputes the memo-pickle digest of every
    stamped section and compares it with the same manager's previous
    barrier: a digest that moved while its section's stamp did not is a
    missing bump, and a delta taken there would have dropped the change.
    """

    def __init__(self):
        self.barriers = 0
        #: ``(section, event tick)`` of every missed change.
        self.misses = []
        self._last = weakref.WeakKeyDictionary()

    def check(self, manager, kernel) -> None:
        stamps = snapshot.section_stamps(kernel)
        try:
            sections, _referenced = snapshot._capture_runtime(kernel)
        except snapshot.CheckpointUnsupported:
            self._last.pop(manager, None)
            return
        digests = {key: hashlib.sha256(pickle.dumps(sections[key], 4))
                   .hexdigest() for key in stamps}
        last = self._last.get(manager)
        if last is not None:
            self.misses += [(key, kernel.events_processed) for key in stamps
                            if digests[key] != last[1][key]
                            and stamps[key] == last[0][key]]
        self._last[manager] = (stamps, digests)
        self.barriers += 1


@pytest.fixture(autouse=True)
def stamp_oracle(monkeypatch):
    """Every checkpoint test runs under the stamp oracle, and fails on
    any section that changed without its stamp moving."""
    oracle = StampOracle()
    real_snapshot = CheckpointManager.snapshot

    def checked(self, kernel, durable=True):
        oracle.check(self, kernel)
        return real_snapshot(self, kernel, durable)

    monkeypatch.setattr(CheckpointManager, "snapshot", checked)
    yield oracle
    assert not oracle.misses, oracle.misses
