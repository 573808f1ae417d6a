"""Oracle for replaying blocked probes from the tracer's wake-epoch memo.

A failed probe of a call in ``WAKE_GATED_CALLS`` (wait4) is replayed,
not re-executed, while ``Kernel.wake_epoch`` still reads what it read
when the call last blocked: only a channel notification (a child's
exit) can change a blocked wait4's answer.  Four checks:

* every replay is also executed here and must block again, over the
  golden runs of ``test_hotpath_identity.py``, 24 package builds and
  the fuzz programs that spawn and wait for children;
* emptying the gate, so every probe executes, changes no metric, trace
  or debug line, no full-scope checkpoint fingerprint at any barrier,
  and not the output of a run resumed after a kill while its child
  runs: the memo never reaches a snapshot;
* a probe re-armed during a child's teardown, after wait4 can see the
  zombie but before the exit notification, executes;
* an ungated futex waiter whose word a sibling changes by a plain
  store, with no FUTEX_WAKE, sees EAGAIN at its next probe.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from repro.ckpt import FULL_SCOPE, RecoveryManager
from repro.core import ContainerConfig, DetTrace, Image
from repro.core import tracer as tracer_mod
from repro.core.tracer import DetTraceTracer
from repro.cpu.machine import HostEnvironment
from repro.fuzz.corpus import load_corpus
from repro.fuzz.grammar import generate_program
from repro.fuzz.runner import check_program
from repro.kernel.errors import Errno, SyscallError
from repro.kernel.kernel import Kernel
from repro.workloads.debian import BUILT, build_dettrace, generate_population
from tests.ckpt.conftest import ckpt_config, ckpt_image, result_fp, run_baseline
from tests.fuzz.test_corpus import CORPUS_DIR
from tests.properties.test_hotpath_identity import GOLDEN, _run

CASES = sorted({case for case, _observe in GOLDEN})
#: Golden cases with a parent blocked in wait4 while children run.
WAITING_CASES = ("debian", "raxml")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def memo_hits(monkeypatch):
    """Counts the probes the memo answers."""
    seen = {"hits": 0}
    memo_hit = DetTraceTracer._memo_hit

    def counted(self, thread):
        hit = memo_hit(self, thread)
        seen["hits"] += hit
        return hit

    monkeypatch.setattr(DetTraceTracer, "_memo_hit", counted)
    return seen


@pytest.fixture
def executed_replays(monkeypatch):
    """Executes the probe behind every memo hit as well; a replayed call
    that would not have blocked again is recorded as stale."""
    seen = {"hits": 0, "stale": []}
    probe = DetTraceTracer._probe

    def checked(self, thread):
        if self._memo_hit(thread):
            seen["hits"] += 1
            outcome, _payload = self._run_handler(thread)
            if outcome != "block":
                seen["stale"].append((thread.current_syscall.name, outcome))
        return probe(self, thread)

    monkeypatch.setattr(DetTraceTracer, "_probe", checked)
    return seen


def _empty_gate(monkeypatch):
    monkeypatch.setattr(tracer_mod, "WAKE_GATED_CALLS", frozenset())


@pytest.mark.parametrize("case", CASES)
def test_replays_of_golden_runs_would_block(executed_replays, case):
    result = _run(case, ContainerConfig())
    assert result.succeeded, (result.status, result.error)
    assert executed_replays["stale"] == []
    if case in WAITING_CASES:
        assert executed_replays["hits"] > 0
    # Executing each replayed probe as well moves no digest.
    metrics = _sha(json.dumps(result.metrics.to_dict(), sort_keys=True))
    assert metrics == GOLDEN[(case, False)][0]


def test_replays_of_package_builds_would_block(executed_replays):
    specs = [spec for spec in generate_population(80, seed=29)
             if not spec.expect_dt_unsupported and not spec.syscall_storm]
    assert len(specs) >= 24
    for k, spec in enumerate(specs[:24]):
        record = build_dettrace(spec, host=HostEnvironment(entropy_seed=k))
        assert record.status == BUILT, (spec.name, record.status)
    assert executed_replays["stale"] == []
    assert executed_replays["hits"] > 0


def test_replays_of_fuzzed_waits_would_block(executed_replays):
    """The fuzz walk's spawnwait programs and the banked spawnwait
    corpus entry, over every matrix cell and the crash/resume axis."""
    specs = [spec for spec in map(generate_program, range(40))
             if any(op["op"] == "spawnwait" for op in spec.ops)]
    specs.append(next(entry.spec for entry in load_corpus(CORPUS_DIR)
                      if any(op["op"] == "spawnwait"
                             for op in entry.spec.ops)))
    assert len(specs) >= 6
    for spec in specs:
        report = check_program(spec, workers=1, rnr=False)
        assert report.ok, (spec.seed, report.failures)
    assert executed_replays["stale"] == []
    assert executed_replays["hits"] > 0


def _outputs(result):
    # Level-1 lines print syscall arguments and payloads as reprs, which
    # carry host-only numbers: function addresses (spawn_thread) and the
    # interpreter-wide pipe counter (would-block channels).
    debug = re.sub(r" at 0x[0-9a-f]+|pipe\d+\.", "",
                   "\n".join(result.debug_log))
    return {
        "status": result.status,
        "stdout": result.stdout,
        "metrics": _sha(json.dumps(result.metrics.to_dict(), sort_keys=True)),
        "trace": _sha(result.trace.to_json()),
        "debug": _sha(debug),
    }


@pytest.mark.parametrize("case", CASES)
def test_empty_gate_changes_no_output(monkeypatch, memo_hits, case):
    cfg = ContainerConfig(observe=True, debug=2)
    with_memo = _outputs(_run(case, cfg))
    hits = memo_hits["hits"]
    assert hits > 0 or case not in WAITING_CASES
    _empty_gate(monkeypatch)
    assert _outputs(_run(case, cfg)) == with_memo
    assert memo_hits["hits"] == hits


def _exiting_child(sys_):
    """Returns from main while two sibling threads still make calls."""
    def sibling(tsys):
        for _ in range(10):
            yield from tsys.stat("/")

    for _ in range(2):
        yield from sys_.spawn_thread(sibling)
    yield from sys_.stat("/")
    return 0


def _waiting_main(sys_):
    pid = yield from sys_.spawn("/bin/child")
    res = yield from sys_.waitpid(pid)
    yield from sys_.println("child %d status %d" % (res.pid, res.status))
    return 0


def test_no_replay_between_exit_status_and_notification(
        monkeypatch, executed_replays):
    """The child's teardown hands the step token to a sibling, whose
    next call is serviced and re-arms the parent's probe before the exit
    channel is notified: wait4 already sees the zombie there, so that
    probe must execute."""
    image = Image()
    image.add_binary("/bin/main", _waiting_main)
    image.add_binary("/bin/child", _exiting_child)

    def run():
        return _outputs(DetTrace(ContainerConfig(observe=True, debug=2)).run(
            image, "/bin/main", host=HostEnvironment(entropy_seed=5)))

    with_memo = run()
    assert executed_replays["stale"] == []
    assert executed_replays["hits"] > 0
    _empty_gate(monkeypatch)
    assert run() == with_memo


def _child_lifetime(monkeypatch):
    """Event ticks at which the checkpoint workload's child is spawned
    and exits, in an uninterrupted run."""
    ticks = []
    spawn_child, terminate = Kernel.spawn_child, Kernel.terminate_process

    def spawned(self, *args, **kwargs):
        nspid = spawn_child(self, *args, **kwargs)
        ticks.append(self.stats.events_processed)
        return nspid

    def terminated(self, proc, status):
        if proc.parent is not None and proc.exit_status is None:
            ticks.append(self.stats.events_processed)
        terminate(self, proc, status)

    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "spawn_child", spawned)
        patch.setattr(Kernel, "terminate_process", terminated)
        assert run_baseline().succeeded
    assert len(ticks) == 2, ticks
    return ticks


def _kill_and_resume(directory, tick, memo_hits):
    """(memo hits before the kill, (full-scope fingerprint per barrier,
    resumed-run fingerprint)).  Raw payload bytes are not compared: they
    carry the interpreter-wide pipe counter, which the canonical
    fingerprint renumbers."""
    cfg = ckpt_config(directory, tick=tick, every=3, keep=0)
    before = memo_hits["hits"]
    crashed = DetTrace(cfg).run(ckpt_image(), "/bin/main",
                                host=HostEnvironment(entropy_seed=7))
    assert crashed.status == "crashed", (crashed.status, crashed.error)
    hits = memo_hits["hits"] - before
    fingerprints = RecoveryManager(directory).chain_fingerprints(FULL_SCOPE)
    resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
    assert resumed.status == "resumed", (resumed.status, resumed.error)
    return hits, (fingerprints, result_fp(resumed))


def test_empty_gate_changes_no_checkpoint(monkeypatch, tmp_path, memo_hits):
    spawned, exited = _child_lifetime(monkeypatch)
    tick = (spawned + exited) // 2
    assert spawned < tick < exited
    hits, with_memo = _kill_and_resume(str(tmp_path / "memo"), tick,
                                       memo_hits)
    assert hits > 0  # the parent's wait4 was replayed before the kill
    _empty_gate(monkeypatch)
    hits, without = _kill_and_resume(str(tmp_path / "gate"), tick, memo_hits)
    assert hits == 0
    assert without == with_memo
    assert len(with_memo[0]) > 10
    assert with_memo[1] == result_fp(run_baseline())


def _futex_main(sys_):
    """The waiter blocks on word 0; only then does the sibling store 1,
    with no FUTEX_WAKE, and make one serviced syscall."""
    def setter(tsys):
        while not tsys.mem.get("waiting"):
            yield from tsys.sleep(0.01)
        tsys.mem["word"] = 1
        yield from tsys.stat("/")

    sys_.mem["word"] = 0
    yield from sys_.spawn_thread(setter)
    sys_.mem["waiting"] = 1
    try:
        yield from sys_.futex_wait("word", 0)
        outcome = "woken"
    except SyscallError as err:
        outcome = Errno(err.errno).name
    yield from sys_.println("futex_wait -> %s" % outcome)
    return 0


def test_futex_waiter_sees_a_plain_store():
    image = Image()
    image.add_binary("/bin/main", _futex_main)
    result = DetTrace().run(image, "/bin/main",
                            host=HostEnvironment(entropy_seed=3))
    assert result.succeeded, (result.status, result.error)
    assert result.counters.replays_blocking >= 1
    assert result.stdout == "futex_wait -> EAGAIN\n"
