"""Golden identity of the run's counters off the plain stop path.

``test_hotpath_identity.py`` pins four clean runs.  The cases here pin
the paths that count from elsewhere: the fault injector and the IO
retry handlers under a fault plan, a run killed at an event tick and
its resume from the checkpoint journal, and a run with no tracer at
all.  Each case pins the sha256 of ``metrics.to_dict()``, the
``syscall_count`` and the sha256 of the crash report, so a refactor
of where and how events are counted must leave every deterministic
number unchanged.  The resume-identity tests cannot catch that: they
compare a resumed run with an uninterrupted one, and a miscount on
both sides agrees with itself.  The metrics digests were re-pinned
once, when the tracer's counters joined the metrics (see
``test_hotpath_identity.py``).
"""

from __future__ import annotations

import hashlib
import json

from repro.core import ContainerConfig, DetTrace, Image, NativeRunner
from repro.core.config import CheckpointConfig
from repro.cpu.machine import HostEnvironment
from repro.faults.plan import FaultPlan, FaultRule
from repro.guest import libc
from repro.kernel.errors import SyscallError

SOCKET = "/tmp/golden.sock"


def _writer(sys_):
    """Writes its payload into the pipe on its stdout."""
    yield from sys_.write_all(1, b"w" * 48)
    return 0


def _thread(sys_):
    yield from sys_.write_file("out/thread.txt", b"from a thread\n")
    return 0


def _main(sys_):
    """Files, a thread, pipes, a child, a socket pair, device
    randomness, a directory listing, the clock, a trapped instruction
    and a failing stat it survives."""
    yield from sys_.mkdir_p("out")
    yield from sys_.spawn_thread(_thread)
    for i in range(16):
        yield from sys_.write_file("out/f%d.txt" % i, b"x" * (20 + i))
        yield from sys_.gettimeofday()
    rfd, wfd = yield from sys_.pipe()
    pid = yield from sys_.spawn("/bin/writer", stdout=wfd, close_fds=[rfd])
    yield from sys_.close(wfd)
    data = yield from sys_.read_exact(rfd, 48)
    yield from sys_.close(rfd)
    yield from sys_.waitpid(pid)
    lfd = yield from libc.sock_stream_server(sys_, SOCKET)
    cfd = yield from libc.sock_stream_client(sys_, SOCKET)
    conn, _peer = yield from sys_.accept(lfd)
    yield from libc.send_all(sys_, cfd, b"ping")
    pong = yield from libc.recv_exact(sys_, conn, 4)
    for fd in (conn, cfd, lfd):
        yield from sys_.close(fd)
    noise = yield from sys_.urandom(8)
    names = yield from sys_.listdir("out")
    tsc = yield from sys_.rdtsc()
    try:
        yield from sys_.stat("out/f0.txt")
        missing = "no"
    except SyscallError:
        missing = "yes"
    yield from sys_.write_file("out/summary.txt", b"%d %s %s %d %s %d\n" % (
        len(data), pong, noise.hex().encode(), len(names),
        missing.encode(), tsc % 1000))
    yield from sys_.println("done %d" % len(data))
    return 0


def golden_image() -> Image:
    image = Image()
    image.add_binary("/bin/main", _main)
    image.add_binary("/bin/writer", _writer)
    return image


#: Short reads and writes on the pipe (the tracer retries both) and an
#: EIO on a stat the guest catches.
FAULT_PLAN = FaultPlan(rules=(
    FaultRule(fault="short_read", keep_bytes=3, count=4),
    FaultRule(fault="short_write", keep_bytes=2, count=4),
    FaultRule(fault="eio", syscall=("stat",), count=1),
))

KILL_TICK = 90


def _host() -> HostEnvironment:
    return HostEnvironment(entropy_seed=5)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(result):
    """(metrics sha256, syscall_count, crash report sha256 or None)."""
    metrics = _sha(json.dumps(result.metrics.to_dict(), sort_keys=True))
    report = (_sha(json.dumps(result.crash_report.to_dict(), sort_keys=True))
              if result.crash_report is not None else None)
    return metrics, result.syscall_count, report


def run_case(case: str, journal_dir: str = ""):
    """The results one golden case pins, in order."""
    if case == "faults":
        result = DetTrace(ContainerConfig(fault_plan=FAULT_PLAN)).run(
            golden_image(), "/bin/main", host=_host())
        assert result.succeeded, (result.status, result.error)
        return [result]
    if case == "kill-resume":
        cfg = ContainerConfig(
            fault_plan=FaultPlan(rules=(FaultRule(
                fault="kill", at_tick=KILL_TICK, transient=True),)),
            checkpoint=CheckpointConfig(directory=journal_dir, every=7,
                                        keep=3, full_every=4))
        killed = DetTrace(cfg).run(golden_image(), "/bin/main", host=_host())
        assert killed.status == "crashed", (killed.status, killed.error)
        resumed = DetTrace(cfg).resume(golden_image(), "/bin/main")
        assert resumed.status == "resumed", (resumed.status, resumed.error)
        return [killed, resumed]
    if case == "native":
        result = NativeRunner().run(golden_image(), "/bin/main", host=_host())
        assert result.exit_code == 0, (result.status, result.error)
        return [result]
    raise ValueError(case)


#: case -> one (metrics sha256, syscall_count, report sha256) per result.
GOLDEN = {
    "faults": [
        ("e58645ec35066337e42b7773290e98b8d8557c1f5c64c9d00789e5d163d4cb23",
         104,
         "874188840c2b5d4c1c90713d76703a5668a7a5b48d08c37036ab4568ebe429ab")],
    "kill-resume": [
        ("42c90cdc5ceb5e09ae20a562bc6a18c1d894231eab7fd3735f61f677394696a1",
         89,
         "cfeaf178c88f56fcfc01532e659d97188058368fb3ca0a0bdef1f50a9132dc48"),
        ("681a68fdec5547486d612902759a918e2dfed6c4da73584c6fb44060f876889d",
         98, None)],
    "native": [
        ("7ff91948c701bb8ebb624383f17bd532668ae87d77f852197ef5726d3119e640",
         82, None)],
}


def test_fault_plan_run_matches_golden():
    assert [_digest(r) for r in run_case("faults")] == GOLDEN["faults"]


def test_killed_run_and_resume_match_golden(tmp_path):
    got = [_digest(r) for r in run_case("kill-resume", str(tmp_path))]
    assert got == GOLDEN["kill-resume"]


def test_native_run_matches_golden():
    assert [_digest(r) for r in run_case("native")] == GOLDEN["native"]


if __name__ == "__main__":
    # Prints the table above for the current code.
    import tempfile

    for name in ("faults", "kill-resume", "native"):
        with tempfile.TemporaryDirectory() as tmp:
            print("    %r: %r," % (name, [_digest(r)
                                          for r in run_case(name, tmp)]))
