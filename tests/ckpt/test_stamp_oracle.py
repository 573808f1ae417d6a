"""The stamp oracle over the fuzz crash/resume axis and over programs
that move every stamped section, and its own negative control.

Every test in this directory runs under the stamp oracle (conftest):
at every barrier it recomputes the memo-pickle digest of each stamped
section and fails when a digest moved while that section's stamp did
not.  Here it also watches the fuzz stage's crash/resume axis, on every
corpus program and on 50 programs of the fuzz walk, and barriers at
every event of programs built to move the sections the other tests
rarely move alone: pipes, FIFOs and sockets; a native alarm; processes
queued for a core; and, in a run with no tracer, parked threads and
host entropy draws.
"""

import glob
import json
import os

import pytest

from repro.ckpt import snapshot
from repro.ckpt.manager import CheckpointManager
from repro.core import ContainerConfig, DetTrace, Image
from repro.cpu.machine import HostEnvironment
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.grammar import generate_program
from repro.fuzz.runner import MATRIX, _check_ckpt_resume, run_cell
from repro.guest import libc
from repro.kernel.kernel import Kernel
from repro.kernel.ops import Instr
from repro.kernel.types import O_WRONLY, SIGALRM

from .conftest import ckpt_config, ckpt_image
from .test_journal_identity import ipc_image

pytestmark = pytest.mark.ckpt

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "fuzz", "corpus")


def _corpus():
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.json"))):
        with open(path) as fh:
            yield pytest.param(CorpusEntry.from_dict(json.load(fh)).spec,
                               id=os.path.basename(path)[:-len(".json")])


def _walk():
    for seed in range(50):
        yield pytest.param(generate_program(seed), id="walk-%d" % seed)


@pytest.mark.parametrize("spec", list(_corpus()) + list(_walk()))
def test_fuzz_crash_resume_axis_under_the_oracle(spec, stamp_oracle):
    base = run_cell(spec.to_dict(), MATRIX[0].to_dict())
    assert _check_ckpt_resume(spec, MATRIX[0], base) == []
    events = base.metrics["totals"]["events_processed"]
    assert stamp_oracle.barriers > 0 or events < 8


def test_a_missing_bump_is_reported(journal_dir, monkeypatch,
                                    stamp_oracle):
    """Negative control: with the stdout stamp pinned, the oracle names
    stdout at the barriers where the workload printed."""
    monkeypatch.setitem(snapshot._STAMPS, "stdout", lambda kernel: 0)
    DetTrace(ckpt_config(journal_dir, every=1, full_every=4)).run(
        ckpt_image(), "/bin/main", host=HostEnvironment(entropy_seed=7))
    missed = {key for key, _tick in stamp_oracle.misses}
    assert missed == {"stdout"}
    del stamp_oracle.misses[:]


def _on_alarm(sys_, signum):
    yield from sys_.write_file("alarm.log", b"signal %d\n" % signum)


def _alarms(sys_):
    yield from sys_.sigaction(SIGALRM, _on_alarm)
    yield from sys_.alarm(0.001)
    yield from sys_.alarm(0)                     # cancel
    yield from sys_.alarm(0.002)
    yield from sys_.sleep(0.01)                  # the alarm fires
    yield from sys_.println("woke")
    return 0


def _worker(sys_):
    yield from sys_.compute(0.002)
    yield from sys_.getpid()
    yield from sys_.compute(0.001)
    return 0


def _processes(sys_):
    """Processes (which, unlike threads, are not serialized) computing
    at once on one core: some wait in the core queue."""
    pids = []
    for _ in range(3):
        pids.append((yield from sys_.spawn("/bin/worker")))
    yield from sys_.compute(0.003)
    for pid in pids:
        yield from sys_.waitpid(pid)
    yield from sys_.println("reaped")
    return 0


def _fifo(sys_):
    """One process alone on a FIFO: its reader end opens in an event of
    its own, and unlinking the closed FIFO releases its pipe."""
    yield from sys_.mkfifo("f")
    rfd = yield from sys_.open("f")
    wfd = yield from sys_.open("f", O_WRONLY)
    yield from sys_.write(wfd, b"through the fifo\n")
    data = yield from sys_.read(rfd, 17)
    yield from sys_.close(wfd)
    yield from sys_.close(rfd)
    yield from sys_.unlink("f")
    yield from sys_.println(data.decode().strip())
    return 0


def _unix(sys_):
    """An AF_UNIX connect: no port drawn, so only the connect itself
    moves the socket registry."""
    lfd = yield from libc.sock_stream_server(sys_, "/tmp/s.sock", backlog=2)
    cfd = yield from libc.sock_stream_client(sys_, "/tmp/s.sock")
    conn, _peer = yield from sys_.accept(lfd)
    yield from libc.send_all(sys_, cfd, b"ping\n")
    got = yield from libc.recv_exact(sys_, conn, 5)
    yield from sys_.println(got.decode().strip())
    return 0


def _reader(sys_):
    data = yield from sys_.read(int(sys_.argv[1]), 5)
    yield from sys_.println("child read %s" % data.decode())
    return 0


def _native(sys_):
    """Natively (no tracer), blocking calls park, host entropy feeds
    getrandom and rdrand, and waiters for a core are picked at random."""
    rfd, wfd = yield from sys_.pipe()
    child = yield from sys_.spawn("/bin/reader",
                                  argv=["reader", str(rfd)])
    yield from sys_.getrandom(8)
    yield Instr("rdrand")
    yield from sys_.getpid()
    workers = []
    for _ in range(3):
        workers.append((yield from sys_.spawn("/bin/worker")))
    yield from sys_.compute(0.004)
    yield from sys_.getpid()
    yield from sys_.write(wfd, b"hello")
    for pid in [child] + workers:
        yield from sys_.waitpid(pid)
    yield from sys_.println("native done")
    return 0


def _image(main):
    image = Image()
    image.add_binary("/bin/main", main)
    image.add_binary("/bin/worker", _worker)
    image.add_binary("/bin/reader", _reader)
    return image


CASES = {
    "ipc": (ipc_image, {"deterministic_loopback": True}, {}),
    "native-alarm": (lambda: _image(_alarms), {"emulate_timers": False}, {}),
    "core-queue": (lambda: _image(_processes), {}, {"visible_cores": 1}),
    "fifo": (lambda: _image(_fifo), {}, {}),
    "unix-socket": (lambda: _image(_unix), {"deterministic_loopback": True},
                    {}),
}


@pytest.mark.parametrize("full_every", [1, 4])
def test_every_event_of_a_native_run_under_the_oracle(tmp_path, full_every,
                                                      stamp_oracle):
    """No tracer: the kernel parks blocked calls itself (a DetTrace run
    never does), draws host entropy and picks among core waiters."""
    host = HostEnvironment(entropy_seed=7, visible_cores=1)
    kernel = Kernel(host)
    _image(_native).install(kernel, host.build_path)
    kernel.ckpt = CheckpointManager(str(tmp_path / "j"), every=1, keep=0,
                                    full_every=full_every)
    kernel.boot("/bin/main", cwd_path=host.build_path)
    kernel.run()
    assert kernel.stdout.text().endswith("native done\n")
    assert kernel.ckpt.last_error == ""
    assert stamp_oracle.barriers >= 20


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("full_every", [1, 4])
def test_every_event_under_the_oracle(tmp_path, case, full_every,
                                      stamp_oracle):
    image, config, host = CASES[case]
    baseline = DetTrace(ContainerConfig(**config)).run(
        image(), "/bin/main", host=HostEnvironment(entropy_seed=7, **host))
    assert baseline.exit_code == 0, (baseline.status, baseline.error)
    result = DetTrace(ckpt_config(str(tmp_path / "j"), every=1,
                                  full_every=full_every, keep=0,
                                  **config)).run(
        image(), "/bin/main", host=HostEnvironment(entropy_seed=7, **host))
    assert result.exit_code == 0, (result.status, result.error)
    assert result.stdout == baseline.stdout
    assert stamp_oracle.barriers >= 8


@pytest.mark.parametrize("draw", [
    lambda h: h.entropy_bytes(4), lambda h: h.entropy_u64(),
    lambda h: h.sched_jitter(), lambda h: h.sched_choice_index(3),
    lambda h: h.aslr_base()],
    ids=["entropy_bytes", "entropy_u64", "sched_jitter",
         "sched_choice_index", "aslr_base"])
def test_every_host_draw_moves_the_host_stamp(draw):
    """Each draw moves the stamp by itself.  The oracle cannot tell an
    ASLR draw apart: every spawn draws its start jitter in the same
    event."""
    host = HostEnvironment(entropy_seed=7, aslr_enabled=True)
    before = host._state_version
    draw(host)
    assert host._state_version != before
