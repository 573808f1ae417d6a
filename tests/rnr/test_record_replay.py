"""rr-analog record/replay (SS7.1.3)."""
import re

import pytest

from repro.core import CRASHED, DEADLOCK, OK, TIMEOUT, Image, NativeRunner
from repro.cpu.machine import HostEnvironment
from repro.kernel.types import SIGKILL
from repro.rnr import record, replay


def image_for(main, **binaries):
    img = Image()
    img.add_binary("/bin/main", main)
    for path, factory in binaries.items():
        img.add_binary(path, factory)
    return img


def nondet_program(sys):
    t = yield from sys.time_syscall()
    r = yield from sys.getrandom(8)
    yield from sys.write_file("out", "%d %s" % (t, r.hex()))
    yield from sys.println("t=%d" % t)
    return 0


class TestRecord:
    def test_recording_captures_results(self):
        img = image_for(nondet_program)
        res, recording = record(img, "/bin/main",
                                host=HostEnvironment(entropy_seed=3))
        assert res.status == OK
        assert res.exit_code == 0
        events = {e.syscall for e in recording.streams[(0,)]}
        assert "time" in events
        assert "getrandom" in events

    def test_recordings_of_two_runs_differ(self):
        """rr replays ONE execution; it does not make runs agree."""
        img = image_for(nondet_program)
        r1, _ = record(img, "/bin/main", host=HostEnvironment(entropy_seed=1))
        r2, _ = record(img, "/bin/main", host=HostEnvironment(entropy_seed=2,
                                                              boot_epoch=2e9))
        assert r1.output_tree != r2.output_tree

    def test_recording_has_storage_cost(self):
        img = image_for(nondet_program)
        _, recording = record(img, "/bin/main")
        assert recording.storage_size() > 0

    def test_exotic_ioctl_crashes_recorder(self):
        def main(sys):
            from repro.kernel.errors import SyscallError
            try:
                yield from sys.ioctl(1, "TCGETS2")
            except SyscallError:
                pass
            return 0

        res, _ = record(image_for(main), "/bin/main")
        assert res.status == CRASHED
        assert res.error == "rr crash: unsupported ioctl 'TCGETS2'"


class TestReplay:
    def test_replay_reproduces_recorded_values(self):
        img = image_for(nondet_program)
        rec, recording = record(img, "/bin/main",
                                host=HostEnvironment(entropy_seed=5))
        # Replay on a completely different host: injected results win.
        res = replay(img, "/bin/main", recording,
                     host=HostEnvironment(entropy_seed=77, boot_epoch=9e8))
        assert (res.status, res.exit_code) == (OK, rec.exit_code), res.error

    def test_replay_with_children(self):
        def child(sys):
            t = yield from sys.time_syscall()
            yield from sys.println("child %d" % t)
            return t % 7

        def main(sys):
            total = 0
            for _ in range(3):
                res = yield from sys.run("/bin/child")
                total += res.exit_code
            yield from sys.write_file("total", str(total))
            return 0

        img = image_for(main, **{"/bin/child": child})
        rec, recording = record(img, "/bin/main",
                                host=HostEnvironment(entropy_seed=1))
        assert rec.status == OK
        res = replay(img, "/bin/main", recording,
                     host=HostEnvironment(entropy_seed=50))
        assert (res.status, res.exit_code) == (OK, rec.exit_code), res.error

    def test_divergent_program_detected(self):
        img1 = image_for(nondet_program)
        _, recording = record(img1, "/bin/main")

        def different(sys):
            yield from sys.getrandom(8)   # skips the time syscall
            yield from sys.write_file("out", "x")
            return 0

        img2 = image_for(different)
        res = replay(img2, "/bin/main", recording)
        assert res.status == CRASHED
        assert re.fullmatch(
            r"pid \d+ executed getrandom, recording expected time",
            res.error), res.error


def kills_itself(sys):
    yield from sys.println("bye")
    pid = yield from sys.getpid()
    yield from sys.kill(pid, SIGKILL)
    return 0


def raises(sys):
    yield from sys.println("about to raise")
    raise ValueError("guest bug")


def reads_its_own_pipe(sys):
    r, _w = yield from sys.pipe()
    yield from sys.read(r, 1)
    return 0


def sleeps_forever(sys):
    while True:
        yield from sys.sleep(1.0)


@pytest.mark.parametrize("program, status", [
    (kills_itself, OK),
    (raises, CRASHED),
    (reads_its_own_pipe, DEADLOCK),
    (sleeps_forever, TIMEOUT),
], ids=["sigkill", "raises", "pipe-deadlock", "timeout"])
def test_rr_classifies_a_run_like_native(program, status):
    """A recording is a native run under a tracer: it ends, and is
    classified, as the native run of the same image on the same host."""
    img = image_for(program)
    native = NativeRunner(timeout=50.0).run(
        img, "/bin/main", host=HostEnvironment(entropy_seed=9))
    recorded, _ = record(img, "/bin/main",
                         host=HostEnvironment(entropy_seed=9), timeout=50.0)
    outcome = (native.status, native.exit_code, native.error)
    assert outcome[0] == status
    assert (recorded.status, recorded.exit_code, recorded.error) == outcome
