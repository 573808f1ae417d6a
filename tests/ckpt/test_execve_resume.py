"""A snapshot taken after an ``execve`` restores, in a process that ever
had a second thread.

``execve`` drops every other thread of the process, running or exited,
yet the resume tape still holds their frames' inputs, and their guest
code ran in the process before the exec.  The kernel records the tids
it drops on their process, a snapshot carries them, and restore replays
each as a bare thread of its process outside ``proc.threads``.  Each
case checkpoints at every event and is killed at every tick that
crashes; every resume must end with the uninterrupted run's stdout and
tree.
"""

import pytest

from repro.core import ContainerConfig, DetTrace, Image
from repro.cpu.machine import HostEnvironment

from .conftest import ckpt_config

pytestmark = pytest.mark.ckpt


def _sibling(sys_):
    yield from sys_.getpid()
    return 0


def _main_execs(sys_):
    """The main thread execs after its sibling has run and exited."""
    yield from sys_.spawn_thread(_sibling)
    yield from sys_.getpid()
    yield from sys_.getpid()
    yield from sys_.execve("/bin/after", ["after"])
    return 1


def _sibling_execs(sys_):
    yield from sys_.getpid()
    yield from sys_.execve("/bin/after", ["after"])
    return 1


def _main_dropped(sys_):
    """A non-main thread execs while the main thread still runs."""
    yield from sys_.spawn_thread(_sibling_execs)
    for _ in range(40):
        yield from sys_.getpid()
    return 1


def _after(sys_):
    for i in range(5):
        yield from sys_.write_file("a%d.txt" % i, b"after %d\n" % i)
    yield from sys_.println("after exec")
    return 0


def _image(main):
    image = Image()
    image.add_binary("/bin/main", main)
    image.add_binary("/bin/after", _after)
    return image


@pytest.mark.parametrize("main", [_main_execs, _main_dropped],
                         ids=["main-thread-execs", "sibling-execs"])
@pytest.mark.parametrize("full_every", [1, 4])
def test_every_kill_after_execve_resumes(tmp_path, main, full_every):
    baseline = DetTrace(ContainerConfig()).run(
        _image(main), "/bin/main", host=HostEnvironment(entropy_seed=7))
    assert baseline.exit_code == 0, (baseline.status, baseline.error)
    assert baseline.stdout == "after exec\n"
    crashed_ticks, failures = [], []
    for tick in range(1, 80):
        cfg = ckpt_config(str(tmp_path / ("j%d" % tick)), tick=tick,
                          every=1, full_every=full_every, keep=0)
        crashed = DetTrace(cfg).run(_image(main), "/bin/main",
                                    host=HostEnvironment(entropy_seed=7))
        if crashed.status != "crashed":
            continue
        crashed_ticks.append(tick)
        resumed = DetTrace(cfg).resume(_image(main), "/bin/main")
        if (resumed.status != "resumed"
                or resumed.stdout != baseline.stdout
                or resumed.output_tree != baseline.output_tree):
            failures.append((tick, resumed.status, resumed.error))
    assert len(crashed_ticks) > 10
    assert not failures, failures
