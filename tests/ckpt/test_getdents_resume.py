"""A resume between chunked ``getdents`` calls serves the rest of the
sorted listing.

DetTrace drains a directory's kernel cursor on the first ``getdents``,
sorts the entries once and serves the guest's chunks from that buffer.
The drain leaves the kernel cursor at the end, so the buffer and its
position are state a snapshot must carry: a resume that lost them would
re-drain nothing and end the listing early.  The program is
checkpointed at every event and killed at every tick that crashes;
every resume must end with the uninterrupted run's stdout, tree and
sort count.
"""

import pytest

from repro.core import ContainerConfig, DetTrace, Image
from repro.cpu.machine import HostEnvironment

from .conftest import ckpt_config

pytestmark = pytest.mark.ckpt

NAMES = ["x%d" % i for i in (3, 0, 6, 1, 5, 2, 4)]


def _lister(sys_):
    yield from sys_.mkdir("d")
    for name in NAMES:
        yield from sys_.write_file("d/" + name, b"")
    fd = yield from sys_.open("d")
    seen = []
    while True:
        chunk = yield from sys_.syscall("getdents", fd=fd, max_entries=2)
        if not chunk:
            break
        seen.extend(d.d_name for d in chunk)
    yield from sys_.close(fd)
    yield from sys_.println(",".join(seen))
    return 0


def _image():
    image = Image()
    image.add_binary("/bin/main", _lister)
    return image


def _sorted_count(result):
    return result.metrics.counters.get("tracer/getdents_sorted", 0)


@pytest.mark.parametrize("full_every", [1, 4])
def test_every_kill_between_chunks_resumes(tmp_path, full_every):
    baseline = DetTrace(ContainerConfig()).run(
        _image(), "/bin/main", host=HostEnvironment(entropy_seed=7))
    assert baseline.exit_code == 0, (baseline.status, baseline.error)
    assert baseline.stdout == ",".join(sorted(NAMES)) + "\n"
    assert _sorted_count(baseline) == 1
    crashed_ticks, failures = [], []
    for tick in range(1, 60):
        cfg = ckpt_config(str(tmp_path / ("j%d" % tick)), tick=tick,
                          every=1, full_every=full_every, keep=0)
        crashed = DetTrace(cfg).run(_image(), "/bin/main",
                                    host=HostEnvironment(entropy_seed=7))
        if crashed.status != "crashed":
            continue
        crashed_ticks.append(tick)
        resumed = DetTrace(cfg).resume(_image(), "/bin/main")
        if (resumed.status != "resumed"
                or resumed.stdout != baseline.stdout
                or resumed.output_tree != baseline.output_tree
                or _sorted_count(resumed) != _sorted_count(baseline)):
            failures.append((tick, resumed.status, resumed.stdout,
                             resumed.error))
    assert len(crashed_ticks) > 15
    assert not failures, failures
