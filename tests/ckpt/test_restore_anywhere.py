"""Restore anywhere: a run resumed from any barrier reaches the next
barrier in exactly the state the uninterrupted run had there.

* The ckpt workload journals every barrier (``every=7``, ``keep=0``).
  For each of its first 20 barriers the journal up to that barrier (its
  chain files, the last one cut just past the barrier's record) is
  copied into a fresh directory and resumed; the resumed run's next
  snapshot must fingerprint equal to the straight run's, in the guest
  and the full scope, with deltas (``full_every=4``) and without.
* A device a guest renamed resumes: restore grafts its hooks by inode
  key, not by the path it had at boot.
* Restore calls only the kernel's event methods: a payload event that
  names any other method is refused.
"""

import os
import pickle
import shutil

import pytest

from repro.ckpt import FULL_SCOPE, GUEST_SCOPE, RecoveryManager, journal, scan
from repro.core import ContainerConfig, DetTrace, Image
from repro.cpu.machine import HostEnvironment
from repro.kernel.types import O_WRONLY

from .conftest import ckpt_config, ckpt_image, result_fp

pytestmark = pytest.mark.ckpt

SCOPES = (GUEST_SCOPE, FULL_SCOPE)


def _fingerprints(directory):
    recovery = RecoveryManager(directory)
    return {scope: {barrier: fp for barrier, (fp, _vclock)
                    in recovery.chain_fingerprints(scope).items()}
            for scope in SCOPES}


@pytest.mark.parametrize("full_every", [4, 1])
def test_every_barrier_resumes_to_the_next(tmp_path, full_every):
    straight = str(tmp_path / "straight")
    cfg = ckpt_config(straight, every=7, full_every=full_every, keep=0)
    result = DetTrace(cfg).run(ckpt_image(), "/bin/main",
                               host=HostEnvironment(entropy_seed=7))
    assert result.exit_code == 0, (result.status, result.error)
    infos = list(reversed(scan(straight)))  # oldest barrier first
    assert len(infos) > 20
    want = _fingerprints(straight)

    mismatches = []
    for info, nxt in zip(infos[:20], infos[1:21]):
        resumed_dir = str(tmp_path / ("from-%d" % info.barrier))
        os.makedirs(resumed_dir)
        for earlier in infos:
            if earlier.barrier <= info.barrier and earlier.offset == 0:
                shutil.copy(earlier.path, resumed_dir)
        if nxt.path == info.path:
            # The journal up to this barrier ends with this record.
            with open(os.path.join(resumed_dir, os.path.basename(
                    info.path)), "r+b") as fh:
                fh.truncate(nxt.offset)
        assert scan(resumed_dir)[0].to_dict() == dict(
            info.to_dict(), path=os.path.join(
                resumed_dir, os.path.basename(info.path)))
        resumed = DetTrace(ckpt_config(
            resumed_dir, every=7, full_every=full_every, keep=0)).resume(
                ckpt_image(), "/bin/main")
        assert resumed.status == "resumed", (resumed.status, resumed.error)
        got = _fingerprints(resumed_dir)
        mismatches += [(info.barrier, scope) for scope in SCOPES
                       if got[scope][nxt.barrier]
                       != want[scope][nxt.barrier]]
    assert not mismatches, mismatches


def _renames_dev_null(sys_):
    yield from sys_.mkdir_p("out")
    yield from sys_.rename("/dev/null", "/build/out/sink")
    for i in range(30):
        yield from sys_.write_file("out/f%d.txt" % i, b"y" * (i + 1))
    fd = yield from sys_.open("out/sink", O_WRONLY)
    n = yield from sys_.write(fd, b"into the renamed device\n")
    yield from sys_.close(fd)
    names = yield from sys_.listdir("out")
    yield from sys_.println("sink took %d, out holds %d"
                            % (n, len(names)))
    return 0


def _rename_image():
    image = Image()
    image.add_binary("/bin/main", _renames_dev_null)
    return image


@pytest.mark.parametrize("full_every", [4, 1])
def test_renamed_device_resumes(journal_dir, full_every):
    baseline = DetTrace(ContainerConfig()).run(
        _rename_image(), "/bin/main", host=HostEnvironment(entropy_seed=7))
    assert baseline.exit_code == 0, (baseline.status, baseline.error)
    assert "sink took 24, out holds 31" in baseline.stdout
    cfg = ckpt_config(journal_dir, tick=60, every=10,
                      full_every=full_every, keep=0)
    crashed = DetTrace(cfg).run(_rename_image(), "/bin/main",
                                host=HostEnvironment(entropy_seed=7))
    assert crashed.status == "crashed", (crashed.status, crashed.error)
    assert scan(journal_dir)[0].barrier == 60
    resumed = DetTrace(cfg).resume(_rename_image(), "/bin/main")
    assert resumed.status == "resumed", (resumed.status, resumed.error)
    want, got = result_fp(baseline), result_fp(resumed)
    assert got["stdout"] == want["stdout"]
    assert got["tree"] == want["tree"]


def test_event_naming_another_kernel_method_is_refused(journal_dir):
    cfg = ckpt_config(journal_dir, tick=40, every=10, full_every=1)
    crashed = DetTrace(cfg).run(ckpt_image(), "/bin/main",
                                host=HostEnvironment(entropy_seed=7))
    assert crashed.status == "crashed", (crashed.status, crashed.error)
    newest = scan(journal_dir)[0]
    header, blob = journal.load_snapshot(newest.path)
    payload = pickle.loads(blob)
    t, seq, _name, tid, _args = payload["events"][0]
    payload["events"][0] = (t, seq, "terminate_process", tid, (0,))
    journal.write_snapshot(journal_dir, header["barrier"], header["vclock"],
                           header["fingerprint"], pickle.dumps(payload))
    resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
    assert resumed.status == "crashed"
    assert "RestoreError" in resumed.error
    assert "terminate_process" in resumed.error
