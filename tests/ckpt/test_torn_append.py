"""A torn append costs only the torn record.

The ckpt workload journals every barrier (``every=7``, ``full_every=4``,
``keep=0``) and is killed at tick 141, just past the barrier of its
sixth chain's third delta, so its newest chain file holds a full
snapshot and the three deltas appended to it.  The file is cut at each record boundary, and in
the header and in the payload of each of its last three records; for
every cut:

* the scan lists the intact prefix of the file as valid, and a record
  cut short as the one invalid entry after it;
* :meth:`RecoveryManager.latest` is the newest intact record (the
  previous chain's newest when nothing of the file is intact);
* resuming from the cut journal ends exactly as the uninterrupted run;
* bytes appended after a torn record — here a whole valid record — are
  never read.
"""

import os
import shutil

import pytest

from repro.ckpt import RecoveryManager, scan
from repro.core import DetTrace
from repro.cpu.machine import HostEnvironment

from .conftest import ckpt_config, ckpt_image, result_fp, run_baseline

pytestmark = pytest.mark.ckpt


KILL_TICK = 141


@pytest.fixture
def crashed(tmp_path):
    """The crashed run's journal, and its newest chain file's records
    (file order) with their end offsets."""
    directory = str(tmp_path / "journal")
    result = DetTrace(ckpt_config(directory, tick=KILL_TICK, every=7,
                                  full_every=4, keep=0)).run(
        ckpt_image(), "/bin/main", host=HostEnvironment(entropy_seed=7))
    assert result.status == "crashed", (result.status, result.error)
    infos = scan(directory)
    newest = infos[0].path
    records = sorted((i for i in infos if i.path == newest),
                     key=lambda i: i.offset)
    assert [r.chain_depth for r in records] == [0, 1, 2, 3]
    size = os.path.getsize(newest)
    ends = [r.offset for r in records[1:]] + [size]
    return directory, infos, records, ends


def _cuts(records, ends):
    """``(label, offset)`` of every cut: each record boundary, and a
    mid-header and a mid-payload offset of each of the last three."""
    cuts = [("boundary-%d" % i, r.offset) for i, r in enumerate(records)]
    for i, (record, end) in list(enumerate(zip(records, ends)))[-3:]:
        header_end = end - record.payload_len
        cuts.append(("header-%d" % i, record.offset + 5))
        cuts.append(("payload-%d" % i,
                     header_end + record.payload_len // 2))
    return cuts


def _copy(directory, target):
    shutil.copytree(directory, target)
    return target


def _listing(directory, path):
    return [(i.offset, i.valid) for i in sorted(
        (i for i in scan(directory)
         if os.path.basename(i.path) == os.path.basename(path)),
        key=lambda i: i.offset)]


def test_a_torn_append_costs_only_the_torn_record(crashed, tmp_path):
    directory, infos, records, ends = crashed
    baseline = result_fp(run_baseline())
    name = os.path.basename(records[0].path)
    older = [i for i in infos if i.path != records[0].path]
    with open(records[0].path, "rb") as fh:
        original = fh.read()
    cuts = _cuts(records, ends)
    assert len(cuts) == len(records) + 6
    for label, cut in cuts:
        copy = _copy(directory, str(tmp_path / label))
        chain = os.path.join(copy, name)
        with open(chain, "r+b") as fh:
            fh.truncate(cut)
        intact = [r for r, end in zip(records, ends) if end <= cut]
        torn = [r for r in records if r.offset < cut < ends[records.index(r)]]
        if cut == 0:
            torn = records[:1]  # an empty file: its first record is torn
        want = ([(r.offset, True) for r in intact]
                + [(r.offset, False) for r in torn])
        assert _listing(copy, chain) == want, label

        latest = RecoveryManager(copy).latest()
        newest_intact = intact[-1] if intact else older[0]
        assert (latest.barrier, os.path.basename(latest.path),
                latest.offset) == (
            newest_intact.barrier, os.path.basename(newest_intact.path),
            newest_intact.offset), label

        if torn:
            # A whole valid record after the torn one is never read.
            with open(chain, "ab") as fh:
                fh.write(original[records[-1].offset:])
            assert _listing(copy, chain) == want, label
            assert RecoveryManager(copy).latest().barrier == \
                newest_intact.barrier, label

        cfg = ckpt_config(copy, tick=KILL_TICK, every=7, full_every=4,
                          keep=0)
        resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
        assert resumed.status == "resumed", (label, resumed.error)
        assert result_fp(resumed) == baseline, label
