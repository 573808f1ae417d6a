"""Differential test: the manager's in-memory journal manifest against a
fresh scan.

``CheckpointManager`` prunes from a manifest it seeds with one scan and
then keeps up to date itself.  After every snapshot, the journal it
leaves must list exactly the files that the scan-based
``journal.prune`` leaves on a copy of the same directory, and the
manifest must equal what ``journal.scan`` reads back.  The journal is
pre-seeded with the leftovers of other runs (a torn file, a snapshot
written under another config fingerprint, a delta whose base is gone),
and each case kills the run and resumes into the same directory.
"""

import os
import shutil

import pytest

from repro.ckpt import journal
from repro.ckpt.manager import CheckpointManager
from repro.core import DetTrace
from repro.cpu.machine import HostEnvironment

from .conftest import ckpt_config, ckpt_image, result_fp, run_baseline

pytestmark = pytest.mark.ckpt

KILL_TICK = 60


def _listing(directory):
    return sorted(os.listdir(directory))


@pytest.fixture
def prunes(monkeypatch, tmp_path):
    """Check every manifest prune against a scan prune of a copy of
    the journal taken just before it; returns the number of checks."""
    real_prune = CheckpointManager._prune
    copy = str(tmp_path / "scan-copy")
    checked = []

    def checked_prune(self):
        shutil.copytree(self.directory, copy)
        try:
            real_prune(self)
            journal.prune(copy, self.keep)
            assert _listing(self.directory) == _listing(copy)
            assert ([i.to_dict() for i in self._manifest]
                    == [i.to_dict() for i in journal.scan(self.directory)])
        finally:
            shutil.rmtree(copy)
        checked.append(self.directory)

    monkeypatch.setattr(CheckpointManager, "_prune", checked_prune)
    return checked


def _preseed(directory):
    """Leftovers of other runs, at barriers this run never writes."""
    torn = journal.write_snapshot(directory, 5, 2.5, "cfg", b"T" * 64).path
    with open(torn, "r+b") as fh:
        fh.truncate(os.path.getsize(torn) - 8)
    journal.write_snapshot(directory, 2, 1.0, "foreign-config", b"foreign")
    journal.write_snapshot(directory, 7, 3.5, "cfg", b"orphan",
                           snapshot_kind="delta", base_sha256="0" * 64,
                           chain_depth=1)


def _crash_then_resume(directory, **cfg_kwargs):
    cfg = ckpt_config(directory, tick=KILL_TICK, **cfg_kwargs)
    crashed = DetTrace(cfg).run(ckpt_image(), "/bin/main",
                                host=HostEnvironment(entropy_seed=7))
    assert crashed.status == "crashed", (crashed.status, crashed.error)
    resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
    assert resumed.status == "resumed", (resumed.status, resumed.error)
    return resumed


@pytest.mark.parametrize("every", [3, 10])
@pytest.mark.parametrize("full_every", [1, 4, 16])
@pytest.mark.parametrize("keep", [1, 3])
def test_manifest_prune_matches_scan_prune(journal_dir, prunes,
                                           every, full_every, keep):
    _preseed(journal_dir)
    resumed = _crash_then_resume(journal_dir, every=every,
                                 full_every=full_every, keep=keep)
    assert result_fp(resumed) == result_fp(run_baseline())
    assert len(prunes) > KILL_TICK // every
    assert journal.prune(journal_dir, keep) == []


def test_failed_rename_leaves_manifest_consistent(journal_dir, prunes,
                                                  monkeypatch):
    _preseed(journal_dir)
    real_rename = os.rename
    renames = []

    def rename_failing_once(src, dst):
        if os.path.basename(src).startswith(".tmp-ckpt-"):
            renames.append(dst)
            if len(renames) == 3:
                raise OSError(5, "injected rename failure")
        return real_rename(src, dst)

    monkeypatch.setattr(os, "rename", rename_failing_once)
    resumed = _crash_then_resume(journal_dir, every=3, full_every=4, keep=3)
    assert len(renames) > 3
    assert result_fp(resumed) == result_fp(run_baseline())
    assert journal.prune(journal_dir, 3) == []


def test_overwriting_a_base_chain_breaks_its_old_deltas(journal_dir, prunes):
    """A foreign full at a barrier this run will overwrite, and a foreign
    delta on it: once the full is overwritten the delta is orphaned, and
    the manifest must drop it just as a re-scan does."""
    base = journal.write_snapshot(journal_dir, 30, 15.0, "foreign-config",
                                  b"foreign-base")
    orphaned = journal.write_snapshot(
        journal_dir, 33, 16.5, "foreign-config", b"foreign-delta",
        snapshot_kind="delta", base_sha256=base.payload_sha256,
        chain_depth=1)
    cfg = ckpt_config(journal_dir, every=10, full_every=4, keep=3)
    result = DetTrace(cfg).run(ckpt_image(), "/bin/main",
                               host=HostEnvironment(entropy_seed=7))
    assert result.exit_code == 0, (result.status, result.error)
    assert not os.path.exists(orphaned.path)
    assert len(prunes) >= 4


def test_one_scan_per_manager_and_per_recovery(journal_dir, monkeypatch):
    """The manager scans the journal once, at its first prune, and
    resuming scans it once more: recovery hands its listing on to
    materialization instead of scanning again."""
    real_scan = journal.scan
    scans = []

    def counted_scan(directory, fingerprint=None):
        scans.append(fingerprint)
        return real_scan(directory, fingerprint=fingerprint)

    monkeypatch.setattr(journal, "scan", counted_scan)
    cfg = ckpt_config(journal_dir, tick=KILL_TICK, every=3, keep=3)
    DetTrace(cfg).run(ckpt_image(), "/bin/main",
                      host=HostEnvironment(entropy_seed=7))
    assert scans == [None]
    del scans[:]
    resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
    assert resumed.status == "resumed", (resumed.status, resumed.error)
    assert scans == [cfg.fingerprint(), None]
