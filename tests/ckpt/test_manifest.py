"""Differential test: the manager's in-memory journal manifest against a
fresh scan.

``CheckpointManager`` prunes from a manifest it seeds with one scan and
then keeps up to date itself, and it prunes only at the barriers where
a chain file can fall out.  So after every snapshot — pruned or not —
the journal it leaves must list exactly the files that the scan-based
``journal.prune`` leaves on a copy of the same directory taken just
after the write, and the manifest must equal what ``journal.scan``
reads back.  The journal is pre-seeded with the leftovers of other runs,
written as chain files (a chain with a torn delta, a snapshot written
under another config fingerprint, a chain whose delta names another
base), and each case kills the run and resumes into the same directory.
"""

import builtins
import os
import shutil

import pytest

from repro.ckpt import journal
from repro.ckpt.manager import CheckpointManager, RecoveryManager
from repro.core import DetTrace
from repro.cpu.machine import HostEnvironment

from .conftest import ckpt_config, ckpt_image, result_fp, run_baseline

pytestmark = pytest.mark.ckpt

KILL_TICK = 60


def _listing(directory):
    return sorted(os.listdir(directory))


@pytest.fixture
def barriers(monkeypatch, tmp_path):
    """Check the manager's journal and manifest at every snapshot
    against a scan prune of a copy of the journal taken right after the
    snapshot's write; returns the addresses checked."""
    real_write = journal.write_snapshot
    real_snapshot = CheckpointManager.snapshot
    copy = str(tmp_path / "scan-copy")
    checked = []

    def copying_write(directory, *args, **kwargs):
        info = real_write(directory, *args, **kwargs)
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(directory, copy)
        return info

    def checked_snapshot(self, kernel, durable=True):
        try:
            address = real_snapshot(self, kernel, durable)
            journal.prune(copy, self.keep)
            assert _listing(self.directory) == _listing(copy)
            assert self._manifest is not None
            assert ([i.to_dict() for i in self._manifest]
                    == [i.to_dict() for i in journal.scan(self.directory)])
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        checked.append(address)
        return address

    monkeypatch.setattr(journal, "write_snapshot", copying_write)
    monkeypatch.setattr(CheckpointManager, "snapshot", checked_snapshot)
    return checked


def _preseed(directory):
    """Leftovers of other runs, at barriers this run never writes."""
    os.makedirs(directory)
    full = journal.write_snapshot(directory, 5, 2.5, "cfg", b"T" * 64)
    torn = journal.write_snapshot(directory, 6, 3.0, "cfg", b"U" * 64,
                                  base=full)
    with open(torn.path, "r+b") as fh:
        fh.truncate(os.path.getsize(torn.path) - 8)
    journal.write_snapshot(directory, 2, 1.0, "foreign-config", b"foreign")
    base = journal.write_snapshot(directory, 4, 2.0, "cfg", b"base")
    journal.write_snapshot(directory, 7, 3.5, "cfg", b"orphan",
                           base=journal.SnapshotInfo(
                               path=base.path, payload_sha256="0" * 64))


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
def test_manifest_prune_matches_scan_prune(journal_dir, barriers,
                                           every, full_every, keep):
    _preseed(journal_dir)
    resumed = _crash_then_resume(journal_dir, every=every,
                                 full_every=full_every, keep=keep)
    assert result_fp(resumed) == result_fp(run_baseline())
    assert len(barriers) > KILL_TICK // every
    assert journal.prune(journal_dir, keep) == []


def test_failed_rename_leaves_manifest_consistent(journal_dir, barriers,
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


def test_overwriting_a_base_chain_breaks_its_old_deltas(journal_dir,
                                                        barriers):
    """A foreign chain file at a barrier where this run starts a chain,
    holding a foreign delta: once the run's full snapshot replaces the
    file, the delta is gone with it, and the manifest must drop it just
    as a re-scan does."""
    os.makedirs(journal_dir)
    base = journal.write_snapshot(journal_dir, 50, 25.0, "foreign-config",
                                  b"foreign-base")
    orphaned = journal.write_snapshot(journal_dir, 53, 26.5,
                                      "foreign-config", b"foreign-delta",
                                      base=base)
    cfg = ckpt_config(journal_dir, every=10, full_every=4, keep=3)
    result = DetTrace(cfg).run(ckpt_image(), "/bin/main",
                               host=HostEnvironment(entropy_seed=7))
    assert result.exit_code == 0, (result.status, result.error)
    assert base.path + "@0" in barriers
    assert orphaned.barrier not in [i.barrier
                                    for i in journal.scan(journal_dir)]
    assert len(barriers) >= 4


def test_one_scan_per_manager_and_per_recovery(journal_dir, monkeypatch):
    """The manager scans the journal once, at its first prune, and
    resuming scans it once more: recovery hands its listing, and the
    bytes it read, on to materialization, so it opens each chain file
    once."""
    real_read = journal.read_journal
    scans = []

    def counted_read(directory, fingerprint=None):
        scans.append(fingerprint)
        return real_read(directory, fingerprint=fingerprint)

    monkeypatch.setattr(journal, "read_journal", counted_read)
    # Two-record chains, so the three kept records span two files.
    cfg = ckpt_config(journal_dir, tick=KILL_TICK, every=3, full_every=2,
                      keep=3)
    DetTrace(cfg).run(ckpt_image(), "/bin/main",
                      host=HostEnvironment(entropy_seed=7))
    assert scans == [None]
    del scans[:]

    opened = []
    real_load = RecoveryManager.load

    def counted_open(path, *args, **kwargs):
        opened.append(path)
        return builtins.open(path, *args, **kwargs)

    def load_counting_opens(self, info=None):
        monkeypatch.setattr(journal, "open", counted_open, raising=False)
        try:
            return real_load(self, info)
        finally:
            monkeypatch.delattr(journal, "open")

    monkeypatch.setattr(RecoveryManager, "load", load_counting_opens)
    files = _listing(journal_dir)
    assert len(files) > 1 and len(journal.scan(journal_dir)) > len(files)
    del scans[:]
    resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
    assert resumed.status == "resumed", (resumed.status, resumed.error)
    assert scans == [cfg.fingerprint(), None]
    assert sorted(os.path.basename(path) for path in opened) == files
