"""Incremental checkpoints: delta-chain layout, torn-chain fallback,
full-vs-delta equivalence, and the incremental Merkle fingerprints.

The properties under test:

* the journal interleaves full and delta snapshots on the configured
  ``full_every`` cadence, one file per chain: each delta is appended to
  its chain's file and names the record before it by payload sha256;
* truncating a chain file's delta — or its *full* snapshot — makes
  recovery fall back to the newest record that still validates (the
  previous chain's newest, for a torn full), and the resumed run stays
  byte-identical to a never-interrupted one;
* a ``full_every=1`` journal and a delta journal of the same run
  fingerprint equal barrier-for-barrier (materialization is lossless);
* the Merkle cursor advanced along a chain produces exactly the
  fingerprint a from-scratch computation of the materialized payload
  does;
* pruning never orphans a kept delta.
"""

import os
import pickle

import pytest

from repro.ckpt import (
    FULL_SCOPE,
    GUEST_SCOPE,
    RecoveryManager,
    prune,
    scan,
)
from repro.core import ContainerConfig, DetTrace, Image
from repro.core.config import CheckpointConfig
from repro.cpu.machine import HostEnvironment
from repro.kernel.types import O_APPEND, O_WRONLY

from .conftest import ckpt_config, ckpt_image, result_fp, run_baseline

pytestmark = pytest.mark.ckpt


def _crash(journal_dir, tick=100, **cfg_kwargs):
    cfg = ckpt_config(journal_dir, tick=tick, **cfg_kwargs)
    crashed = DetTrace(cfg).run(ckpt_image(), "/bin/main",
                                host=HostEnvironment(entropy_seed=7))
    assert crashed.status == "crashed", (crashed.status, crashed.error)
    return cfg


def _truncate(path, size=None):
    """Cut *path* to *size* bytes (default: 20 bytes short)."""
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 20 if size is None else size)


class TestChainLayout:
    def test_full_and_delta_cadence(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        infos = list(reversed(scan(journal_dir)))  # oldest first
        assert len(infos) >= 12
        assert all(info.valid for info in infos)
        by_sha = {info.payload_sha256: info for info in infos}
        for i, info in enumerate(infos):
            if i % 4 == 0:
                assert info.snapshot_kind == "full", info.barrier
                assert info.chain_depth == 0
                assert info.base_sha256 == ""
                assert info.offset == 0
                assert os.path.basename(info.path) == \
                    "ckpt-%012d.snap" % info.barrier
            else:
                assert info.snapshot_kind == "delta", info.barrier
                assert info.chain_depth == i % 4
                base = by_sha[info.base_sha256]
                assert base.barrier == infos[i - 1].barrier
                assert info.path == base.path
                assert info.offset > base.offset
        assert len(os.listdir(journal_dir)) == (len(infos) + 3) // 4

    def test_deltas_are_much_smaller_than_fulls(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        infos = scan(journal_dir)
        fulls = [i.payload_len for i in infos if i.snapshot_kind == "full"]
        deltas = [i.payload_len for i in infos if i.snapshot_kind == "delta"]
        assert fulls and deltas
        # The workload writes a handful of files between barriers while
        # holding hundreds of inodes: deltas must not re-carry the tree.
        assert max(deltas) < min(fulls)

    def test_full_every_one_writes_only_fulls(self, journal_dir):
        _crash(journal_dir, every=7, full_every=1, keep=0)
        infos = scan(journal_dir)
        assert infos
        assert all(i.snapshot_kind == "full" for i in infos)


class TestTornChains:
    def test_torn_delta_falls_back_and_resumes_identically(
            self, journal_dir):
        baseline = run_baseline()
        cfg = _crash(journal_dir, every=7, full_every=4, keep=0)
        infos = scan(journal_dir)  # newest first
        newest = infos[0]
        assert newest.snapshot_kind == "delta"
        assert infos[1].path == newest.path
        _truncate(newest.path)
        rescan = scan(journal_dir)
        # The torn delta is listed invalid; the records before it in its
        # chain file stay valid.
        assert not rescan[0].valid and rescan[0].offset == newest.offset
        assert rescan[1].to_dict() == infos[1].to_dict()
        recovery = RecoveryManager(journal_dir)
        latest = recovery.latest()
        assert latest is not None
        assert latest.barrier == infos[1].barrier
        resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
        assert resumed.status == "resumed", (resumed.status, resumed.error)
        assert result_fp(resumed) == result_fp(baseline)

    def test_torn_base_invalidates_chain_and_resumes_identically(
            self, journal_dir):
        baseline = run_baseline()
        cfg = _crash(journal_dir, every=7, full_every=4, keep=0)
        infos = list(reversed(scan(journal_dir)))  # oldest first
        fulls = [i for i in infos if i.snapshot_kind == "full"]
        assert len(fulls) >= 2
        on_newest = [i for i in infos if i.path == fulls[-1].path]
        assert len(on_newest) > 1, "the newest chain must hold deltas"
        # Tear the newest chain's full snapshot: no delta in its file can
        # be materialized, so recovery must fall back to the newest
        # record of the *previous* chain.
        _truncate(fulls[-1].path, size=fulls[-1].payload_len // 2)
        rescan = scan(journal_dir)
        assert [i.valid for i in rescan if i.path == fulls[-1].path] == [
            False], "a torn full ends its file's listing"
        latest = RecoveryManager(journal_dir).latest()
        assert latest is not None
        assert latest.barrier < fulls[-1].barrier
        assert latest.snapshot_kind == "delta"
        assert latest.path == fulls[-2].path
        resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
        assert resumed.status == "resumed", (resumed.status, resumed.error)
        assert result_fp(resumed) == result_fp(baseline)


class TestEquivalence:
    def test_delta_journal_fingerprints_equal_full_journal(
            self, tmp_path):
        fps = {}
        for label, full_every in (("full", 1), ("delta", 5)):
            directory = str(tmp_path / label)
            _crash(directory, every=7, full_every=full_every, keep=0)
            recovery = RecoveryManager(directory)
            fps[label] = {
                scope: recovery.chain_fingerprints(scope=scope)
                for scope in (GUEST_SCOPE, FULL_SCOPE)}
        for scope in (GUEST_SCOPE, FULL_SCOPE):
            assert fps["full"][scope] == fps["delta"][scope], scope

    def test_cursor_matches_from_scratch_fingerprints(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        recovery = RecoveryManager(journal_dir)
        for scope in (GUEST_SCOPE, FULL_SCOPE):
            incremental = recovery.chain_fingerprints(scope=scope)
            scratch = {snap.barrier: snap.fingerprint(scope=scope)
                       for snap in recovery.snapshots()}
            assert {b: fp for b, (fp, _v) in incremental.items()} == scratch

    def test_guest_and_full_scopes_differ(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        recovery = RecoveryManager(journal_dir)
        guest = recovery.chain_fingerprints(scope=GUEST_SCOPE)
        full = recovery.chain_fingerprints(scope=FULL_SCOPE)
        for barrier in guest:
            assert guest[barrier][0] != full[barrier][0]


def _append_to_existing(sys_):
    yield from sys_.write_file("log.txt", b"first\n")
    fd = yield from sys_.open("log.txt", O_WRONLY | O_APPEND)
    yield from sys_.write_all(fd, b"second\n")
    yield from sys_.close(fd)
    yield from sys_.write_file("other.txt", b"new inode\n")
    return 0


class TestSections:
    def test_a_write_to_an_existing_file_leaves_fs_meta_out(self, tmp_path):
        """Only an inode number allocated or released moves ``fs_meta``;
        the bytes a write charges to the disk are their own section."""
        image = Image()
        image.add_binary("/bin/main", _append_to_existing)
        cfg = ContainerConfig(checkpoint=CheckpointConfig(
            directory=str(tmp_path), every=1, full_every=10_000, keep=0))
        result = DetTrace(cfg).run(image, "/bin/main",
                                   host=HostEnvironment(entropy_seed=7))
        assert result.succeeded, (result.status, result.error)
        deltas = [record["sections"] for info, record
                  in RecoveryManager(str(tmp_path))._walk()
                  if info.snapshot_kind == "delta"]
        writes = [sections for sections in deltas
                  if "bytes_written" in sections]
        assert len(writes) == 3  # log.txt's two writes, other.txt's
        assert "fs_meta" not in writes[1]
        # Creating other.txt allocates an inode number.
        assert any("fs_meta" in sections for sections in deltas)

    def test_fs_meta_stays_small_as_files_are_created(self, tmp_path):
        """The allocator's section is its next number, free list and
        allocation serial: its size does not grow with the inodes a run
        has allocated."""
        def main(sys_):
            for i in range(200):
                yield from sys_.write_file("f%d" % i, b"")
            for _ in range(60):
                yield from sys_.getpid()
            return 0

        image = Image()
        image.add_binary("/bin/main", main)
        cfg = ContainerConfig(checkpoint=CheckpointConfig(
            directory=str(tmp_path), every=50, full_every=1, keep=1))
        result = DetTrace(cfg).run(image, "/bin/main",
                                   host=HostEnvironment(entropy_seed=7))
        assert result.succeeded, (result.status, result.error)
        _, payload = RecoveryManager(str(tmp_path)).load()
        files = [name for name in result.output_tree if name.startswith("f")]
        assert len(files) == 200
        meta = payload["fs_meta"]
        assert meta["alloc_serial"] > 200
        assert len(pickle.dumps(meta, pickle.HIGHEST_PROTOCOL)) < 100


class TestPrune:
    def test_prune_keeps_transitive_base_closure(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        newest = scan(journal_dir)[0]
        removed = prune(journal_dir, keep=1)
        assert removed and newest.path not in removed
        infos = scan(journal_dir)
        assert infos
        assert all(i.valid for i in infos)
        # The newest snapshot is a delta; its whole chain file down to
        # the full base must have survived, so it still materializes.
        assert {i.path for i in infos} == {newest.path}
        assert os.listdir(journal_dir) == [os.path.basename(newest.path)]
        info, payload = RecoveryManager(journal_dir).load()
        assert payload["kind"] == "repro.ckpt.payload"
        assert info.barrier == max(i.barrier for i in infos)
