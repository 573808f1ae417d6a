"""The contract of ``repro.durable.atomic_write``, the one writer behind
the checkpoint journal, the run cache, reports and the fuzz corpus."""

import itertools
import os
import stat

import pytest

from repro import durable
from repro.durable import atomic_write


@pytest.fixture
def fsyncs(monkeypatch):
    real_fsync = os.fsync
    synced = []

    def recording_fsync(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                      else "file")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return synced


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_fsyncs_file_then_directory(tmp_path, fsyncs):
    path = str(tmp_path / "entry")
    atomic_write(path, b"payload")
    assert fsyncs == ["file", "dir"]
    assert _read(path) == b"payload"
    assert os.listdir(str(tmp_path)) == ["entry"]


def test_not_durable_issues_no_fsync(tmp_path, fsyncs):
    path = str(tmp_path / "entry")
    atomic_write(path, b"payload", durable=False)
    assert fsyncs == []
    assert _read(path) == b"payload"


def test_short_writes_are_resumed(tmp_path, monkeypatch):
    real_write = os.write

    def short_write(fd, data):
        return real_write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_write)
    data = bytes(range(256)) * 3 + b"tail"
    path = str(tmp_path / "entry")
    atomic_write(path, data)
    assert _read(path) == data


def test_failed_rename_removes_temp_and_reraises(tmp_path, monkeypatch):
    path = str(tmp_path / "entry")
    atomic_write(path, b"old")
    renamed = []

    def failing_rename(src, dst):
        renamed.append(os.path.basename(src))
        raise OSError(5, "injected rename failure")

    monkeypatch.setattr(os, "rename", failing_rename)
    with pytest.raises(OSError, match="injected rename failure"):
        atomic_write(path, b"new")
    assert renamed and renamed[0].startswith(".tmp-entry.%d." % os.getpid())
    assert os.listdir(str(tmp_path)) == ["entry"]
    assert _read(path) == b"old"


def test_mode_is_0644_less_umask(tmp_path):
    old = os.umask(0o027)
    try:
        atomic_write(str(tmp_path / "entry"), b"x")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(str(tmp_path / "entry")).st_mode) \
        == 0o644 & ~0o027


def test_stale_temp_of_a_reused_pid_is_skipped(tmp_path, monkeypatch):
    """A killed writer whose pid this process reuses may have left the
    temp name this call would draw: take the next one, leave it alone."""
    monkeypatch.setattr(durable, "_tmp_seq", itertools.count(5))
    stale = str(tmp_path / (".tmp-entry.%d.5" % os.getpid()))
    with open(stale, "wb") as fh:
        fh.write(b"half-written")
    path = str(tmp_path / "entry")
    atomic_write(path, b"payload")
    assert _read(path) == b"payload"
    assert _read(stale) == b"half-written"
    assert sorted(os.listdir(str(tmp_path))) \
        == [".tmp-entry.%d.5" % os.getpid(), "entry"]
