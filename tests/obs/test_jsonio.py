"""Durability of ``write_json_atomic``: the report file is fsynced before
its rename and the directory after it, so a report whose rename
succeeded survives a power loss."""

import json
import os
import stat

import pytest

from repro.obs.jsonio import write_json_atomic

pytestmark = pytest.mark.obs


def test_fsyncs_file_then_directory(tmp_path, monkeypatch):
    real_fsync = os.fsync
    synced = []

    def recording_fsync(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                      else "file")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    path = str(tmp_path / "crash-report.json")
    write_json_atomic(path, {"status": "crashed"})
    assert synced == ["file", "dir"]
    with open(path) as fh:
        assert json.load(fh) == {"status": "crashed"}
    assert os.listdir(str(tmp_path)) == ["crash-report.json"]
