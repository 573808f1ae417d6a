"""Unit tests for the write-ahead snapshot journal (repro.ckpt.journal):
atomic persistence, torn/corrupt detection, fingerprint scoping, prune."""

import json
import os

import pytest

from repro.ckpt import JournalError, prune, scan
from repro.ckpt.journal import (
    latest_valid,
    load_snapshot,
    read_header,
    snapshot_path,
    write_snapshot,
)
from repro.core import DetTrace
from repro.cpu.machine import HostEnvironment

from .conftest import ckpt_config, ckpt_image

FP = "cfg-fingerprint"


def _write(directory, barrier, payload=b"payload-bytes", fp=FP):
    return write_snapshot(directory, barrier, vclock=barrier * 0.5,
                          fingerprint=fp, payload=payload).path


def _set_format(path, version):
    """Rewrite a snapshot's header to claim format *version*."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    header["format"] = version
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def test_format_2_snapshot_rejected(journal_dir):
    """Format-2 payloads pickle the kernel stats object that no longer
    exists: the header check must refuse them before any unpickling."""
    path = _write(journal_dir, 7)
    _set_format(path, 2)
    with pytest.raises(JournalError, match="format 2"):
        load_snapshot(path, fingerprint=FP)
    [info] = scan(journal_dir)
    assert not info.valid and "format 2" in info.error


def test_resume_over_format_2_journal_raises_journal_error(journal_dir):
    cfg = ckpt_config(journal_dir, tick=60)
    DetTrace(cfg).run(ckpt_image(), "/bin/main",
                      host=HostEnvironment(entropy_seed=7))
    infos = scan(journal_dir)
    assert any(info.valid for info in infos)
    for info in infos:
        _set_format(info.path, 2)
    with pytest.raises(JournalError):
        DetTrace(cfg).resume(ckpt_image(), "/bin/main")


def test_round_trip(journal_dir):
    path = _write(journal_dir, 42, payload=b"\x00\x01hello")
    header, payload = load_snapshot(path, fingerprint=FP)
    assert payload == b"\x00\x01hello"
    assert header["barrier"] == 42
    assert header["vclock"] == 21.0
    assert header["fingerprint"] == FP


def test_no_temp_files_left_behind(journal_dir):
    _write(journal_dir, 1)
    _write(journal_dir, 2)
    assert all(not name.startswith(".tmp-")
               for name in os.listdir(journal_dir))


def test_truncated_payload_detected(journal_dir):
    path = _write(journal_dir, 7, payload=b"A" * 1000)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-100])  # torn tail
    with pytest.raises(JournalError, match="length|truncat"):
        load_snapshot(path, fingerprint=FP)


def test_corrupt_payload_detected_by_checksum(journal_dir):
    path = _write(journal_dir, 7, payload=b"A" * 1000)
    with open(path, "r+b") as fh:
        fh.seek(-10, os.SEEK_END)
        fh.write(b"B")  # same length, wrong bytes
    with pytest.raises(JournalError, match="sha256|checksum"):
        load_snapshot(path, fingerprint=FP)


def test_torn_header_detected(journal_dir):
    path = snapshot_path(journal_dir, 3)
    os.makedirs(journal_dir, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(b'{"format": 1, "barrier"')  # no newline, invalid JSON
    with pytest.raises(JournalError):
        read_header(path)
    with pytest.raises(JournalError):
        load_snapshot(path)


def test_fingerprint_mismatch_rejected(journal_dir):
    path = _write(journal_dir, 5, fp="other-config")
    with pytest.raises(JournalError, match="fingerprint"):
        load_snapshot(path, fingerprint=FP)
    load_snapshot(path, fingerprint=None)  # unscoped read still works


def test_scan_orders_newest_first_and_flags_invalid(journal_dir):
    _write(journal_dir, 10)
    _write(journal_dir, 30)
    path = _write(journal_dir, 20, payload=b"X" * 100)
    with open(path, "wb") as fh:
        fh.write(b"garbage")
    infos = scan(journal_dir, fingerprint=FP)
    assert [i.barrier for i in infos if i.valid] == [30, 10]
    bad = [i for i in infos if not i.valid]
    assert len(bad) == 1 and bad[0].error
    assert latest_valid(journal_dir, fingerprint=FP).barrier == 30


def test_fallback_to_newest_valid(journal_dir):
    _write(journal_dir, 1)
    _write(journal_dir, 2)
    newest = _write(journal_dir, 3, payload=b"Z" * 64)
    with open(newest, "r+b") as fh:
        fh.truncate(os.path.getsize(newest) - 8)
    assert latest_valid(journal_dir, fingerprint=FP).barrier == 2


def test_prune_keeps_newest_valid_and_drops_invalid(journal_dir):
    for barrier in (1, 2, 3, 4):
        _write(journal_dir, barrier)
    broken = snapshot_path(journal_dir, 5)
    with open(broken, "wb") as fh:
        fh.write(b"not a snapshot")
    removed = prune(journal_dir, keep=2)
    assert broken in removed
    left = scan(journal_dir)
    assert [i.barrier for i in left] == [4, 3]
    assert all(i.valid for i in left)


def test_scan_of_missing_directory_is_empty(tmp_path):
    assert scan(str(tmp_path / "nope")) == []
    assert latest_valid(str(tmp_path / "nope")) is None
