"""Journals are outputs: two runs of the same command, config and host
write byte-identical journals, because every id a payload records is a
function of the run — pipe ids come from the container's own counter and
open descriptions are keyed by discovery order.  Restore treats both as
opaque, so a journal keyed by other distinct ints (host addresses, as
older writers recorded) still resumes identically."""

import os
import pickle

import pytest

from repro.ckpt import RecoveryManager, journal, scan
from repro.core import ContainerConfig, DetTrace, Image
from repro.cpu.machine import HostEnvironment
from repro.guest import libc
from repro.kernel.types import O_WRONLY

from .conftest import ckpt_config, result_fp

pytestmark = pytest.mark.ckpt

ADDRESS = "127.0.0.1:9090"


def _child(sys_):
    """Writes through the pipe and socketpair ends it shares with its
    parent, then through the FIFO."""
    wfd, end = int(sys_.argv[1]), int(sys_.argv[2])
    for i in range(3):
        yield from sys_.write_all(wfd, b"pipe %d\n" % i)
        yield from libc.send_all(sys_, end, b"pair %d\n" % i)
    fifo = yield from sys_.open("fifo", O_WRONLY)
    yield from sys_.write_all(fifo, b"fifo\n")
    yield from sys_.close(fifo)
    return 0


def _main(sys_):
    """A pipe, a FIFO, a socketpair and a loopback connection, with a
    forked child sharing the parent's descriptions."""
    rfd, wfd = yield from sys_.pipe()
    yield from sys_.mkfifo("fifo")
    end_a, end_b = yield from sys_.socketpair()
    lfd = yield from libc.sock_stream_server(sys_, ADDRESS, backlog=2)
    cfd = yield from libc.sock_stream_client(sys_, ADDRESS)
    conn, _peer = yield from sys_.accept(lfd)
    pid = yield from sys_.spawn("/bin/child",
                                argv=["child", str(wfd), str(end_b)])
    lines = []
    for i in range(3):
        yield from libc.send_all(sys_, cfd, b"ping %d\n" % i)
        lines.append((yield from libc.recv_exact(sys_, conn, 7)))
    lines.append((yield from sys_.read_exact(rfd, 21)))
    lines.append((yield from libc.recv_exact(sys_, end_a, 21)))
    fifo = yield from sys_.open("fifo")
    lines.append((yield from sys_.read_exact(fifo, 5)))
    res = yield from sys_.waitpid(pid)
    yield from sys_.write_file("ipc.log", b"".join(lines))
    return res.status


def _makes_pipes(sys_):
    for _ in range(3):
        yield from sys_.pipe()
    return 0


def ipc_image() -> Image:
    image = Image()
    image.add_binary("/bin/main", _main)
    image.add_binary("/bin/child", _child)
    image.add_binary("/bin/pipes", _makes_pipes)
    return image


def _host() -> HostEnvironment:
    """The same boot every time: a run draws on its host's entropy
    streams, so no two runs may share one host object."""
    return HostEnvironment(entropy_seed=7)


def _run(cfg, command="/bin/main"):
    return DetTrace(cfg).run(ipc_image(), command, host=_host())


def _shares_a_description(payload) -> bool:
    tables = [set(prec["fdtable"].values()) for prec in payload["processes"]]
    return any(sum(key in table for table in tables) > 1
               for key in payload["of_records"])


class TestJournalIdentity:
    def test_two_runs_write_byte_identical_journals(self, tmp_path):
        # An unrelated run first: pipe ids must not depend on it.
        earlier = _run(ContainerConfig(), "/bin/pipes")
        assert earlier.exit_code == 0, (earlier.status, earlier.error)
        dirs = [str(tmp_path / name) for name in ("a", "b")]
        for directory in dirs:
            result = _run(ckpt_config(directory, every=5, full_every=3,
                                      keep=0, deterministic_loopback=True))
            assert result.exit_code == 0, (result.status, result.error)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        records = scan(dirs[0])
        kinds = {info.snapshot_kind for info in records}
        assert len(records) >= 6 and kinds == {"full", "delta"}
        payloads = [snap.payload
                    for snap in RecoveryManager(dirs[0]).snapshots()]
        # The journal really holds every id-bearing surface.
        assert any(_shares_a_description(p) for p in payloads)
        assert any(rec["fifo"] is not None
                   for p in payloads for rec in p["fs_nodes"].values())
        assert any(p["sockets"]["listeners"] for p in payloads)
        for name in names:
            with open(os.path.join(dirs[0], name), "rb") as fh_a, \
                    open(os.path.join(dirs[1], name), "rb") as fh_b:
                assert fh_a.read() == fh_b.read(), name


class TestOpaqueIds:
    def test_resume_from_address_keyed_descriptions(self, journal_dir):
        """Rewrite the newest snapshot's description keys to large
        distinct ints, the way host addresses keyed them: the resume
        still matches the uninterrupted run."""
        baseline = _run(ContainerConfig(deterministic_loopback=True))
        assert baseline.exit_code == 0, (baseline.status, baseline.error)
        cfg = ckpt_config(journal_dir, tick=22, every=5, full_every=1,
                          keep=0, deterministic_loopback=True)
        crashed = _run(cfg)
        assert crashed.status == "crashed", (crashed.status, crashed.error)

        newest = scan(journal_dir)[0]
        header, blob = journal.load_snapshot(newest.path)
        payload = pickle.loads(blob)
        assert _shares_a_description(payload)
        remap = {key: 140_000_000_000 + 48 * (len(payload["of_records"]) - i)
                 for i, key in enumerate(payload["of_records"])}
        payload["of_records"] = {remap[key]: rec for key, rec
                                 in payload["of_records"].items()}
        for prec in payload["processes"]:
            prec["fdtable"] = {fd: remap[key]
                               for fd, key in prec["fdtable"].items()}
        journal.write_snapshot(journal_dir, header["barrier"],
                               header["vclock"], header["fingerprint"],
                               pickle.dumps(payload))
        _info, loaded = RecoveryManager(journal_dir).load()
        assert set(loaded["of_records"]) == set(remap.values())

        resumed = DetTrace(cfg).resume(ipc_image(), "/bin/main")
        assert resumed.status == "resumed", (resumed.status, resumed.error)
        want, got = result_fp(baseline), result_fp(resumed)
        diffs = [key for key in want if want[key] != got[key]]
        assert not diffs, diffs
