"""Socket state across the checkpoint barrier: listener queues, in-flight
stream buffers and the ephemeral-port counter must survive a crash and
resume to the byte-identical result (ISSUE 9 acceptance)."""

import dataclasses
import hashlib
import importlib.util
import os

import pytest

from repro.core import ContainerConfig, DetTrace
from repro.cpu.machine import HostEnvironment
from repro.kernel.pipes import Pipe
from repro.kernel.sockets import AF_INET, AF_UNIX, SocketRegistry

from .conftest import ckpt_config, result_fp

pytestmark = pytest.mark.ckpt


def _example():
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples", "client_server.py")
    spec = importlib.util.spec_from_file_location("client_server", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


EXAMPLE = _example()
HOST = HostEnvironment(entropy_seed=7)


def _baseline():
    cfg = ContainerConfig(deterministic_loopback=True)
    return DetTrace(cfg).run(EXAMPLE.build_image(), "/bin/server", host=HOST)


class TestSocketResumeIdentity:
    @pytest.mark.parametrize("tick", [10, 25, 40])
    def test_mid_connection_crash_resumes_byte_identical(
            self, journal_dir, tick):
        baseline = _baseline()
        assert baseline.exit_code == 0, (baseline.status, baseline.error)
        cfg = ckpt_config(journal_dir, tick=tick, every=5,
                          deterministic_loopback=True)
        crashed = DetTrace(cfg).run(EXAMPLE.build_image(), "/bin/server",
                                    host=HOST)
        assert crashed.status == "crashed", (crashed.status, crashed.error)
        resumed = DetTrace(cfg).resume(EXAMPLE.build_image(), "/bin/server")
        assert resumed.status == "resumed", (resumed.status, resumed.error)
        want, got = result_fp(baseline), result_fp(resumed)
        diffs = [key for key in want if want[key] != got[key]]
        assert not diffs, diffs
        assert b"127.0.0.1:32768" in resumed.output_tree["client.log"]


class TestRegistryRoundTrip:
    def _registry(self):
        reg = SocketRegistry()
        reg.alloc_port()                       # counter past the base
        reg.bind(AF_UNIX, "/run/a.sock")
        reg.listen(AF_UNIX, "/run/a.sock", 4)
        addr = reg.bind(AF_INET, "127.0.0.1:0")
        listener = reg.listen(AF_INET, addr, 2)
        to_server, to_client = Pipe(1), Pipe(2)
        for pipe in (to_server, to_client):
            pipe.open_reader()
            pipe.open_writer()
        to_server.write(b"queued-bytes")
        listener.pending.append((to_server, to_client, "127.0.0.1:32770"))
        return reg, to_server, to_client

    def test_capture_restore_round_trip(self):
        from repro.ckpt.snapshot import _capture_sockets, _restore_sockets

        reg, to_server, to_client = self._registry()
        record = _capture_sockets(reg)
        pipes_by_id = {to_server.pipe_id: to_server,
                       to_client.pipe_id: to_client}
        back = _restore_sockets(record, pipes_by_id)
        assert back.port_next == reg.port_next
        assert back.version == reg.version
        assert set(back.bound) == set(reg.bound)
        restored = back.lookup(AF_INET, "127.0.0.1:%d" % (reg.port_next - 1))
        assert restored is not None
        assert restored.backlog == 2
        (ts, tc, peer), = restored.pending
        assert (ts, tc) == (to_server, to_client)
        assert peer == "127.0.0.1:32770"
        assert ts.read(64) == b"queued-bytes"

    def test_stamp_tracks_version_only(self):
        from types import SimpleNamespace

        from repro.ckpt.snapshot import _STAMPS

        reg, _, _ = self._registry()
        kernel = SimpleNamespace(sockets=reg)
        a = _STAMPS["sockets"](kernel)
        b = _STAMPS["sockets"](kernel)
        assert a == b                          # no mutation, same epoch
        reg.alloc_port()
        c = _STAMPS["sockets"](kernel)
        assert c != a                          # any mutation moves it
