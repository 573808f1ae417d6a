"""End-to-end diagnosis against the known-ground-truth leak harness:
trace localization, checkpoint bisection, fingerprint identity, and the
obs invariant (diagnosis never perturbs the run)."""

import pytest

from repro.ckpt import FULL_SCOPE, GUEST_SCOPE, RecoveryManager
from repro.core import ContainerConfig, Image
from repro.core.config import CheckpointConfig
from repro.cpu.machine import HostEnvironment
from repro.diag import (
    RunSpec,
    bisect_divergence,
    content_leak_pair,
    diff_captures,
    identical_pair,
    leaky_pair,
)
from repro.diag.harness import LEAK_CHUNK, PADDING_WRITES, leak_spec

pytestmark = pytest.mark.diag


class TestLeakLocalization:
    def test_identical_pair_is_clean(self):
        spec_a, spec_b = identical_pair()
        report = diff_captures(spec_a.capture(), spec_b.capture())
        assert not report.diverged

    def test_length_leak_diverges_in_trace(self):
        spec_a, spec_b = leaky_pair()
        report = diff_captures(spec_a.capture(), spec_b.capture())
        assert report.classification == "schedule"
        # The coordinate is deterministic virtual time from the trace.
        assert report.vts is not None and report.vts > 0
        assert report.position is not None
        # One extra chunk write on side b: three more records
        # (open/write/close) and the syscall counters shifted by one.
        deltas = report.counter_deltas
        assert deltas["counter/syscall/write/rewritten"][1] == \
            deltas["counter/syscall/write/rewritten"][0] + 1
        assert deltas["total/events_processed"][1] > \
            deltas["total/events_processed"][0]
        # Context windows captured the agreeing prefix on both sides.
        assert report.context["a"] == report.context["b"]
        assert len(report.context["a"]) > 0

    def test_content_leak_is_trace_invisible_but_fs_visible(self):
        spec_a, spec_b = content_leak_pair()
        report = diff_captures(spec_a.capture(), spec_b.capture())
        assert report.classification == "fs-content"
        assert report.first_path == "out/leak00.bin"

    def test_report_vts_matches_trace_timeline(self):
        spec_a, spec_b = leaky_pair()
        cap_a = spec_a.capture()
        report = diff_captures(cap_a, spec_b.capture())
        trace_ts = [rec["ts"] / 1e6 for rec in cap_a.records]
        assert min(trace_ts) <= report.vts <= max(trace_ts)


class TestBisection:
    def test_content_leak_bisects_to_single_tick(self):
        spec_a, spec_b = content_leak_pair()
        result = bisect_divergence(spec_a, spec_b, coarse=16)
        assert result.diverged
        assert result.hi is not None
        assert result.hi - result.lo == 1
        assert result.lo_vclock < result.hi_vclock
        # The leak write happens after the mkdir + padding writes.
        assert result.lo > PADDING_WRITES
        assert result.report.bisect["lo"] == result.lo
        assert result.report.bisect["hi"] == result.hi

    def test_identical_pair_never_diverges(self):
        spec_a, spec_b = identical_pair()
        result = bisect_divergence(spec_a, spec_b, coarse=16)
        assert not result.diverged
        assert result.hi is None
        assert not result.report.diverged
        assert "no divergence" in result.summary()

    def test_probe_budget_bounds_narrowing(self):
        spec_a, spec_b = content_leak_pair()
        result = bisect_divergence(spec_a, spec_b, coarse=16,
                                   max_probes=1)
        assert result.diverged
        assert result.probes <= 1
        # Window still brackets the truth, just wider.
        assert result.lo < result.hi

    def test_bisection_is_deterministic(self):
        first = bisect_divergence(*content_leak_pair(), coarse=16)
        second = bisect_divergence(*content_leak_pair(), coarse=16)
        assert first.window() == second.window()
        assert first.report.to_dict() == second.report.to_dict()


def _computing_leak_image(leak: bytes) -> Image:
    """Padding writes, one write plus one ``compute`` per leak chunk,
    more padding: each compute draws scheduler jitter from the host."""

    def _main(sys_):
        yield from sys_.mkdir_p("out")
        for i in range(PADDING_WRITES):
            yield from sys_.write_file("out/pre%02d.txt" % i, b"p" * (8 + i))
        for n, off in enumerate(range(0, len(leak), LEAK_CHUNK)):
            yield from sys_.write_file("out/leak%02d.bin" % n,
                                       leak[off:off + LEAK_CHUNK])
            yield from sys_.compute(1e-4)
        for i in range(PADDING_WRITES):
            yield from sys_.write_file("out/post%02d.txt" % i, b"q" * (8 + i))
        return 0

    image = Image()
    image.add_binary("/bin/main", _main)
    return image


def _computing_leak_spec(leak: bytes, label: str, host) -> RunSpec:
    return RunSpec(image_factory=lambda: _computing_leak_image(leak),
                   command="/bin/main", config=ContainerConfig(),
                   host=host, label=label)


class TestReExecution:
    """Every re-execution of a side replays the same boot, and a probe
    stops at its barrier."""

    LEAKS = (b"L" * LEAK_CHUNK, b"L" * (8 * LEAK_CHUNK))

    def _first_differing_barrier(self, tmp_path) -> int:
        """One fresh run per side, checkpointed at every event."""
        fps = []
        for leak, label in zip(self.LEAKS, "ab"):
            directory = str(tmp_path / ("every-" + label))
            _computing_leak_spec(leak, label, HostEnvironment(
                entropy_seed=7)).run(checkpoint=CheckpointConfig(
                    directory=directory, every=1, keep=0))
            fps.append(RecoveryManager(directory).chain_fingerprints(
                scope=GUEST_SCOPE))
        return min(b for b in set(fps[0]) & set(fps[1])
                   if fps[0][b][0] != fps[1][b][0])

    def test_asymmetric_leak_bisects_to_the_fresh_runs_barrier(self,
                                                               tmp_path):
        """Both sides share one host object, as ``repro diag bisect``
        builds them; the sides agree up to the second leak chunk."""
        host = HostEnvironment(entropy_seed=7)
        result = bisect_divergence(
            *(_computing_leak_spec(leak, label, host)
              for leak, label in zip(self.LEAKS, "ab")), coarse=16)
        assert result.hi is not None and result.hi - result.lo == 1
        assert result.hi == self._first_differing_barrier(tmp_path)
        assert host._state_version == 0  # the caller's host never drew

    def test_a_probe_stops_after_its_barrier(self, tmp_path):
        spec_a, spec_b = content_leak_pair()
        result = bisect_divergence(spec_a, spec_b, coarse=16,
                                   workdir=str(tmp_path))
        probes = sorted(path for path in tmp_path.iterdir()
                        if path.name.startswith("probe-"))
        assert result.probes > 0 and len(probes) == 2 * result.probes
        for path in probes:
            mid = int(path.name.rsplit("-", 1)[1])
            barriers = [snap.barrier for snap
                        in RecoveryManager(str(path)).snapshots()]
            assert barriers[-1] == mid, (path.name, barriers)


class TestFingerprints:
    def _fingerprints(self, spec, directory, scope=GUEST_SCOPE, every=16):
        spec.run(checkpoint=CheckpointConfig(directory=directory,
                                             every=every, keep=0))
        return {snap.barrier: snap.fingerprint(scope=scope)
                for snap in RecoveryManager(directory).snapshots()}

    def test_identical_runs_fingerprint_equal_at_every_barrier(self,
                                                               tmp_path):
        spec = leak_spec(b"Z" * 8, "fp")
        fps_a = self._fingerprints(spec, str(tmp_path / "a"))
        fps_b = self._fingerprints(spec, str(tmp_path / "b"))
        assert fps_a and fps_a == fps_b

    def test_full_scope_differs_from_guest_scope(self, tmp_path):
        spec = leak_spec(b"Z" * 8, "fp")
        guest = self._fingerprints(spec, str(tmp_path / "g"),
                                   scope=GUEST_SCOPE)
        full = self._fingerprints(spec, str(tmp_path / "f"),
                                  scope=FULL_SCOPE)
        assert set(guest) == set(full)
        assert all(guest[k] != full[k] for k in guest)


class TestObsInvariant:
    def test_diagnosis_never_perturbs_the_run(self, tmp_path):
        """A diagnosed run (observe + checkpointing for bisection) stays
        byte-identical to a bare run on the guest-visible surface."""
        bare = leak_spec(b"Y" * 8, "bare").run()
        observed = leak_spec(b"Y" * 8, "obs").run(observe=True)
        ckpt = leak_spec(b"Y" * 8, "ckpt").run(
            observe=True,
            checkpoint=CheckpointConfig(directory=str(tmp_path / "j"),
                                        every=16, keep=0))
        for result in (observed, ckpt):
            assert result.stdout == bare.stdout
            assert result.stderr == bare.stderr
            assert result.exit_code == bare.exit_code
            assert result.output_tree == bare.output_tree
