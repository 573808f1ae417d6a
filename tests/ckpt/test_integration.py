"""Checkpointing wired into the surrounding planes: the supervised
runner's resume-over-restart preference, crash-report persistence, the
SIGTERM barrier request, and the `repro run/ckpt` CLI surface."""

import json
import os
import signal
import time

import pytest

from repro.ckpt import CheckpointManager, scan
from repro.core import DetTrace, RESUMED
from repro.cpu.machine import HostEnvironment
from repro.faults.report import CrashReport

from .conftest import ckpt_config, ckpt_image, result_fp, run_baseline

pytestmark = pytest.mark.ckpt


class TestSupervisedResume:
    def test_crash_then_resume_reports_resumed(self, journal_dir):
        cfg = ckpt_config(journal_dir, tick=60)
        result = DetTrace(cfg).run_supervised(
            ckpt_image(), "/bin/main", host=HostEnvironment(entropy_seed=7))
        assert result.status == RESUMED
        assert result.exit_code == 0
        assert result.attempts == 2
        log = result.crash_report.attempt_log
        assert [rec.status for rec in log] == ["crashed", "resumed"]
        assert result.succeeded

    def test_supervised_resume_output_matches_baseline(self, journal_dir):
        baseline = run_baseline()
        cfg = ckpt_config(journal_dir, tick=60)
        result = DetTrace(cfg).run_supervised(
            ckpt_image(), "/bin/main", host=HostEnvironment(entropy_seed=7))
        assert result.stdout == baseline.stdout
        assert result.output_tree == baseline.output_tree

    def test_crash_report_persisted_atomically(self, journal_dir):
        cfg = ckpt_config(journal_dir, tick=60)
        DetTrace(cfg).run_supervised(
            ckpt_image(), "/bin/main", host=HostEnvironment(entropy_seed=7))
        path = os.path.join(journal_dir, "crash-report.json")
        assert os.path.exists(path)
        assert not [name for name in os.listdir(journal_dir)
                    if name.startswith(".tmp-")]
        with open(path) as fh:
            data = json.load(fh)
        report = CrashReport.from_dict(data)
        assert report.status == RESUMED
        assert len(report.attempt_log) == 2
        assert report.attempt_log[0].status == "crashed"

    def test_without_checkpoint_supervisor_restarts_from_scratch(self):
        from .conftest import kill_plan
        from repro.core import ContainerConfig

        cfg = ContainerConfig(fault_plan=kill_plan(60))
        result = DetTrace(cfg).run_supervised(
            ckpt_image(), "/bin/main", host=HostEnvironment(entropy_seed=7))
        # The kill rule is transient (attempt 0 only), so the full
        # restart on attempt 1 completes: classic RETRIED, not RESUMED.
        assert result.status == "retried"
        assert result.attempts == 2


class TestCrashReportWrite:
    def test_write_json_round_trips(self, tmp_path):
        report = CrashReport(status="crashed", error="boom",
                             fault_trace=[{"fault": "kill", "index": 3}])
        path = str(tmp_path / "report.json")
        report.write_json(path)
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.startswith(".tmp-")]
        with open(path) as fh:
            back = CrashReport.from_dict(json.load(fh))
        assert back.status == "crashed"
        assert back.error == "boom"
        assert back.fault_trace == [{"fault": "kill", "index": 3}]


class TestSigtermBarrier:
    def test_request_snapshots_at_next_barrier_and_resumes(self, journal_dir):
        """`request()` is the SIGTERM path minus the signal itself: with
        periodic barriers off, one request yields exactly one snapshot,
        and that snapshot resumes to the uninterrupted result."""
        from repro.kernel.kernel import Kernel
        from repro.obs.collector import Collector

        baseline = run_baseline()
        cfg = ckpt_config(journal_dir, every=0)
        kernel = Kernel(HostEnvironment(entropy_seed=7))
        kernel.obs = Collector(trace=False, debug=False)
        container = DetTrace(cfg)
        container._prepare(kernel, ckpt_image(), 0)
        manager = CheckpointManager(journal_dir, every=0, keep=3,
                                    fingerprint=cfg.fingerprint())
        kernel.ckpt = manager
        kernel.boot("/bin/main", env=cfg.env_for(kernel.host.env), uid=0,
                    cwd_path=cfg.working_dir)
        manager.request()  # as the SIGTERM handler would
        kernel.run(deadline=cfg.timeout, max_events=cfg.max_events)
        infos = [info for info in scan(journal_dir) if info.valid]
        assert len(infos) == 1, "one request, one snapshot"
        assert manager.requested is False
        resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
        assert resumed.status == "resumed"
        assert result_fp(resumed) == result_fp(baseline)

    def test_cli_handler_requests_on_sigterm(self, journal_dir):
        from repro.cli import _install_sigterm

        cfg = ckpt_config(journal_dir, every=0)
        container = DetTrace(cfg)
        container.active_ckpt = CheckpointManager(
            journal_dir, every=0, keep=3, fingerprint=cfg.fingerprint())
        restore_handler = _install_sigterm(container)
        try:
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.time() + 5.0
            while not container.active_ckpt.requested:
                if time.time() > deadline:
                    pytest.fail("SIGTERM handler never ran")
                time.sleep(0.001)
        finally:
            restore_handler()
        assert container.active_ckpt.requested

    def test_every_zero_writes_no_snapshots(self, journal_dir):
        cfg = ckpt_config(journal_dir, every=0)
        result = DetTrace(cfg).run(ckpt_image(), "/bin/main",
                                   host=HostEnvironment(entropy_seed=7))
        assert result.status == "ok"
        assert scan(journal_dir) == []


class TestCli:
    def _plan_file(self, tmp_path, tick):
        path = str(tmp_path / "plan.json")
        with open(path, "w") as fh:
            json.dump({"rules": [{"fault": "kill", "at_tick": tick,
                                  "transient": True}]}, fh)
        return path

    def test_run_crash_resume_and_verify(self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "journal")
        plan = self._plan_file(tmp_path, 40)
        base = ["run", "--checkpoint-dir", journal, "--checkpoint-every",
                "9", "--faults", plan, "--", "ls", "-l", "/bin"]
        assert main(base) == 70  # crashed mid-flight
        capsys.readouterr()
        assert main(base[:1] + ["--resume"] + base[1:]) == 0
        resumed_out = capsys.readouterr().out
        assert main(["run", "--", "ls", "-l", "/bin"]) == 0
        assert capsys.readouterr().out == resumed_out
        assert main(["ckpt", "verify", journal]) == 0
        assert main(["ckpt", "inspect", journal]) == 0
        capsys.readouterr()

    def test_verify_fails_on_torn_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "journal")
        plan = self._plan_file(tmp_path, 40)
        main(["run", "--checkpoint-dir", journal, "--checkpoint-every", "9",
              "--faults", plan, "--", "ls", "-l", "/bin"])
        snaps = sorted(os.listdir(journal))
        with open(os.path.join(journal, snaps[0]), "r+b") as fh:
            fh.truncate(10)
        capsys.readouterr()
        assert main(["ckpt", "verify", journal]) == 1
        assert main(["ckpt", "prune", journal, "--keep", "1"]) == 0
        assert main(["ckpt", "verify", journal]) == 0
        capsys.readouterr()

    def test_resume_without_journal_falls_back_to_fresh_run(
            self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "empty")
        code = main(["run", "--checkpoint-dir", journal, "--resume",
                     "--", "date"])
        captured = capsys.readouterr()
        assert code == 0
        assert "starting a fresh run" in captured.err

    def test_resume_requires_checkpoint_dir(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--resume", "--", "date"])
