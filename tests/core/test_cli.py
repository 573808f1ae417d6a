"""The `python -m repro` CLI."""
import pytest

from repro.cli import main


class TestRun:
    def test_run_date(self, capsys):
        assert main(["run", "date"]) == 0
        assert capsys.readouterr().out == "Aug  8 22:00:00 1993 UTC\n"

    def test_run_is_boot_independent(self, capsys):
        main(["run", "--boot", "1", "date"])
        first = capsys.readouterr().out
        main(["run", "--boot", "9", "date"])
        assert capsys.readouterr().out == first

    def test_native_is_boot_dependent(self, capsys):
        main(["run", "--native", "--boot", "1", "date"])
        first = capsys.readouterr().out
        main(["run", "--native", "--boot", "9", "date"])
        assert capsys.readouterr().out != first

    def test_unknown_tool(self, capsys):
        assert main(["run", "frobnicate"]) == 127
        assert "not in the toolbox" in capsys.readouterr().err

    def test_exit_code_propagates(self):
        assert main(["run", "false"]) == 1

    def test_verbose_stats(self, capsys):
        assert main(["run", "--verbose", "true"]) == 0
        assert "syscalls" in capsys.readouterr().err

    def test_double_dash(self, capsys):
        assert main(["run", "--", "ls", "/etc"]) == 0
        assert "hostname" in capsys.readouterr().out


class TestRepeat:
    """``repro run --jobs 1 --repeat M``: the in-process fan-out loop."""

    def test_repeats_are_identical(self, capsys):
        assert main(["run", "--jobs", "1", "--repeat", "3", "--",
                     "date"]) == 0
        out = capsys.readouterr()
        assert out.out == "Aug  8 22:00:00 1993 UTC\n"
        assert "outputs identical" in out.err

    def test_planted_divergence_exits_70(self, capsys, monkeypatch):
        from repro import cli

        run_container = cli._run_container
        results = []

        def planted(*args):
            results.append(run_container(*args))
            if len(results) == 2:
                results[-1].stdout += "planted line\n"
            return results[-1]

        monkeypatch.setattr(cli, "_run_container", planted)
        assert main(["run", "--jobs", "1", "--repeat", "3", "--",
                     "date"]) == 70
        err = capsys.readouterr().err
        assert len(results) == 3
        assert "outputs DIVERGENT" in err
        assert "DIVERGENCE [stream-content]" in err

    def test_cached_repeats_store_once_and_hit_twice(self, tmp_path,
                                                     capsys):
        """The ``cache/*`` counters a hit stamps are not part of the
        compared surface."""
        assert main(["run", "--cache-dir", str(tmp_path), "--jobs", "1",
                     "--repeat", "3", "--", "date"]) == 0
        err = capsys.readouterr().err
        assert "outputs identical" in err
        assert "[cache: 2 hit, 1 store]" in err


class TestScript:
    def test_script_runs_reproducibly(self, tmp_path, capsys):
        script = tmp_path / "job.sh"
        script.write_text("date > stamp\necho ok\n")
        assert main(["script", str(script)]) == 0
        first = capsys.readouterr().out
        assert main(["script", "--boot", "5", str(script)]) == 0
        assert capsys.readouterr().out == first

    def test_show_tree(self, tmp_path, capsys):
        script = tmp_path / "job.sh"
        script.write_text("echo x > produced\n")
        assert main(["script", "--show-tree", str(script)]) == 0
        assert "produced" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestCliOptions:
    def test_machine_flag(self, capsys):
        assert main(["run", "--machine", "broadwell-e5-2620v4", "date"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "--machine", "cloudlab-c220g5", "date"]) == 0
        # the container masks the machine: same output everywhere
        assert capsys.readouterr().out == first

    def test_script_native_varies(self, tmp_path, capsys):
        script = tmp_path / "j.sh"
        script.write_text("date\n")
        main(["script", "--native", "--boot", "1", str(script)])
        first = capsys.readouterr().out
        main(["script", "--native", "--boot", "7", str(script)])
        assert capsys.readouterr().out != first

    def test_seed_changes_container_randomness(self, capsys):
        main(["run", "--seed", "1", "mktemp"])
        first = capsys.readouterr().out
        main(["run", "--seed", "2", "mktemp"])
        second = capsys.readouterr().out
        # mktemp uses the vDSO clock (logical under DetTrace), which the
        # PRNG seed does not affect; sha over urandom would differ.  Both
        # must still be non-empty deterministic names.
        assert first and second
