"""Socket-era fuzz coverage: the sock/dup2pipe/sigpipe grammar ops,
their rnr-axis gating, and the PR-convention proof that the banked
corpus entries *catch their bugs when re-introduced*.

Cross-cell comparison cannot see a bug that is present in every cell,
so each corpus entry carries an in-guest oracle (a ``VIOLATION`` line,
or a hang the kernel surfaces as a deadlock).  The re-introduction
tests below monkeypatch the fixed kernel paths back to their pre-fix
behaviour and assert the corpus program actually fails.
"""
import os

import pytest

from repro.fuzz.grammar import ProgramSpec, generate_program
from repro.fuzz.runner import MATRIX, check_program, run_cell, violations
from repro.kernel.errors import Errno, SyscallError
from repro.kernel.fds import FDTable
from repro.kernel.syscalls import SyscallTable

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _load(filename: str) -> ProgramSpec:
    import json

    with open(os.path.join(CORPUS_DIR, filename)) as fh:
        from repro.fuzz.corpus import CorpusEntry

        return CorpusEntry.from_dict(json.load(fh)).spec


class TestSocketMatrix:
    def test_sock_ops_clean_across_cell_matrix(self):
        """Acceptance: the socket fuzz axis is clean in the 5-cell
        matrix at a fixed seed, and every cell logs the same
        deterministic ephemeral ports."""
        spec = _load("sock-echo-deterministic-ports.json")
        report = check_program(spec, workers=1, rnr=False, ckpt=False)
        assert report.ok, report.failures
        assert len(report.captures) == len(MATRIX) == 5
        base = report.captures[0]
        # The port-0 draw and the unnamed-client peers resolve to the
        # monotonic ephemeral counter, identically in every cell.
        assert "127.0.0.1:32768" in base.stdout
        for rec in report.captures[1:]:
            assert rec.stdout == base.stdout

    def test_sock_ops_are_rnr_compatible(self):
        spec = _load("sock-echo-deterministic-ports.json")
        assert spec.rnr_compatible()

    def test_signal_and_dup2_ops_are_excluded_from_rnr(self):
        """Pure-injection replay cannot reproduce kernel-side SIGPIPE
        delivery or pass-through dup2 aliasing; the axis gate must
        exclude exactly those programs (mirroring uses_threads())."""
        assert not _load("sigpipe-ignored-writer.json").rnr_compatible()
        assert not _load("dup2-over-pipe.json").rnr_compatible()
        # Vanilla programs stay on the axis.
        assert generate_program(0).rnr_compatible()


class TestGrammarGeneratesSocketOps:
    def test_walk_reaches_every_new_op(self):
        seen = set()
        for seed in range(60):
            for op in generate_program(seed).ops:
                seen.add(op["op"])
        assert {"sock", "dup2pipe", "sigpipe"} <= seen


class TestBugReintroduction:
    """PR 5 convention: each banked reproducer must fail again when its
    bug is put back."""

    def test_dup2_plain_decrement_hangs_the_reader(self, monkeypatch):
        """Revert FDTable.dup2 to the bare refcount decrement: the
        displaced write fd leaks its writer count, the guest's EOF read
        blocks forever, and the kernel reports a deadlock."""
        original = FDTable.dup2

        def plain_decrement(self, oldfd, newfd, dropper=None):
            return original(self, oldfd, newfd, dropper=None)

        monkeypatch.setattr(FDTable, "dup2", plain_decrement)
        spec = _load("dup2-over-pipe.json")
        record = run_cell(spec.to_dict(), MATRIX[0].to_dict())
        assert record.status == "deadlock"

    def test_epipe_without_signal_trips_the_oracle(self, monkeypatch):
        """Revert _broken_pipe to the bare-EPIPE behaviour (no SIGPIPE
        posted): the counting handler never fires and the guest prints
        the sigpipe-not-delivered violation."""

        def epipe_only(self, t, name):
            raise SyscallError(Errno.EPIPE, name)

        monkeypatch.setattr(SyscallTable, "_broken_pipe", epipe_only)
        spec = _load("sigpipe-ignored-writer.json")
        record = run_cell(spec.to_dict(), MATRIX[0].to_dict())
        assert any("sigpipe-not-delivered fired=0" in line
                   for line in violations(record))

    def test_fixed_tree_passes_both_reproducers(self):
        """The same two programs on the unpatched tree: clean."""
        for filename in ("dup2-over-pipe.json", "sigpipe-ignored-writer.json"):
            record = run_cell(_load(filename).to_dict(), MATRIX[0].to_dict())
            assert record.status == "ok", (filename, record.stderr)
            assert violations(record) == [], (filename, violations(record))
