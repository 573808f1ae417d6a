"""Fuzz coverage of blocked wait4: the spawnwait op, its late-spawn
variant, and the banked corpus entry that keeps both on the matrix.

A parent blocked in wait4 is the only traffic the tracer's wake-epoch
memo replays, so without this op no fuzzed program reaches the memo.
"""
import json
import os

from repro.core import ContainerConfig, DetTrace
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.grammar import ProgramSpec, generate_program
from repro.fuzz.guest import build_image
from repro.fuzz.runner import MATRIX, run_cell
from repro.kernel.kernel import Kernel

ENTRY = os.path.join(os.path.dirname(__file__), "corpus",
                     "spawnwait-late-child-reaped.json")


def _entry() -> ProgramSpec:
    with open(ENTRY) as fh:
        return CorpusEntry.from_dict(json.load(fh)).spec


class TestGrammar:
    def test_walk_reaches_both_variants(self):
        lates = {op["late"] for seed in range(60)
                 for op in generate_program(seed).ops
                 if op["op"] == "spawnwait"}
        assert lates == {False, True}

    def test_late_variant_counts_as_threaded(self):
        def spec(late):
            return ProgramSpec(seed=0, ops=(
                {"op": "spawnwait", "body": [], "late": late},))

        assert spec(True).uses_threads()
        assert not spec(False).uses_threads()


class TestCorpusEntry:
    """The full-matrix replay of the entry is test_corpus.py's job, and
    its memo hits are counted by test_wake_gated_replay.py."""

    def test_late_child_is_spawned_after_the_wait_first_blocks(self):
        result = DetTrace(ContainerConfig(debug=1)).run(
            build_image(_entry()), "/bin/fuzz")
        assert result.succeeded, (result.status, result.error)
        assert "002 spawnwait ok:status=0,0\n" in result.stdout
        lines = result.debug_log

        def first(*needles):
            return next(i for i, line in enumerate(lines)
                        if all(n in line for n in needles))

        blocked = first("wait4(options=0, pid=-1) -> block")
        assert blocked < first("spawn_process(", "'002.l'")

    def test_a_memo_blind_to_exits_deadlocks(self, monkeypatch):
        """Re-introduction: a wake epoch that no notification advances
        replays the parent's block past every child exit."""
        notify = Kernel.notify

        def frozen(self, channel):
            epoch = self.wake_epoch
            woken = notify(self, channel)
            self.wake_epoch = epoch
            return woken

        monkeypatch.setattr(Kernel, "notify", frozen)
        record = run_cell(_entry().to_dict(), MATRIX[0].to_dict())
        assert record.status == "deadlock"
