"""The regression corpus: shrunk reproducers as checked-in JSON.

Every divergence the fuzzer ever finds becomes a small JSON file under
``tests/fuzz/corpus/``; the test suite replays the whole directory on
every run.  A corpus entry is a *program*, not an assertion — replaying
it re-runs the full configuration matrix, so the entry keeps guarding
against whatever class of bug it once exposed (and any new one the same
program happens to trip).
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Optional

from ..obs.jsonio import write_json_atomic
from .grammar import ProgramSpec

#: Default corpus location, relative to the repo root.
DEFAULT_CORPUS_DIR = os.path.join("tests", "fuzz", "corpus")


@dataclasses.dataclass
class CorpusEntry:
    """One minimal reproducer plus the context it was found in."""

    spec: ProgramSpec
    #: Human note: which bug/divergence this once exposed.
    reason: str = ""
    #: Failure strings from the run that was shrunk (historical record —
    #: a healthy tree reproduces none of them).
    original_failures: tuple = ()
    #: Corpus-relative path of the banked repro.diag divergence report
    #: for the shrunk program ("" when diagnosis was off or clean).
    divergence_report: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "reason": self.reason,
            "original_failures": list(self.original_failures),
            "program": self.spec.to_dict(),
        }
        if self.divergence_report:
            data["divergence_report"] = self.divergence_report
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CorpusEntry":
        return cls(spec=ProgramSpec.from_dict(data["program"]),
                   reason=data.get("reason", ""),
                   original_failures=tuple(data.get("original_failures", ())),
                   divergence_report=data.get("divergence_report", ""))

    @property
    def name(self) -> str:
        return "seed%d-%s" % (self.spec.seed, self.spec.digest[:12])


def save_entry(entry: CorpusEntry, corpus_dir: str,
               filename: Optional[str] = None) -> str:
    """Write *entry* as ``<corpus_dir>/<name>.json``; returns the path."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, (filename or entry.name) + ".json")
    return write_json_atomic(path, entry.to_dict())


def load_corpus(corpus_dir: str) -> List[CorpusEntry]:
    """All entries in *corpus_dir*, sorted by filename (deterministic)."""
    entries: List[CorpusEntry] = []
    if not os.path.isdir(corpus_dir):
        return entries
    for fname in sorted(os.listdir(corpus_dir)):
        # Divergence reports are banked beside their entries; they are
        # attachments, not corpus entries themselves.
        if not fname.endswith(".json") or fname.endswith(".divergence.json"):
            continue
        with open(os.path.join(corpus_dir, fname)) as fh:
            entries.append(CorpusEntry.from_dict(json.load(fh)))
    return entries


def replay_corpus(corpus_dir: str, workers: int = 2,
                  rnr: bool = True) -> List:
    """Re-check every corpus entry; returns the list of failed reports."""
    from .runner import check_program

    failed = []
    for entry in load_corpus(corpus_dir):
        report = check_program(entry.spec, workers=workers, rnr=rnr)
        if not report.ok:
            failed.append(report)
    return failed
