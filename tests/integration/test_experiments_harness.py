"""Smoke the EXPERIMENTS.md generator at a tiny scale, every section."""
import hashlib
import os

import pytest

from repro.analysis.experiments import SECTIONS, generate

REPO = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
FIGURES = ("figure5.svg", "figure6.svg")


def _committed_figures():
    """sha256 of each committed figure file (None when absent)."""
    digests = {}
    for name in FIGURES:
        path = os.path.join(REPO, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        else:
            digests[name] = None
    return digests


class TestGenerator:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("exp") / "EXPERIMENTS.md"
        before = _committed_figures()
        text = generate(scale=0.15, out=str(out), quiet=True)
        return text, out, before

    @pytest.fixture(scope="class")
    def text(self, run):
        return run[0]

    def test_sections_rendered(self, text):
        assert len(SECTIONS) == 8
        for heading in ("## Table 1", "## Table 2", "## Figure 5",
                        "## Figure 6", "## §7.6", "## §7.1.3", "## §7.3",
                        "## §7.2"):
            assert heading in text

    def test_headline_claims_present(self, text):
        assert "tar workaround" in text
        assert "clustal" in text and "raxml" in text
        assert "alexnet" in text and "cifar10" in text

    def test_paper_columns_present(self, text):
        assert "72.65%" in text
        assert "0.29" in text  # raxml paper DT@1

    def test_rows_the_paper_lacks_show_na(self, text):
        for label in ("Socket connects (in-container)",
                      "Socket accepts (in-container)"):
            [row] = [line for line in text.splitlines()
                     if line.startswith("| %s |" % label)]
            assert row.endswith("| n/a |"), row

    def test_figures_written_beside_out(self, run):
        _text, out, _before = run
        for name in FIGURES:
            assert (out.parent / name).read_text().startswith("<svg")

    def test_committed_figures_untouched(self, run):
        assert _committed_figures() == run[2]
