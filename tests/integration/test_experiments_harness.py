"""Smoke the EXPERIMENTS.md generator at a tiny scale, every section."""
import hashlib
import importlib.util
import os

import pytest

from repro.analysis import experiments
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
    def generated(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("exp") / "EXPERIMENTS.md"
        before = _committed_figures()
        text, claims = generate(scale=0.15, out=str(out), quiet=True)
        return text, out, before, claims

    @pytest.fixture(scope="class")
    def run(self, generated):
        return generated[:3]

    @pytest.fixture(scope="class")
    def claims(self, generated):
        return generated[3]

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

    def test_every_section_yields_a_claim(self, claims):
        assert {c.section for c in claims} == {name for name, _, _ in SECTIONS}

    def test_claims_table_renders(self, text, claims):
        table = text[text.index("## Shape claims"):]
        for c in claims:
            assert "| %s | %s | %s | %s |" % (
                c.section, c.claim, c.measured,
                "yes" if c.holds else "**no**") in table


def _run_experiments_script():
    path = os.path.join(REPO, "scripts", "run_experiments.py")
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("holds, status", [(True, 0), (False, 1)])
def test_script_writes_its_output_then_fails_on_a_false_claim(
        tmp_path, monkeypatch, holds, status):
    def fake_section(scale):
        return "## Fake\n", [("the fake shape", "42", holds)]

    monkeypatch.setattr(experiments, "SECTIONS",
                        [("fake", fake_section, False)])
    out = tmp_path / "EXPERIMENTS.md"
    script = _run_experiments_script()
    assert script.main(["--scale", "0.15", "--out", str(out)]) == status
    text = out.read_text()
    assert "## Fake" in text
    assert "| fake | the fake shape | 42 | %s |" % (
        "yes" if holds else "**no**") in text
