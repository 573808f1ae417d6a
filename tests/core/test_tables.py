"""Table/figure text formatting."""
from repro.analysis import (
    PAPER_TABLE1_TOP,
    format_scatter,
    format_table,
    format_table1,
)


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert set(lines[2]) == {"-"}
        assert lines[3].startswith("a")

    def test_table1_fractions(self):
        matrix = {("irreproducible", "reproducible"): 72,
                  ("irreproducible", "unsupported"): 16,
                  ("irreproducible", "timeout"): 12,
                  ("reproducible", "reproducible"): 90,
                  ("reproducible", "unsupported"): 4,
                  ("reproducible", "timeout"): 6}
        text = format_table1(matrix)
        assert "72.0%" in text
        assert "72.7%" in text  # the paper column

    def test_scatter_renders_points(self):
        text = format_scatter([(100, 1.0), (10_000, 5.0)], width=40, height=8)
        assert text.count("*") >= 2
        assert "syscalls/s" in text

    def test_scatter_empty(self):
        assert "no data" in format_scatter([], title="t")

    def test_paper_table1_sums_to_one_per_row(self):
        for given in ("irreproducible", "reproducible"):
            total = sum(v for (g, _), v in PAPER_TABLE1_TOP.items()
                        if g == given)
            assert abs(total - 1.0) < 0.01
