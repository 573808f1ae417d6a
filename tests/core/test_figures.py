"""SVG figure renderers."""
from repro.analysis import figure5_svg, figure6_svg


def sample_speedups():
    return {
        "clustal": {"native": [1.0, 2.7, 4.8], "dettrace": [0.9, 2.4, 4.3]},
        "hmmer": {"native": [1.0, 3.2, 7.4], "dettrace": [0.6, 2.0, 3.6]},
        "raxml": {"native": [1.0, 3.4, 8.6], "dettrace": [0.3, 0.9, 1.2]},
    }


class TestFigure5:
    def test_valid_svg_with_points(self):
        svg = figure5_svg([(1000, 1.2), (20000, 3.5), (40000, 8.0)],
                          threaded=[False, True, False])
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<circle") == 3
        assert "system calls per second" in svg

    def test_log_axis_spans_the_data(self):
        import re

        svg = figure5_svg([(100, 1.0), (200, 10.0)])
        labels = [float(v) for v in re.findall(r">(\d+\.\d+)</text>", svg)]
        assert min(labels) <= 1.0
        assert max(labels) >= 10.0


class TestFigure6:
    def test_bars_per_tool_and_mode(self):
        svg = figure6_svg(sample_speedups())
        # 3 tools x 3 proc counts x 2 modes = 18 bars (+2 legend rects)
        assert svg.count("<rect") == 20
        assert "clus/16" in svg
        assert "DetTrace" in svg
