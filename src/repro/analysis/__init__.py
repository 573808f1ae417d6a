"""Evaluation analysis: formatting the paper's tables and figures."""

from .experiments import generate
from .figures import figure5_svg, figure6_svg
from .tables import (
    PAPER_BUILD_AGGREGATE,
    PAPER_FIG6,
    PAPER_RR,
    PAPER_TABLE1_TOP,
    PAPER_TABLE2,
    PAPER_TF,
    format_scatter,
    format_table,
    format_table1,
)

__all__ = [
    "figure5_svg",
    "figure6_svg",
    "generate",
    "PAPER_BUILD_AGGREGATE",
    "PAPER_FIG6",
    "PAPER_RR",
    "PAPER_TABLE1_TOP",
    "PAPER_TABLE2",
    "PAPER_TF",
    "format_scatter",
    "format_table",
    "format_table1",
]
