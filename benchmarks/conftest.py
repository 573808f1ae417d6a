"""Benchmark harness configuration.

Sample sizes are scaled for laptop runtimes; set REPRO_BENCH_SCALE=2
(or more) for larger samples.  The paper's evaluation is not here:
``scripts/run_experiments.py`` runs it and checks its shapes.  These
benches are the design-choice ablations, the §2 cache experiment, and
the timing benches, which gate host time through ``gate.py``.
"""

import os

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(n: int) -> int:
    return max(4, int(n * SCALE))


@pytest.fixture(scope="session")
def bench_scale():
    return SCALE
