"""Every script in ``examples/`` runs to completion.

The examples call the library the way a user does, so an API change
that misses one breaks it here rather than in a reader's hands.  Each
runs in its own interpreter against this checkout's ``src/``, from a
scratch working directory.
"""
import glob
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(SRC), "examples", "*.py")))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, script], cwd=str(tmp_path),
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
