#!/usr/bin/env python3
"""Run the full evaluation and (re)generate EXPERIMENTS.md.

Usage:  python scripts/run_experiments.py [--scale N] [--out FILE]

Writes FILE (default EXPERIMENTS.md) and, in the same directory,
figure5.svg and figure6.svg, then exits 1 if any of the paper's shape
claims (the closing table of FILE) does not hold.

The implementation lives in :mod:`repro.analysis.experiments` so the test
suite can smoke it at a tiny scale.
"""

import argparse
import sys

from repro.analysis.experiments import generate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    _text, claims = generate(scale=args.scale, out=args.out)
    false = [c for c in claims if not c.holds]
    for c in false:
        sys.stderr.write("claim does not hold: %s: %s (measured %s)\n"
                         % (c.section, c.claim, c.measured))
    return 1 if false else 0


if __name__ == "__main__":
    sys.exit(main())
