#!/usr/bin/env python3
"""Run the full evaluation and (re)generate EXPERIMENTS.md.

Usage:  python scripts/run_experiments.py [--scale N] [--out FILE]

Writes FILE (default EXPERIMENTS.md) and, in the same directory,
figure5.svg and figure6.svg.

The implementation lives in :mod:`repro.analysis.experiments` so the test
suite can smoke it at a tiny scale.
"""

import argparse

from repro.analysis.experiments import generate


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()
    generate(scale=args.scale, out=args.out)


if __name__ == "__main__":
    main()
