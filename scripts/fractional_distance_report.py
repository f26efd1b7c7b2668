#!/usr/bin/env python3
"""Fractional distance vs true minimum distance for a list of codes.

The fractional distance lower-bounds the minimum distance; for products of
single parity-check codes the two coincide, which this table makes easy to
see.

Example:
    python scripts/fractional_distance_report.py --codes spc:3,3 spc:3,4 \
        random:16,3,4,3 random:24,3,4,1
"""

import argparse
import sys
from pathlib import Path
import time

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mpdec.cli import load_code
from mpdec.decoders import fractional_distance
from mpdec.gf2 import min_distance_bruteforce


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--codes", nargs="+",
                    default=["spc:3,3", "spc:3,4", "random:16,3,4,3"])
    ap.add_argument("--formulation", default="fs", choices=["fs", "cascade"])
    args = ap.parse_args()

    print(f"{'code':>18} {'n':>5} {'k':>4} {'d':>4} {'d_frac':>10} {'time':>8}")
    for spec in args.codes:
        code = load_code(spec)
        t0 = time.time()
        frac = fractional_distance(code, args.formulation)
        d = min_distance_bruteforce(code) if code.k <= 20 else float("nan")
        print(f"{spec:>18} {code.n:>5} {code.k:>4} {d:>4} {frac:>10.4f} "
              f"{time.time() - t0:>7.2f}s")


if __name__ == "__main__":
    main()
