#!/usr/bin/env python3
"""Constraint-count profile of adaptive LP decoding across block lengths.

For regular codes the number of forbidden-set rows in the final adaptive
iteration grows like a small fraction of the block length, far below the
full exponential description; this script measures that fraction per size.

Example:
    python scripts/adaptive_lp_profile.py --sizes 30,60,120,240 --trials 200
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mpdec.channels import Biawgn, llr, transmit, trial_rng
from mpdec.decoders import adaptive_lp_decode
from mpdec.gf2 import random_regular_ldpc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="30,60,120")
    ap.add_argument("--dv", type=int, default=3)
    ap.add_argument("--dc", type=int, default=6)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print(f"{'n':>6} {'mean rows':>10} {'rows/n':>7} {'max iters':>10} "
          f"{'mean iters':>11}")
    for n in (int(t) for t in args.sizes.split(",")):
        code = random_regular_ldpc(n, args.dv, args.dc, seed=args.seed + n)
        channel = Biawgn(args.sigma)
        zero = np.zeros(n, dtype=np.uint8)
        rows, iters = [], []
        for t in range(args.trials):
            lam = llr(transmit(zero, channel, trial_rng(args.seed, n, t)), channel)
            res = adaptive_lp_decode(code, lam)
            rows.append(res.stats.final_rows)
            iters.append(res.stats.iterations)
        rows = np.array(rows)
        print(f"{n:>6} {rows.mean():>10.1f} {rows.mean()/n:>7.2f} "
              f"{max(iters):>10} {np.mean(iters):>11.2f}")


if __name__ == "__main__":
    main()
