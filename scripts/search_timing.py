#!/usr/bin/env python3
"""Wall time of branch & bound ML decoding on a (3,6)-regular code.

Decodes the frames `trial_rng(seed, 0, t)`, t = 0..frames-1, of the
all-zero codeword over BIAWGN with `branch_and_bound`, prints one line per
frame (status, value, branch nodes, ms) and then the median ms/frame and
nodes/frame.  The defaults are the n=48 frames of ROADMAP item 1.

Example:
    python scripts/search_timing.py --n 48 --sigma 0.75 --frames 20
"""

import argparse
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mpdec.channels import Biawgn, llr, transmit, trial_rng
from mpdec.decoders import branch_and_bound_decode
from mpdec.gf2 import random_regular_ldpc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=48)
    ap.add_argument("--code-seed", type=int, default=1)
    ap.add_argument("--sigma", type=float, default=0.75)
    ap.add_argument("--frames", type=int, default=20)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    code = random_regular_ldpc(args.n, 3, 6, args.code_seed)
    channel = Biawgn(args.sigma)
    zero = np.zeros(code.n, dtype=np.uint8)
    print(f"# python {platform.python_version()} numpy {np.__version__} "
          f"{platform.machine()}; random_regular_ldpc({args.n}, 3, 6, "
          f"{args.code_seed}), biawgn sigma={args.sigma:g}, trial_rng({args.seed}, 0, t)")
    ms, nodes = [], []
    for t in range(args.frames):
        lam = llr(transmit(zero, channel, trial_rng(args.seed, 0, t)), channel)
        start = time.perf_counter()
        res = branch_and_bound_decode(code, lam)
        ms.append(1000.0 * (time.perf_counter() - start))
        nodes.append(res.stats.branch_nodes)
        print(f"frame={t} status={res.status.value} value={res.value:.12g} "
              f"nodes={res.stats.branch_nodes} ms={ms[-1]:.2f}")
    print(f"median ms/frame={np.median(ms):.2f} median nodes/frame={np.median(nodes):g} "
          f"mean nodes/frame={np.mean(nodes):.1f}")


if __name__ == "__main__":
    main()
