#!/usr/bin/env python3
"""FER comparison campaign: LP decoding vs cutting planes vs branch & bound
vs message passing, on one code over a BSC or AWGN sweep.

Example:
    python scripts/fer_comparison.py --code random:32,3,4,7 \
        --channel bsc --points 0.04,0.06,0.08,0.10 \
        --decoders lp,cutting_plane,branch_and_bound,min_sum,sum_product \
        --errors 50 --out fer.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mpdec.cli import load_code
from mpdec.decoders import DecoderConfig
from mpdec.sim import SimConfig, fer_confidence, simulate_to_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--code", default="random:32,3,4,7")
    ap.add_argument("--channel", default="bsc", choices=["bsc", "biawgn"])
    ap.add_argument("--points", default="0.04,0.06,0.08,0.10")
    ap.add_argument("--decoders",
                    default="lp,cutting_plane,branch_and_bound,min_sum,sum_product")
    ap.add_argument("--errors", type=int, default=50)
    ap.add_argument("--max-frames", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="fer.csv")
    args = ap.parse_args()

    config = SimConfig(
        code=load_code(args.code),
        channel=args.channel,
        points=tuple(float(t) for t in args.points.split(",")),
        decoders=tuple(args.decoders.split(",")),
        decoder_config=DecoderConfig(depth=4, subset_size=2),
        max_frames=args.max_frames,
        min_frame_errors=args.errors,
        master_seed=args.seed,
    )
    records = simulate_to_csv(config, args.out)
    print(f"{'decoder':>18} {'point':>7} {'frames':>7} {'FER':>9}  95% interval")
    for r in records:
        low, high = fer_confidence(r)
        print(f"{r.decoder:>18} {r.point:>7g} {r.frames:>7} {r.fer:>9.4g}  "
              f"[{low:.4g}, {high:.4g}]")
    print(f"records written to {args.out}")


if __name__ == "__main__":
    main()
