#!/usr/bin/env python3
"""Scaling benchmark of the LP kernel and the decoders built on it.

Writes one JSON record (default `BENCH_scaling.json` at the repo root) with
the machine, the Python and numpy versions, the `trial_rng` seeds and, per
run, ms/frame (the median frame) and ms/pivot (the whole decode time over
the pivots), each the median of three timed repeats (one with `--quick`),
the mean pivots, iterations, final LP rows and branch nodes a frame,
`answers`: a sha256 over every frame's status, value and point in the first
repeat, so two records show whether a change moved any answer, and
`peak_rss_mb`, the process's peak resident set size after the run.  Runs go
in size order, so the first run to reach a new peak owns it.
Adaptive LP's row fraction is `final_lp_rows / n`. The runs are:

- `scratch_n120`: one from-scratch solve of the full forbidden-set LP
  (`lp`) of `random_regular_ldpc(120, 3, 6, seed=620)` at BIAWGN sigma=1.0
  on the frame `trial_rng(520, 0, 0)`, as cross-checked by acceptance
  criterion 4 (m = 1920 rows, of which the engine takes only those the
  solve pulls from its row pool);
- `lp` (the full forbidden-set LP, solved from scratch; past 256 rows the
  engine holds only the rows it pulls from the pool), `adaptive_lp`,
  `adaptive_lp_drop` (its drop mode, which removes the cut rows whose
  logicals are basic after each re-solve), `cutting_plane` and `min_sum`
  on (3,6)-regular codes `random_regular_ldpc(n, 3, 6, seed=1)`,
  n = 60/120/240/1000, and on `spc:3,3,3`, at BIAWGN sigma=0.8 on the
  frames `trial_rng(3, 0, t)`;
- `branch_and_bound@48`: ML decoding of `random_regular_ldpc(48, 3, 6, 1)`
  at BIAWGN sigma=0.75 on the 20 frames `trial_rng(3, 0, t)`.

`--quick` keeps the scratch solve, drops n = 240 and 1000, decodes fewer
frames and times one repeat; it runs in well under a minute.  As in
perfbench, whose environment record it reuses, BLAS and OpenMP are pinned
to one thread before numpy is imported and mpdec comes from this checkout.

Example:
    python scripts/bench.py --quick --out /tmp/bench.json
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402

env.pin_threads()
env.use_checkout_source()

import numpy as np  # noqa: E402

from mpdec.channels import Biawgn, llr, transmit, trial_rng  # noqa: E402
from mpdec.decoders import make_decoder  # noqa: E402
from mpdec.gf2 import random_regular_ldpc, spc_product_code  # noqa: E402

SCRATCH = dict(code=(120, 3, 6, 620), sigma=1.0, seed=520)
FRAME_SEED = 3
SIGMA = 0.8
DECODERS = ("lp", "adaptive_lp", "adaptive_lp_drop", "cutting_plane", "min_sum")
FULL_FRAMES = {60: 20, 120: 20, 240: 10, 1000: 5, "spc:3,3,3": 20}
QUICK_FRAMES = {60: 5, 120: 5, "spc:3,3,3": 5}
SEARCH = dict(n=48, sigma=0.75, frames=20, quick_frames=8)


def frames_for(code, sigma, seed, count):
    channel = Biawgn(sigma)
    zero = np.zeros(code.n, dtype=np.uint8)
    return [llr(transmit(zero, channel, trial_rng(seed, 0, t)), channel) for t in range(count)]


def answer(res) -> bytes:
    """A decode's status, value and point, as bytes to hash."""
    point = None if res.point is None else np.asarray(res.point)
    return repr((res.status.value, float(res.value).hex(),
                 None if point is None else (point.dtype.str, point.tobytes().hex()))).encode()


def run(name, code, frames, repeats):
    """Median over repeats of ms/frame (median over frames) and ms/pivot."""
    decode = make_decoder(name)
    ms_frame, ms_pivot = [], []
    answers = hashlib.sha256()
    for repeat in range(repeats):
        times, pivots, iterations, rows, nodes = [], [], [], [], []
        for lam in frames:
            start = time.perf_counter()
            res = decode(code, lam)
            times.append(1000.0 * (time.perf_counter() - start))
            if repeat == 0:
                answers.update(answer(res))
            pivots.append(res.stats.pivots)
            iterations.append(res.stats.iterations)
            rows.append(res.stats.final_rows)
            nodes.append(res.stats.branch_nodes)
        ms_frame.append(statistics.median(times))
        if sum(pivots):
            ms_pivot.append(sum(times) / sum(pivots))
    return dict(decoder=name, n=code.n, checks=code.m, frames=len(frames), repeats=repeats,
                ms_per_frame=statistics.median(ms_frame),
                pivots_per_frame=float(np.mean(pivots)),
                ms_per_pivot=statistics.median(ms_pivot) if ms_pivot else None,
                iterations_per_frame=float(np.mean(iterations)),
                final_lp_rows=float(np.mean(rows)),
                branch_nodes_per_frame=float(np.mean(nodes)),
                answers=answers.hexdigest(),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def report(r):
    per_pivot = "" if r["ms_per_pivot"] is None else f", {r['ms_per_pivot']:.3f} ms/pivot"
    nodes = (f", {r['branch_nodes_per_frame']:.1f} nodes/frame"
             if r["branch_nodes_per_frame"] else "")
    print(f"{r['run']}: {r['ms_per_frame']:.2f} ms/frame, "
          f"{r['pivots_per_frame']:.0f} pivots/frame{per_pivot}{nodes}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true", help="small sizes, one repeat")
    ap.add_argument("--out", default=str(ROOT / "BENCH_scaling.json"))
    args = ap.parse_args()
    repeats = 1 if args.quick else 3
    sizes = QUICK_FRAMES if args.quick else FULL_FRAMES

    runs = []
    code = random_regular_ldpc(*SCRATCH["code"])
    lam = frames_for(code, SCRATCH["sigma"], SCRATCH["seed"], 1)
    runs.append(dict(run="scratch_n120", code="random_regular_ldpc(120, 3, 6, 620)",
                     sigma=SCRATCH["sigma"], **run("lp", code, lam, repeats)))
    report(runs[-1])
    for size, count in sizes.items():
        if size == "spc:3,3,3":
            code, label = spc_product_code((3, 3, 3)), size
        else:
            code = random_regular_ldpc(size, 3, 6, 1)
            label = f"random_regular_ldpc({size}, 3, 6, 1)"
        lams = frames_for(code, SIGMA, FRAME_SEED, count)
        for name in DECODERS:
            runs.append(dict(run=f"{name}@{size}", code=label, sigma=SIGMA,
                             **run(name, code, lams, repeats)))
            report(runs[-1])
    code = random_regular_ldpc(SEARCH["n"], 3, 6, 1)
    lams = frames_for(code, SEARCH["sigma"], FRAME_SEED,
                      SEARCH["quick_frames" if args.quick else "frames"])
    runs.append(dict(run=f"branch_and_bound@{SEARCH['n']}",
                     code=f"random_regular_ldpc({SEARCH['n']}, 3, 6, 1)",
                     sigma=SEARCH["sigma"], **run("branch_and_bound", code, lams, repeats)))
    report(runs[-1])

    record = dict(
        benchmark="scaling", quick=args.quick, repeats=repeats,
        environment=env.environment_record(),
        seeds=dict(scratch=f"trial_rng({SCRATCH['seed']}, 0, 0)",
                   frames=f"trial_rng({FRAME_SEED}, 0, t)",
                   scratch_code_seed=SCRATCH["code"][3], code_seed=1),
        runs=runs)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
