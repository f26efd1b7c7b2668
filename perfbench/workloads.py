"""The benchmark's workloads: fixed-frame Monte Carlo FER campaigns.

Each workload is one `mpdec.sim.simulate` campaign at a single channel
point.  Its stop rule counts frames, never frame errors, so a given seed
decodes the same frames on every commit.  The code seeds are part of the
definition; the campaign's `master_seed` is the benchmark's `--seed`.

Every workload runs two decoders, called `dec1` and `dec2` in the
end-to-end metrics.  See README.md for why each workload exists and which
layer each one stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    code: tuple[int, int, int, int]   # random_regular_ldpc(n, d_v, d_c, seed)
    channel: str                      # "bsc" or "biawgn"
    noise: float                      # BSC crossover p, or BIAWGN sigma
    decoders: tuple[str, str]         # (dec1, dec2)
    frames: int


WORKLOADS = {w.name: w for w in (
    # The full forbidden-set LP (192 rows) solved from scratch, plus
    # bound-fix warm re-solves in branch & bound; k=8, so every certificate
    # is checked against brute-force ML.
    Workload(name="full_lp_n32", code=(32, 3, 4, 7), channel="bsc", noise=0.10,
             decoders=("lp", "branch_and_bound"), frames=400),
    # Row-adding warm re-solves on growing LPs, forbidden-set separation and
    # the redundant-parity-check search, including the rare frames that grow
    # to about 1000 rows.
    Workload(name="cuts_n120", code=(120, 3, 6, 620), channel="biawgn", noise=0.75,
             decoders=("adaptive_lp", "cutting_plane"), frames=250),
    # Message passing only: no LP is solved, so simplex and formulation
    # changes must leave this workload unchanged.
    Workload(name="mp_n240", code=(240, 3, 6, 740), channel="biawgn", noise=0.8,
             decoders=("sum_product", "min_sum"), frames=400),
)}


@dataclass
class Setup:
    """Everything a campaign needs that does not depend on the seed."""

    workload: Workload
    code: object
    point: float                      # SimConfig point: p, or Eb/N0 in dB


def set_up(workload: Workload) -> Setup:
    """Build the code, the channel point and the decoders (the timed set-up).

    `simulate` makes its own decoders from the names, so the ones made here
    only count towards set-up time.
    """
    from mpdec.decoders import make_decoder
    from mpdec.gf2 import random_regular_ldpc

    code = random_regular_ldpc(*workload.code)
    if workload.channel == "bsc":
        point = workload.noise
    else:
        rate = code.k / code.n
        point = 10.0 * math.log10(1.0 / (2.0 * rate * workload.noise ** 2))
    for name in workload.decoders:
        make_decoder(name)
    return Setup(workload, code, point)
