"""Monte Carlo frame-error-rate campaigns with CSV persistence.

The all-zero codeword is transmitted in every trial; this is valid for the
output-symmetric channels implemented here and for the symmetric decoders
in this package, and it keeps campaigns reproducible.  Per-trial noise
comes from an independent PCG64 stream seeded by (master_seed,
point_index, trial_index), so paired-seed decoder comparisons see
identical noise.

Campaigns are idempotent: re-running a config against an existing CSV
skips every channel point the file already holds.
"""

from __future__ import annotations

import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .channels import Biawgn, Bsc, ebn0_db_to_sigma, llr, transmit, trial_rng
from .decoders import DecoderConfig, DecodeStatus, make_decoder
from .gf2 import LinearCode

CSV_HEADER = ("decoder,point,frames,frame_errors,bit_errors,ml_certified,"
              "fractional,avg_lp_solves,avg_cuts,avg_iterations,ms_per_frame")
CSV_PREAMBLE = "# schema=1 rng=PCG64"


@dataclass(frozen=True)
class SimConfig:
    code: LinearCode
    channel: str                      # "bsc" or "biawgn"
    points: tuple[float, ...]         # crossover p, or Eb/N0 in dB for biawgn
    decoders: tuple[str, ...]
    decoder_config: DecoderConfig = field(default_factory=DecoderConfig)
    max_frames: int = 1_000_000
    min_frame_errors: int = 100
    master_seed: int = 0

    def __post_init__(self):
        if self.channel not in ("bsc", "biawgn"):
            raise ValueError("channel must be 'bsc' or 'biawgn'")
        if not self.points:
            raise ValueError("need at least one channel point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("repeated channel point: a CSV holds one row per point")
        if not self.decoders:
            raise ValueError("need at least one decoder")
        if self.max_frames < 1 or self.min_frame_errors < 1:
            raise ValueError("stop rule must be satisfiable")
        for point in self.points:  # a bad last point must not cost a campaign
            self.channel_model(point)

    def channel_model(self, point: float):
        if self.channel == "bsc":
            return Bsc(point)
        rate = self.code.k / self.code.n
        return Biawgn(ebn0_db_to_sigma(point, rate))


@dataclass
class SimRecord:
    decoder: str
    point: float
    frames: int
    frame_errors: int
    bit_errors: int
    ml_certified: int
    fractional: int
    avg_lp_solves: float
    avg_cuts: float
    avg_iterations: float
    ms_per_frame: float

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0


def fer_confidence(record: SimRecord) -> tuple[float, float]:
    """95% Wilson score interval for the frame error rate."""
    z = 1.96
    n = record.frames
    if n < 1:
        raise ValueError("need at least one frame")
    p = record.frame_errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def simulate(config: SimConfig, on_frame=None) -> list[SimRecord]:
    """Run the campaign; deterministic given the config.

    A channel point stops as soon as any decoder has accumulated
    `min_frame_errors` frame errors, or at `max_frames`.  The optional
    `on_frame(point_index, trial, name, result)` hook sees every decode.
    """
    return _simulate_points(config, on_frame, skip=())


def _simulate_points(config: SimConfig, on_frame, skip) -> list[SimRecord]:
    """The records of every channel point not in `skip`, in config order."""
    records: list[SimRecord] = []
    for pi, point in enumerate(config.points):
        if point not in skip:
            records.extend(simulate_one_point(config, pi, on_frame))
    return records


def _point_text(point: float) -> str:
    """The `:g` form when it reads back as the same float, else the shortest
    exact one, so re-runs recognise every point they already wrote."""
    text = f"{point:g}"
    return text if float(text) == point else repr(float(point))


def format_records_csv(records, include_header: bool = True) -> str:
    out = io.StringIO()
    if include_header:
        out.write(CSV_PREAMBLE + "\n")
        out.write(CSV_HEADER + "\n")
    for r in records:
        out.write(f"{r.decoder},{_point_text(r.point)},{r.frames},{r.frame_errors},"
                  f"{r.bit_errors},{r.ml_certified},{r.fractional},"
                  f"{r.avg_lp_solves:.6g},{r.avg_cuts:.6g},"
                  f"{r.avg_iterations:.6g},{r.ms_per_frame:.3f}\n")
    return out.getvalue()


def read_records_csv(text: str) -> list[SimRecord]:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("decoder,"):
            continue
        f = line.split(",")
        records.append(SimRecord(
            decoder=f[0], point=float(f[1]), frames=int(f[2]),
            frame_errors=int(f[3]), bit_errors=int(f[4]),
            ml_certified=int(f[5]), fractional=int(f[6]),
            avg_lp_solves=float(f[7]), avg_cuts=float(f[8]),
            avg_iterations=float(f[9]), ms_per_frame=float(f[10])))
    return records


def simulate_to_csv(config: SimConfig, path: str, on_frame=None) -> list[SimRecord]:
    """Run only the channel points missing from the CSV and append them.

    A point the CSV holds must hold every decoder of the config: a point's
    decoders share one stop rule, so a decoder added later cannot be run
    alone there, and a `ValueError` names it and the point."""
    existing = ""
    if os.path.exists(path):
        with open(path) as fh:
            existing = fh.read()
    held = {(r.decoder, r.point) for r in read_records_csv(existing)}
    done_points = {point for _, point in held}
    for point in config.points:
        for name in config.decoders:
            if point in done_points and (name, point) not in held:
                raise ValueError(f"{path} lacks decoder {name!r} at point "
                                 f"{_point_text(point)}, which it holds; write the "
                                 f"campaign to a new file")
    if done_points.issuperset(config.points):
        return read_records_csv(existing)
    records = _simulate_points(config, on_frame, skip=done_points)
    with open(path, "a") as fh:
        fh.write(format_records_csv(records, include_header=not existing))
    with open(path) as fh:
        return read_records_csv(fh.read())


def simulate_one_point(config: SimConfig, point_index: int, on_frame=None
                       ) -> list[SimRecord]:
    """Simulate channel point config.points[point_index].  Its trials draw
    from the RNG streams of that index, so a point's records do not depend
    on which other points are run (keeps campaign idempotence seed-stable)."""
    zero = np.zeros(config.code.n, dtype=np.uint8)
    point = config.points[point_index]
    channel = config.channel_model(point)
    decoders = [(name, make_decoder(name, config.decoder_config))
                for name in config.decoders]
    agg = {name: dict(frames=0, frame_errors=0, bit_errors=0, ml=0,
                      frac=0, lp=0.0, cuts=0.0, iters=0.0, wall=0.0)
           for name, _ in decoders}
    for trial in range(config.max_frames):
        rng = trial_rng(config.master_seed, point_index, trial)
        y = transmit(zero, channel, rng)
        lam = llr(y, channel)
        for name, dec in decoders:
            res = dec(config.code, lam)
            a = agg[name]
            a["frames"] += 1
            if res.status is DecodeStatus.ML_CERTIFIED:
                a["ml"] += 1
            if res.status is DecodeStatus.FRACTIONAL_FAILURE:
                a["frac"] += 1
            if res.success:
                errors = int(res.codeword().sum())
            else:
                errors = (int(np.count_nonzero(np.asarray(res.point) > 0.5))
                          if res.point is not None else config.code.n)
            a["bit_errors"] += errors
            if errors or not res.success:
                a["frame_errors"] += 1
            a["lp"] += res.stats.lp_solves
            a["cuts"] += res.stats.cuts_added
            a["iters"] += res.stats.iterations
            a["wall"] += res.stats.wall_time
            if on_frame is not None:
                on_frame(point_index, trial, name, res)
        if max(a["frame_errors"] for a in agg.values()) >= config.min_frame_errors:
            break
    out = []
    for name, _ in decoders:
        a = agg[name]
        f = max(a["frames"], 1)
        out.append(SimRecord(
            decoder=name, point=point, frames=a["frames"],
            frame_errors=a["frame_errors"], bit_errors=a["bit_errors"],
            ml_certified=a["ml"], fractional=a["frac"],
            avg_lp_solves=a["lp"] / f, avg_cuts=a["cuts"] / f,
            avg_iterations=a["iters"] / f,
            ms_per_frame=1000.0 * a["wall"] / f))
    return out
