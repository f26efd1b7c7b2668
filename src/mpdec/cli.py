"""Command line interface: decode, simulate, fdist, mindist, gencode, cuts."""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .channels import Biawgn, Bsc, llr, transmit
from .decoders import DECODERS, DecoderConfig, lp_decode, make_decoder
from .formulations import (matrix_adaptation_cut_search, rpc_cycle_cut_search)
from .gf2 import (LinearCode, load_alist, min_distance_bruteforce,
                  random_regular_ldpc, save_alist, spc_product_code)
from .sim import SimConfig, fer_confidence, simulate_to_csv
from . import decoders as _dec


def _spec_ints(spec: str, form: str, count: int | None = None) -> list[int]:
    """The comma separated ints after the spec's `kind:` prefix."""
    try:
        values = [int(t) for t in spec.partition(":")[2].split(",")]
    except ValueError:
        values = []
    if not values or (count is not None and len(values) != count):
        raise ValueError(f"code spec must look like {form}, got {spec!r}")
    return values


def load_code(spec: str) -> LinearCode:
    """Code source: an alist path, 'random:n,dv,dc,seed', or 'spc:d1,d2,..'."""
    if spec.startswith("random:"):
        return random_regular_ldpc(*_spec_ints(spec, "random:n,dv,dc,seed", 4))
    if spec.startswith("spc:"):
        return spc_product_code(_spec_ints(spec, "spc:d1,d2,..."))
    with open(spec) as fh:
        return load_alist(fh.read())


def parse_channel(spec: str):
    kind, _, value = spec.partition(":")
    channel = {"bsc": Bsc, "biawgn": Biawgn}.get(kind)
    try:
        number = float(value)
    except ValueError:
        channel = None
    if channel is None:
        raise ValueError(f"channel must look like bsc:0.05 or biawgn:0.8, got {spec!r}")
    return channel(number)


def _llr_for(args, code) -> np.ndarray:
    if args.llr is not None:
        try:
            lam = np.array([float(t) for t in args.llr.split(",")])
        except ValueError:
            raise ValueError(f"--llr must be comma separated numbers, "
                             f"got {args.llr!r}") from None
        if lam.shape != (code.n,):
            raise ValueError(f"--llr: expected {code.n} LLR values, got {len(lam)}")
        return lam
    if args.channel is None:
        raise ValueError("need either --llr or --channel")
    channel = parse_channel(args.channel)
    zero = np.zeros(code.n, dtype=np.uint8)
    y = transmit(zero, channel, args.seed)
    return llr(y, channel)


def _format_point(point) -> str:
    return ",".join(f"{v:g}" for v in np.asarray(point, dtype=float))


def cmd_decode(args) -> int:
    code = load_code(args.code)
    lam = _llr_for(args, code)
    cfg = DecoderConfig(formulation=args.formulation, seed=args.seed)
    result = make_decoder(args.decoder, cfg)(code, lam)
    s = result.stats
    point = "" if result.point is None else _format_point(result.point)
    print(f"status={result.status.value} value={result.value:.9g} "
          f"point={point} lp_solves={s.lp_solves} cuts={s.cuts_added} "
          f"iterations={s.iterations} branch_nodes={s.branch_nodes} "
          f"ms={1000 * s.wall_time:.3f}")
    return 0


def _config_number(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{key} must be a number of type {kind.__name__}, "
                         f"got {value!r}") from None


def parse_sim_config_text(text: str) -> SimConfig:
    """Line-oriented key=value simulation config (see README for keys)."""
    kv: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()
    for key in ("code", "points", "decoders"):
        if key not in kv:
            raise ValueError(f"config needs a {key}= line")
    code = load_code(kv["code"])
    decoders = tuple(t.strip() for t in kv["decoders"].split(","))
    for name in decoders:
        if name not in DECODERS:
            raise ValueError(f"decoders= names an unknown decoder {name!r}; "
                             f"options: {list(DECODERS)}")
    dc_kwargs = {}
    fields = {f.name: f.type for f in dataclasses.fields(DecoderConfig)}
    for key, value in kv.items():
        if key.startswith("decoder."):
            name = key[len("decoder."):]
            if name not in fields:
                raise ValueError(f"unknown decoder option {name!r}")
            current = getattr(DecoderConfig(), name)
            if isinstance(current, tuple):
                dc_kwargs[name] = tuple(value.split(","))
            elif isinstance(current, bool):
                dc_kwargs[name] = value.lower() in ("1", "true", "yes")
            elif isinstance(current, (int, float)) or fields[name] == "int | None":
                dc_kwargs[name] = _config_number(
                    key, value, float if isinstance(current, float) else int)
            else:
                dc_kwargs[name] = value
    try:
        decoder_config = DecoderConfig(**dc_kwargs)
    except ValueError as exc:
        raise ValueError(f"decoder.{exc}") from None
    return SimConfig(
        code=code,
        channel=kv.get("channel", "bsc"),
        points=tuple(_config_number("points", t, float) for t in kv["points"].split(",")),
        decoders=decoders,
        decoder_config=decoder_config,
        **{key: _config_number(key, kv[key], int) for key in
           ("max_frames", "min_frame_errors", "master_seed") if key in kv})


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        config = parse_sim_config_text(fh.read())
    records = simulate_to_csv(config, args.out)
    for r in records:
        low, high = fer_confidence(r)
        print(f"{r.decoder} point={r.point:g} frames={r.frames} "
              f"fer={r.fer:.4g} ci95=[{low:.4g},{high:.4g}]")
    return 0


def cmd_fdist(args) -> int:
    code = load_code(args.code)
    value = _dec.fractional_distance(code, args.formulation)
    print(f"{value:.9g}")
    return 0


def cmd_mindist(args) -> int:
    code = load_code(args.code)
    print(min_distance_bruteforce(code))
    return 0


def cmd_gencode(args) -> int:
    code = random_regular_ldpc(args.n, args.dv, args.dc, args.seed)
    text = save_alist(code)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_cuts(args) -> int:
    code = load_code(args.code)
    lam = _llr_for(args, code)
    result = lp_decode(code, lam, "fs")
    if result.status.value != "fractional_failure":
        print(f"status={result.status.value} (no cut search: optimum not fractional)")
        return 0
    x = result.point
    cuts = matrix_adaptation_cut_search(code.H, x)
    cuts += [c for c in rpc_cycle_cut_search(code.H, x, rng_seed=args.seed)
             if c not in cuts]
    print(f"status=fractional_failure value={result.value:.9g} cuts={len(cuts)}")
    for c in cuts:
        sup = ",".join(map(str, c.support))
        odd = ",".join(map(str, c.odd_subset))
        print(f"cut support={sup} odd={odd} violation={c.violation(x):.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpdec",
        description="Mathematical-programming decoders for binary linear codes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode one frame and print the result")
    p.add_argument("--code", required=True)
    p.add_argument("--llr", help="comma separated LLR values")
    p.add_argument("--channel", help="bsc:p or biawgn:sigma (all-zero frame)")
    p.add_argument("--decoder", default="lp", choices=DECODERS)
    p.add_argument("--formulation", default="fs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fdist", help="fractional distance of a code")
    p.add_argument("--code", required=True)
    p.add_argument("--formulation", default="fs", choices=["fs", "cascade"])
    p.set_defaults(func=cmd_fdist)

    p = sub.add_parser("mindist", help="brute-force minimum distance")
    p.add_argument("--code", required=True)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("gencode", help="write a random regular code as alist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dv", type=int, required=True)
    p.add_argument("--dc", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gencode)

    p = sub.add_parser("cuts", help="dump violated cuts at a fractional optimum")
    p.add_argument("--code", required=True)
    p.add_argument("--llr")
    p.add_argument("--channel")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cuts)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
