"""One benchmark run: set-up timing, campaign passes, oracle checks, metrics.

A pass is the workload's fixed-frame campaign through the public
`mpdec.sim.simulate`.  Passes repeat while another one still fits in the
run's time budget, and every pass decodes the same frames; per-frame times
are medians over passes.  Per-decoder latency comes from wrapping the
callables `mpdec.decoders.make_decoder` returns, never from
`DecodeStats.wall_time`.  Oracle checks run after the last pass, so their
time is in no metric.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import mpdec.decoders as decoders_mod
import mpdec.formulations as formulations_mod
import mpdec.sim as sim_mod
from mpdec.decoders import DecoderConfig, DecodeStatus
from mpdec.sim import SimConfig

import env
import oracles
from tracer import SpanStats, Tracer, patched
from workloads import WORKLOADS, Setup, set_up

SETUP_REPEATS = 5
# Each decoder's tail is the highest percentile that held steady from seed
# to seed at its workload's frame count.  Higher ones swing by 15-40%:
# branch_and_bound and cutting_plane have heavy tails, adaptive_lp's p75-p90
# sit where its fractional frames begin, and sum_product's p70-p90 at the
# edge of its iteration-cap cluster.
TAIL = {"lp": 90, "branch_and_bound": 80, "adaptive_lp": 65,
        "cutting_plane": 70, "sum_product": 95, "min_sum": 90}
LIMITS = DecoderConfig()


@dataclass
class Pass:
    wall: float
    frame_s: np.ndarray               # per-frame wall time, harness included
    decode_s: dict                    # decoder -> per-frame decode time
    decodes: list                     # (trial, decoder, DecodeResult)


def time_setup(name: str) -> float:
    """Median over fresh interpreters of import + code + decoders."""
    probe = str(env.ROOT / "perfbench" / "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, probe, name], capture_output=True,
                             text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def campaign_config(setup: Setup, seed: int, frames: int) -> SimConfig:
    w = setup.workload
    # min_frame_errors above max_frames: the stop rule counts frames only
    return SimConfig(code=setup.code, channel=w.channel, points=(setup.point,),
                     decoders=w.decoders, max_frames=frames,
                     min_frame_errors=frames + 1, master_seed=seed)


def run_pass(setup: Setup, seed: int, frames: int, tracer: Tracer | None,
             wrap_decoder=None) -> Pass:
    decoders = setup.workload.decoders
    decode_s = {name: [] for name in decoders}
    decodes, ends = [], []
    make_decoder = sim_mod.make_decoder

    def timed_decoder(name, config=None):
        dec = make_decoder(name, config)
        if wrap_decoder is not None:
            dec = wrap_decoder(name, dec)
        if tracer is not None:
            dec = tracer.wrap(f"decoders.{name}", dec)
        times = decode_s[name]

        def timed(code, lam):
            start = perf_counter()
            res = dec(code, lam)
            times.append(perf_counter() - start)
            return res

        return timed

    def on_frame(point_index, trial, name, res):
        decodes.append((trial, name, res))
        if name == decoders[-1]:
            ends.append(perf_counter())

    simulate = sim_mod.simulate
    if tracer is not None:
        simulate = tracer.wrap("sim", simulate)
    config = campaign_config(setup, seed, frames)
    with patched(sim_mod, "make_decoder", timed_decoder):
        start = perf_counter()
        simulate(config, on_frame)
        wall = perf_counter() - start
    frame_s = np.diff(np.array([start] + ends))
    return Pass(wall, frame_s, {k: np.array(v) for k, v in decode_s.items()}, decodes)


def trace_targets(tracer: Tracer) -> list:
    """Where each layer's public functions are rebound, with count hooks."""

    def lp_done(stats, solution, rows):
        tracer.remember_rows(solution, rows)
        if not solution.optimal:
            stats.sums["not_optimal"] += 1

    def after_solve(stats, args, solution):
        stats.sums["rows"] += len(args[0].rows)
        lp_done(stats, solution, len(args[0].rows))

    def after_add_rows(stats, args, solution):
        added = len(args[1])
        rows = tracer.rows_of(args[0]) + added
        stats.sums["rows_added"] += added
        stats.sums["lp_rows"] += rows
        lp_done(stats, solution, rows)

    def after_fix(stats, args, solution):
        lp_done(stats, solution, tracer.rows_of(args[0]))

    def after_build(stats, args, form):
        stats.sums["rows"] += len(form.lp.rows)

    def after_cut(stats, args, cut):
        stats.sums["cuts"] += cut is not None

    def after_search(stats, args, cuts):
        stats.sums["cuts"] += len(cuts)

    d, f, s = decoders_mod, formulations_mod, sim_mod
    return [
        (d, "solve", "simplex.solve", after_solve),
        (d, "add_rows_resolve", "simplex.add_rows_resolve", after_add_rows),
        (d, "fix_variable_resolve", "simplex.fix_variable_resolve", after_fix),
        (d, "make_problem", "simplex.make_problem", None),
        (f, "make_problem", "simplex.make_problem", None),
        (d, "build_formulation", "formulations.build", after_build),
        (d, "most_violated_fs_cut", "formulations.separation", after_cut),
        (f, "most_violated_fs_cut", "formulations.separation", after_cut),
        (d, "row_fs_cuts", "formulations.separation_sweep", None),
        (d, "matrix_adaptation_cut_search", "formulations.rpc_search", after_search),
        (d, "rpc_cycle_cut_search", "formulations.rpc_search", after_search),
        (d, "syndrome", "gf2.syndrome", None),
        (s, "trial_rng", "channels.trial_rng", None),
        (s, "transmit", "channels.transmit", None),
        (s, "llr", "channels.llr", None),
    ]


def _frame_error(res) -> bool:
    return not res.success or bool(res.codeword().any())


def _frame_rate(frame_s: np.ndarray) -> float:
    """Frames per second at the median frame: one long frame on cuts_n120
    can cost as much as the other 249, so a whole-campaign rate mostly
    counts how many such frames a seed drew."""
    return 1.0 / float(np.median(frame_s))


def _median_over_passes(arrays) -> np.ndarray:
    return np.median(np.stack(arrays), axis=0)


def end_to_end(setup: Setup, passes: list[Pass], setup_s: float) -> dict:
    frame_s = _median_over_passes([p.frame_s for p in passes])
    metrics = {"setup_s": (setup_s, "s"),
               "frames_per_s": (_frame_rate(frame_s), "1/s")}
    decodes = [x for p in passes for x in p.decodes]
    for slot, name in zip(("dec1", "dec2"), setup.workload.decoders):
        ms = 1000.0 * _median_over_passes([p.decode_s[name] for p in passes])
        metrics[f"{slot}.ms_p50"] = (float(np.percentile(ms, 50)), "ms")
        metrics[f"{slot}.ms_tail"] = (float(np.percentile(ms, TAIL[name])), "ms")
        results = [r for _, n, r in decodes if n == name]
        errors = sum(_frame_error(r) for r in results)
        metrics[f"{slot}.frame_success"] = (1.0 - errors / len(results), "ratio")
    return metrics


def per_layer(setup: Setup, passes: list[Pass], tracer: Tracer) -> dict:
    n_pass = len(passes)
    frames = len(passes[0].frame_s)
    spans = tracer.spans
    root = spans["sim"].total
    m: dict = {}

    def span(name) -> SpanStats:
        return spans.get(name, SpanStats())

    def self_time(*names) -> float:
        return sum(span(n).self_time for n in names)

    def calls_and_ms(key, name, extra_self=()):
        st = span(name)
        m[f"{key}.calls"] = (st.calls / n_pass, "count")
        ms = 1000.0 * self_time(name, *extra_self) / st.calls if st.calls else 0.0
        m[f"{key}.ms_per_call"] = (ms, "ms")
        return st

    def mean(st, key) -> float:
        return st.sums[key] / st.calls if st.calls else 0.0

    simplex = ("simplex.solve", "simplex.add_rows_resolve",
               "simplex.fix_variable_resolve", "simplex.make_problem")
    m["simplex.share"] = (self_time(*simplex) / root, "ratio")
    st = calls_and_ms("simplex.solve", "simplex.solve")
    m["simplex.solve.rows_mean"] = (mean(st, "rows"), "rows")
    st = calls_and_ms("simplex.add_rows_resolve", "simplex.add_rows_resolve")
    m["simplex.add_rows_resolve.rows_added_mean"] = (mean(st, "rows_added"), "rows")
    m["simplex.add_rows_resolve.lp_rows_mean"] = (mean(st, "lp_rows"), "rows")
    calls_and_ms("simplex.fix_variable_resolve", "simplex.fix_variable_resolve")
    calls_and_ms("simplex.make_problem", "simplex.make_problem")
    m["simplex.not_optimal"] = (sum(span(n).sums["not_optimal"] for n in simplex) / n_pass, "count")
    m["simplex.errors"] = (sum(span(n).raised for n in simplex) / n_pass, "count")

    formulations = ("formulations.build", "formulations.separation",
                    "formulations.separation_sweep", "formulations.rpc_search")
    m["formulations.share"] = (self_time(*formulations) / root, "ratio")
    st = calls_and_ms("formulations.build", "formulations.build")
    m["formulations.build.rows_mean"] = (mean(st, "rows"), "rows")
    st = calls_and_ms("formulations.separation", "formulations.separation",
                      ("formulations.separation_sweep",))
    m["formulations.separation.yield"] = (mean(st, "cuts"), "ratio")
    st = calls_and_ms("formulations.rpc_search", "formulations.rpc_search")
    m["formulations.rpc_search.yield"] = (mean(st, "cuts"), "ratio")

    m["gf2.share"] = (self_time("gf2.syndrome") / root, "ratio")
    calls_and_ms("gf2.syndrome", "gf2.syndrome")

    channels = self_time("channels.trial_rng", "channels.transmit", "channels.llr")
    m["channels.share"] = (channels / root, "ratio")
    m["channels.ms_per_frame"] = (1000.0 * channels / (frames * n_pass), "ms")

    decodes = [x for p in passes for x in p.decodes]
    for name in TAIL:
        key = f"decoders.{name}"
        results = [r for _, n, r in decodes if n == name]
        per = max(len(results), 1)
        ms = (1000.0 * _median_over_passes([p.decode_s[name] for p in passes])
              if results else np.zeros(1))
        stats = [r.stats for r in results]
        m[f"{key}.share"] = (self_time(key) / root, "ratio")
        m[f"{key}.self_ms_per_frame"] = (1000.0 * self_time(key) / per, "ms")
        m[f"{key}.ms_p90"] = (float(np.percentile(ms, 90)), "ms")
        m[f"{key}.lp_solves_per_frame"] = (sum(s.lp_solves for s in stats) / per, "count")
        m[f"{key}.cuts_per_frame"] = (sum(s.cuts_added for s in stats) / per, "count")
        m[f"{key}.branch_nodes_per_frame"] = (sum(s.branch_nodes for s in stats) / per, "count")
        m[f"{key}.iterations_per_frame"] = (sum(s.iterations for s in stats) / per, "count")
        for label, status in (("ml_certified", DecodeStatus.ML_CERTIFIED),
                              ("fractional", DecodeStatus.FRACTIONAL_FAILURE),
                              ("solver_errors", DecodeStatus.SOLVER_ERROR)):
            count = sum(r.status is status for r in results)
            m[f"{key}.{label}"] = (count / n_pass, "count")
        m[f"{key}.fer"] = (sum(_frame_error(r) for r in results) / per, "ratio")
        if name == "cutting_plane":
            capped = sum(s.iterations >= LIMITS.max_rounds for s in stats)
            m[f"{key}.round_cap_frames"] = (capped / n_pass, "count")
        if name in ("min_sum", "sum_product"):
            capped = sum(r.stats.iterations >= LIMITS.max_iterations and not r.success
                         for r in results)
            m[f"{key}.iteration_cap_frames"] = (capped / n_pass, "count")

    m["sim.share"] = (self_time("sim") / root, "ratio")
    m["sim.self_ms_per_frame"] = (1000.0 * self_time("sim") / (frames * n_pass), "ms")
    share_sum = sum(st.self_time for st in spans.values()) / root
    frame_s = _median_over_passes([p.frame_s for p in passes])
    m["trace.share_sum"] = (share_sum, "ratio")
    m["trace.frames_per_s"] = (_frame_rate(frame_s), "1/s")
    m["trace.frames"] = (frames, "count")
    m["trace.passes"] = (n_pass, "count")
    return m


def run(name: str, seed: int, seconds: float, trace: bool, frames: int | None = None,
        wrap_decoder=None) -> dict:
    """Run one workload; returns the result line and a full record."""
    workload = WORKLOADS[name]
    frames = frames or workload.frames
    setup_s = time_setup(name) if not trace else None
    setup = set_up(workload)
    channel = campaign_config(setup, seed, frames).channel_model(setup.point)
    tracer = Tracer() if trace else None
    passes: list[Pass] = []
    started = perf_counter()
    with tracer.install(trace_targets(tracer)) if tracer else nullcontext():
        while True:
            passes.append(run_pass(setup, seed, frames, tracer, wrap_decoder))
            if perf_counter() - started + passes[-1].wall > seconds:
                break
    measured_s = perf_counter() - started

    attempted = failed = solver_errors = 0
    messages: list[str] = []
    for p in passes:
        a, f, e, msgs = oracles.check_pass(setup.code, channel, seed, p.decodes)
        attempted, failed, solver_errors = attempted + a, failed + f, solver_errors + e
        messages.extend(msgs[:20 - len(messages)])

    metrics = per_layer(setup, passes, tracer) if trace else end_to_end(setup, passes, setup_s)
    result = {
        "correct": failed == solver_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name,
        "trace": int(trace),
        "seeds": {"master_seed": seed, "code_seed": workload.code[3]},
        "decoders": dict(zip(("dec1", "dec2"), workload.decoders)),
        "frames_per_pass": frames,
        "passes": len(passes),
        "measured_s": measured_s,
        "campaign_frames_per_s": frames * len(passes) / sum(p.wall for p in passes),
        "frame_ms": [round(1000.0 * t, 4) for t in
                     _median_over_passes([p.frame_s for p in passes])],
        "decode_ms": {name: [round(1000.0 * t, 4) for t in
                             _median_over_passes([p.decode_s[name] for p in passes])]
                      for name in workload.decoders},
        "solver_errors": solver_errors,
        "oracle_failures": messages,
        "environment": env.environment_record(),
        "result": result,
    }
    return record
