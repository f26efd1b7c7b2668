"""Simulation harness, CSV persistence, confidence intervals, CLI."""

import math
import os

import numpy as np
import pytest

from mpdec.cli import load_code, main, parse_sim_config_text
from mpdec.decoders import DecodeStatus, DecoderConfig, lp_decode, make_decoder
from mpdec.gf2 import load_alist, random_regular_ldpc
from mpdec.sim import (SimConfig, SimRecord, fer_confidence,
                       format_records_csv, read_records_csv, simulate,
                       simulate_to_csv)

from conftest import fractional_instance


@pytest.fixture(scope="module")
def small_code():
    return random_regular_ldpc(16, 3, 4, seed=7)


def small_config(code, **kw):
    defaults = dict(code=code, channel="bsc", points=(0.05,),
                    decoders=("lp",), max_frames=60, min_frame_errors=5,
                    master_seed=3)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_config_validation(small_code):
    with pytest.raises(ValueError):
        small_config(small_code, channel="laplace")
    with pytest.raises(ValueError):
        small_config(small_code, points=())
    with pytest.raises(ValueError):
        small_config(small_code, decoders=())
    with pytest.raises(ValueError):
        small_config(small_code, max_frames=0)
    # a repeated point would run one RNG stream per index, but a CSV keys
    # its rows by point
    with pytest.raises(ValueError, match="repeated"):
        small_config(small_code, points=(0.1, 0.1))


@pytest.mark.parametrize("channel, points, expected", [
    ("bsc", (0.05, 0.7), "crossover"),
    ("bsc", (0.05, math.nan), "crossover"),
    ("biawgn", (1.0, math.inf), "sigma"),
    ("biawgn", (1.0, -math.inf), "Eb/N0"),
    ("biawgn", (1.0, math.nan), "sigma"),
])
def test_config_rejects_a_bad_channel_point_up_front(small_code, channel, points, expected):
    # the config was accepted, and simulate_to_csv ran every frame of the
    # good first point before the bad one raised, writing nothing
    with pytest.raises(ValueError, match=expected):
        small_config(small_code, channel=channel, points=points)
    text = f"code = random:16,3,4,7\nchannel = {channel}\ndecoders = lp\n" \
           f"points = {','.join(map(str, points))}\n"
    with pytest.raises(ValueError, match=expected):
        parse_sim_config_text(text)


def test_simulate_deterministic(small_code):
    cfg = small_config(small_code)
    a = simulate(cfg)
    b = simulate(cfg)
    for ra, rb in zip(a, b):
        assert (ra.decoder, ra.point, ra.frames, ra.frame_errors,
                ra.bit_errors, ra.ml_certified, ra.fractional) == \
               (rb.decoder, rb.point, rb.frames, rb.frame_errors,
                rb.bit_errors, rb.ml_certified, rb.fractional)


def test_simulate_near_zero_noise(small_code):
    cfg = small_config(small_code, points=(1e-9,), max_frames=40)
    (rec,) = simulate(cfg)
    assert rec.frame_errors == 0
    assert rec.fer == 0.0


def test_simulate_near_half_noise(small_code):
    cfg = small_config(small_code, points=(0.49,), max_frames=60,
                       min_frame_errors=40)
    (rec,) = simulate(cfg)
    low, _ = fer_confidence(rec)
    assert low > 0.5  # decoding is hopeless at p = 0.49


def test_branch_and_bound_dominates_lp(small_code):
    # paired seeds: frames decoded correctly by bare LP decoding are also
    # decoded correctly by branch & bound (it never does worse)
    outcomes = {}

    def hook(pi, trial, name, res):
        good = res.success and not res.codeword().any()
        outcomes.setdefault(name, {})[trial] = good

    cfg = small_config(small_code, points=(0.07,), decoders=("lp", "branch_and_bound"),
                       max_frames=120, min_frame_errors=10)
    simulate(cfg, on_frame=hook)
    for trial, good in outcomes["lp"].items():
        if good:
            assert outcomes["branch_and_bound"][trial]


def test_wilson_interval_cases():
    rec = SimRecord("lp", 0.1, 100, 0, 0, 0, 0, 0, 0, 0, 0)
    low, high = fer_confidence(rec)
    assert low == 0.0 and high > 0.0
    rec = SimRecord("lp", 0.1, 100, 50, 0, 0, 0, 0, 0, 0, 0)
    low, high = fer_confidence(rec)
    assert low < 0.5 < high
    rec2 = SimRecord("lp", 0.1, 1000, 500, 0, 0, 0, 0, 0, 0, 0)
    low2, high2 = fer_confidence(rec2)
    assert high2 - low2 < high - low


def test_csv_roundtrip(small_code):
    cfg = small_config(small_code)
    records = simulate(cfg)
    text = format_records_csv(records)
    again = read_records_csv(text)
    assert len(again) == len(records)
    assert again[0].decoder == records[0].decoder
    assert again[0].frames == records[0].frames


def test_csv_idempotent_rerun(tmp_path, small_code):
    # 0.0512345678 has no exact 6-digit %g form, so it must be written in full
    cfg = small_config(small_code, points=(0.03, 0.06, 0.0512345678))
    path = str(tmp_path / "out.csv")
    simulate_to_csv(cfg, path)
    with open(path, "rb") as fh:
        first = fh.read()
    simulate_to_csv(cfg, path)
    with open(path, "rb") as fh:
        second = fh.read()
    assert first == second


def test_csv_append_only_new_points(tmp_path, small_code):
    path = str(tmp_path / "out.csv")
    simulate_to_csv(small_config(small_code, points=(0.03,)), path)
    with open(path) as fh:
        first = fh.read()
    records = simulate_to_csv(small_config(small_code, points=(0.03, 0.06)), path)
    with open(path) as fh:
        second = fh.read()
    assert second.startswith(first)
    assert {r.point for r in records} == {0.03, 0.06}


def test_csv_rejects_a_decoder_missing_at_a_held_point(tmp_path):
    # a point's decoders share one stop rule, so a decoder added to the
    # config cannot be resumed alone at a point the file already holds
    code = load_code("spc:3,3")
    path = str(tmp_path / "out.csv")
    simulate_to_csv(small_config(code, points=(0.1,), decoders=("min_sum",)), path)
    with open(path) as fh:
        first = fh.read()
    with pytest.raises(ValueError, match=r"'lp'.*point 0\.1\b"):
        simulate_to_csv(small_config(code, points=(0.1,), decoders=("min_sum", "lp")), path)
    with open(path) as fh:
        assert fh.read() == first


def test_fresh_runs_agree_in_statistics(tmp_path, small_code):
    cfg = small_config(small_code)
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    a = simulate_to_csv(cfg, p1)
    b = simulate_to_csv(cfg, p2)
    for ra, rb in zip(a, b):
        assert ra.frames == rb.frames and ra.frame_errors == rb.frame_errors


def test_sum_product_no_worse_than_min_sum_paired():
    # paired-seed qualitative ordering on a (3,4) code at a moderate SNR
    code = random_regular_ldpc(32, 3, 4, seed=7)
    cfg = SimConfig(code=code, channel="biawgn", points=(3.0,),
                    decoders=("min_sum", "sum_product"),
                    max_frames=1500, min_frame_errors=80, master_seed=5)
    recs = {r.decoder: r for r in simulate(cfg)}
    assert recs["sum_product"].fer <= recs["min_sum"].fer
    low, high = fer_confidence(recs["sum_product"])
    assert low <= recs["sum_product"].fer <= high


def test_parse_sim_config_text():
    cfg = parse_sim_config_text(
        "code = random:16,3,4,7\n"
        "channel = bsc\n"
        "points = 0.03, 0.06\n".replace(", ", ",") +
        "decoders = lp,min_sum\n"
        "max_frames = 50\n"
        "min_frame_errors = 4\n"
        "master_seed = 11\n"
        "decoder.depth = 4\n"
        "decoder.max_depth = 3\n"
        "decoder.num_faces = 5\n")
    assert cfg.points == (0.03, 0.06)
    assert cfg.decoders == ("lp", "min_sum")
    assert cfg.decoder_config.depth == 4
    assert cfg.decoder_config.max_depth == 3
    assert cfg.decoder_config.num_faces == 5
    assert cfg.master_seed == 11
    # the None-default caps used to arrive as strings, and branching on a
    # fractional root then crashed comparing the depth with max_depth
    bb = make_decoder("branch_and_bound", cfg.decoder_config)
    lam, _ = fractional_instance(cfg.code, np.random.default_rng(3), lp_decode)
    assert bb(cfg.code, lam).stats.branch_nodes > 0


def test_parse_sim_config_errors():
    with pytest.raises(ValueError):
        parse_sim_config_text("points = 0.1\ndecoders = lp\n")
    with pytest.raises(ValueError):
        parse_sim_config_text("code = spc:3,3\nbadline\n")
    with pytest.raises(ValueError):
        parse_sim_config_text("code = spc:3,3\npoints = 0.1\ndecoders = lp\n"
                              "decoder.bogus = 1\n")
    for bad in ("0", "-2", "three"):
        with pytest.raises(ValueError, match="max_depth"):
            parse_sim_config_text("code = spc:3,3\npoints = 0.1\ndecoders = lp\n"
                                  f"decoder.max_depth = {bad}\n")
    with pytest.raises(ValueError, match="num_faces"):
        DecoderConfig(num_faces="5")
    # each of these used to parse and then raise inside the campaign
    for lines, key in (("decoder.guess_scale = 0.5\n", "guess_scale"),
                       ("decoder.guess_scale = nan\n", "guess_scale"),
                       ("decoder.depth = 2\ndecoder.subset_size = 3\n", "subset_size")):
        with pytest.raises(ValueError, match=key):
            parse_sim_config_text("code = spc:3,3\npoints = 0.1\n"
                                  "decoders = bit_guessing,constant_depth\n" + lines)
    for kwargs in ({"depth": 4.0}, {"max_nodes": True}, {"max_depth": 2.5},
                   {"seed": 1.5}, {"seed": -1}, {"guess_scale": True},
                   {"guess_scale": math.inf}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            DecoderConfig(**kwargs)


def test_parse_sim_config_names_the_bad_key():
    base = {"code": "spc:3,3", "points": "0.1", "decoders": "lp"}

    def text(**overrides):
        kv = {**base, **overrides}
        return "".join(f"{k} = {v}\n" for k, v in kv.items() if v is not None)

    parse_sim_config_text(text())
    for key in ("code", "points", "decoders"):
        with pytest.raises(ValueError, match=f"{key}="):
            parse_sim_config_text(text(**{key: None}))
    for key in ("max_frames", "min_frame_errors", "master_seed"):
        for bad in ("abc", "1.5", ""):
            with pytest.raises(ValueError, match=key):
                parse_sim_config_text(text(**{key: bad}))
    for bad in ("0.1,x", "0.1,,0.2", ""):
        with pytest.raises(ValueError, match="points"):
            parse_sim_config_text(text(points=bad))


def test_load_code_specs(tmp_path):
    code = load_code("random:12,3,4,5")
    assert code.n == 12
    code = load_code("spc:3,3")
    assert code.n == 9
    from mpdec.gf2 import save_alist
    path = tmp_path / "c.alist"
    path.write_text(save_alist(code))
    again = load_code(str(path))
    assert again.H == code.H


def test_cli_gencode_roundtrip(tmp_path, capsys):
    out = tmp_path / "code.alist"
    assert main(["gencode", "--n", "12", "--dv", "3", "--dc", "4",
                 "--seed", "2", "--out", str(out)]) == 0
    code = load_alist(out.read_text())
    assert code.n == 12 and code.H.m == 9


def test_cli_decode_llr(capsys):
    assert main(["decode", "--code", "spc:3,3",
                 "--llr", "1,1,1,1,-1,1,1,1,1", "--decoder", "lp"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("status=")
    assert "lp_solves=" in out and "value=" in out
    fields = dict(item.split("=", 1) for item in out.split())
    # the kernel counters of the one scratch solve
    assert int(fields["pivots"]) >= 0 and int(fields["refactors"]) >= 1
    assert fields["warm_fallbacks"] == "0"
    assert fields["final_rows"] == "24"  # spc:3,3's full forbidden-set LP: 6 checks of degree 3


def test_cli_decode_channel(capsys):
    assert main(["decode", "--code", "random:12,3,4,5", "--channel", "bsc:0.05",
                 "--seed", "4", "--decoder", "branch_and_bound"]) == 0
    out = capsys.readouterr().out
    assert "status=ml_certified" in out


def test_cli_mindist_fdist(capsys):
    assert main(["mindist", "--code", "spc:3,3"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["fdist", "--code", "spc:3,3"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0, abs=1e-6)


def test_cli_cuts(capsys):
    # all-positive LLRs: integral optimum, no cut dump
    assert main(["cuts", "--code", "spc:3,3",
                 "--llr", "1,1,1,1,1,1,1,1,1"]) == 0
    out = capsys.readouterr().out
    assert "no cut search" in out


def test_cli_simulate(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(
        "code = random:12,3,4,5\n"
        "channel = bsc\n"
        "points = 0.04\n"
        "decoders = lp\n"
        "max_frames = 30\n"
        "min_frame_errors = 3\n"
        "master_seed = 1\n")
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# schema=1")
    assert "decoder,point,frames" in text
    printed = capsys.readouterr().out
    assert "fer=" in printed and "ci95=" in printed


def test_parse_sim_config_rejects_unknown_names_up_front():
    # these used to parse and only fail inside the campaign, with a bare
    # KeyError for an unknown searcher
    base = "code = spc:3,3\npoints = 0.1\n"
    for line, key in (("decoders = lp,bogus\n", "decoders="),
                      ("decoders = lp\ndecoder.searchers = adaptation,bogus\n",
                       "decoder.searchers"),
                      ("decoders = lp\ndecoder.formulation = bogus\n",
                       "decoder.formulation"),
                      ("decoders = lp\ndecoder.base = bogus\n", "decoder.base")):
        with pytest.raises(ValueError, match=key) as err:
            parse_sim_config_text(base + line)
        assert "bogus" in str(err.value)
    for kwargs in ({"formulation": "bogus"}, {"base": "bogus"},
                   {"searchers": ("cycle", "bogus")}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            DecoderConfig(**kwargs)


def test_parse_sim_config_strips_searcher_names():
    # `decoders =` stripped its items while `decoder.searchers =` did not, so
    # a space after the comma was rejected as the searcher ' cycle'
    cfg = parse_sim_config_text("code = spc:3,3\npoints = 0.1\ndecoders = lp\n"
                                "decoder.searchers = adaptation, cycle\n")
    assert cfg.decoder_config.searchers == ("adaptation", "cycle")


@pytest.mark.parametrize("argv, expected", [
    (["decode", "--code", "random:32,3,4", "--llr", "1"], "random:n,dv,dc,seed"),
    (["decode", "--code", "spc:3,x", "--llr", "1"], "spc:d1,d2"),
    (["decode", "--code", "spc:3,3", "--channel", "bsc:abc"], "bsc:0.05"),
    (["decode", "--code", "spc:3,3", "--channel", "awgn:0.5"], "bsc:0.05"),
    (["decode", "--code", "spc:3,3", "--llr", "1,x,1"], "--llr"),
    (["decode", "--code", "spc:3,3", "--llr", "1,1"], "9 LLR values"),
    (["decode", "--code", "spc:3,3", "--llr", "1,1,1,1,1,1,1,1,1",
      "--decoder", "bogus"], "--decoder"),
    (["decode", "--code", "spc:3,3"], "--llr or --channel"),
    (["mindist", "--code", "no/such/file.alist"], "no/such/file.alist"),
    # an infinite sigma got as far as the decoder's "LLRs must be finite"
    (["decode", "--code", "spc:3,3", "--channel", "biawgn:inf"], "sigma must be positive"),
])
def test_cli_input_errors_are_usage_errors(argv, expected, capsys):
    # each used to end in a raw traceback (or a bare unpacking error)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and expected in err


@pytest.mark.parametrize("command", ["decode", "cuts"])
@pytest.mark.parametrize("llr", ["-1,1,1,1,-1,1,1,1,1", "-0.5,1,1,1,1,1,1,1,1",
                                 "-inf,1,1,1,-1,1,1,1,1"])
def test_cli_llr_list_may_start_with_a_minus(command, llr, capsys):
    # argparse took a value such as -1,1,... for an option and stopped with
    # "argument --llr: expected one argument"; both spellings now parse
    results = []
    for argv in (["--llr", llr], [f"--llr={llr}"]):
        try:
            code = main([command, "--code", "spc:3,3", *argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert "expected one argument" not in captured.err
        results.append((code, captured.out, captured.err))
    assert results[0][0] == results[1][0]
    assert results[0][1].split(" ms=")[0] == results[1][1].split(" ms=")[0]
    if llr.startswith("-inf"):
        assert results[0][0] == 2 and "LLRs must be finite" in results[0][2]
    else:
        assert results[0][0] == 0 and results[0][1].startswith("status=ml_certified")


@pytest.mark.parametrize("decoder", ["lp", "adaptive_lp", "branch_and_bound", "min_sum"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_llrs(decoder, bad, capsys):
    # nan ended in numpy's empty-argmax error or printed value=nan
    with pytest.raises(SystemExit) as exit_info:
        main(["decode", "--code", "spc:3,3", f"--llr={bad},1,1,1,-1,1,1,1,1",
              "--decoder", decoder])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "mpdec: error: LLRs must be finite" in err
