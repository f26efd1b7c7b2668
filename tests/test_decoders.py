"""Decoder behavior against enumeration oracles."""

import math

import numpy as np
import pytest

from mpdec.channels import hard_decision
from mpdec.decoders import (DecodeStatus, DecoderConfig, adaptive_lp_decode,
                            bit_guessing_decode, branch_and_bound_decode,
                            constant_depth_decode, cutting_plane_decode,
                            facet_guessing_decode, fractional_distance,
                            lp_decode, make_decoder, min_sum_decode,
                            neighborhood_search, sum_product_decode,
                            variable_depth_decode)
from mpdec.formulations import has_lonely_fractional_neighbor
from mpdec.gf2 import (BinaryMatrix, LinearCode, min_distance_bruteforce,
                       ml_bruteforce, spc_product_code, syndrome)

from conftest import fractional_instance, random_forest_code, random_sparse_code


def spc3():
    return LinearCode(BinaryMatrix(3, (0b111,)))


def test_lp_decode_spc_example():
    res = lp_decode(spc3(), [-1.0, -1.0, 1.0])
    assert res.status is DecodeStatus.ML_CERTIFIED
    assert res.codeword().tolist() == [1, 1, 0]
    assert res.value == pytest.approx(-2.0, abs=1e-9)


def test_lp_decode_all_positive_zero(code84):
    res = lp_decode(code84, np.full(8, 0.7))
    assert res.status is DecodeStatus.ML_CERTIFIED
    assert not res.codeword().any()


def test_lp_decode_hamming_fractional_below_ml(hamming):
    rng = np.random.default_rng(2)
    lam, res = fractional_instance(hamming, rng, lp_decode)
    _, mlv = ml_bruteforce(hamming, lam)
    assert res.value < mlv - 1e-9
    assert np.any((res.point > 1e-6) & (res.point < 1 - 1e-6))


def test_ml_certificates_match_oracle(code84, hamming):
    rng = np.random.default_rng(3)
    for code in (code84, hamming):
        for _ in range(150):
            lam = rng.standard_normal(code.n)
            res = lp_decode(code, lam)
            if res.status is DecodeStatus.ML_CERTIFIED:
                cw, val = ml_bruteforce(code, lam)
                assert np.array_equal(res.codeword(), cw)
                assert res.value == pytest.approx(val, abs=1e-7)


def test_tree_codes_always_integral():
    rng = np.random.default_rng(4)
    for _ in range(60):
        code = random_forest_code(rng)
        lam = rng.standard_normal(code.n)
        res = lp_decode(code, lam)
        assert res.status is DecodeStatus.ML_CERTIFIED


def test_adaptive_matches_fs_value(code84):
    rng = np.random.default_rng(5)
    n, m = code84.n, code84.m
    for _ in range(60):
        lam = rng.standard_normal(8)
        ref = lp_decode(code84, lam)
        res = adaptive_lp_decode(code84, lam)
        assert abs(res.value - ref.value) < 1e-6
        assert res.stats.iterations <= n
        assert res.stats.cuts_added <= n * m


def test_adaptive_zero_iteration_output_is_hard_decision(code84):
    lam = np.array([3, 2.5, 2, 1.5, -1, 1, 2, 4.0])
    if hard_decision(lam).sum() == 0:
        lam[4] = 1.0
    res = adaptive_lp_decode(code84, lam)
    if res.stats.iterations == 0:
        assert np.array_equal(res.codeword(), hard_decision(lam))


def test_adaptive_drop_inactive_row_budget(code84):
    rng = np.random.default_rng(6)
    for _ in range(60):
        lam = rng.standard_normal(8)
        ref = lp_decode(code84, lam)
        res = adaptive_lp_decode(code84, lam, drop_inactive=True)
        assert abs(res.value - ref.value) < 1e-6
        assert res.stats.final_rows <= code84.m


def test_cutting_plane_integral_base_no_rounds(code84):
    res = cutting_plane_decode(code84, np.full(8, 0.4))
    assert res.status is DecodeStatus.ML_CERTIFIED
    assert res.stats.iterations == 0


def test_cutting_plane_reaches_ml_on_hamming(hamming):
    rng = np.random.default_rng(7)
    recovered = 0
    for _ in range(40):
        lam, _ = fractional_instance(hamming, rng, lp_decode)
        cw, mlv = ml_bruteforce(hamming, lam)
        res = cutting_plane_decode(hamming, lam, base="fs")
        base = lp_decode(hamming, lam)
        assert res.value >= base.value - 1e-9
        if res.status is DecodeStatus.ML_CERTIFIED:
            recovered += 1
            assert np.array_equal(res.codeword(), cw)
            assert res.value == pytest.approx(mlv, abs=1e-7)
    assert recovered > 0


def test_cutting_plane_parity_relax_base(code84):
    rng = np.random.default_rng(8)
    for _ in range(40):
        lam = rng.standard_normal(8)
        res = cutting_plane_decode(code84, lam, base="parity_relax")
        if res.status is DecodeStatus.ML_CERTIFIED:
            cw, mlv = ml_bruteforce(code84, lam)
            assert res.value == pytest.approx(mlv, abs=1e-7)
            assert np.array_equal(res.codeword(), cw)


def test_fda_examples():
    assert fractional_distance(spc3()) == pytest.approx(2.0, abs=1e-7)
    p33 = spc_product_code((3, 3))
    assert fractional_distance(p33) == pytest.approx(4.0, abs=1e-7)
    assert fractional_distance(p33, "cascade") == pytest.approx(4.0, abs=1e-7)


def test_fda_bounds_distance():
    rng = np.random.default_rng(9)
    for _ in range(6):
        code = random_sparse_code(rng, 8, 4)
        if code.k == 0:
            continue
        d = min_distance_bruteforce(code)
        frac = fractional_distance(code)
        assert 0 < frac <= d + 1e-7


def test_facet_guessing_recovers_ml(hamming):
    rng = np.random.default_rng(10)
    hits = 0
    for _ in range(25):
        lam, _ = fractional_instance(hamming, rng, lp_decode)
        res = facet_guessing_decode(hamming, lam, mode="exhaustive")
        if res.status is DecodeStatus.CODEWORD_FOUND:
            assert not syndrome(hamming.H, res.codeword()).any()
            cw, mlv = ml_bruteforce(hamming, lam)
            if abs(res.value - mlv) < 1e-7:
                hits += 1
    assert hits > 0


def test_facet_guessing_random_full_equals_exhaustive(hamming):
    rng = np.random.default_rng(11)
    lam, _ = fractional_instance(hamming, rng, lp_decode)
    a = facet_guessing_decode(hamming, lam, mode="exhaustive")
    b = facet_guessing_decode(hamming, lam, mode="random", num_faces=10 ** 6)
    assert a.status == b.status
    if a.status is DecodeStatus.CODEWORD_FOUND:
        assert np.array_equal(a.codeword(), b.codeword())


def test_bit_guessing_counts_and_ml():
    code = spc3()
    rng = np.random.default_rng(12)
    for _ in range(20):
        lam = rng.standard_normal(3)
        res = bit_guessing_decode(code, lam, c=2.0)
        cw, mlv = ml_bruteforce(code, lam)
        if res.status is DecodeStatus.ML_CERTIFIED:
            assert res.stats.lp_solves == 1
        else:
            # k capped at n=3: the base solve plus 2^3 fixings
            assert res.stats.lp_solves == 1 + 8
            assert res.status is DecodeStatus.CODEWORD_FOUND
            assert res.value == pytest.approx(mlv, abs=1e-7)


def test_branch_and_bound_integral_root(code84):
    res = branch_and_bound_decode(code84, np.full(8, 0.25))
    assert res.status is DecodeStatus.ML_CERTIFIED
    assert res.stats.branch_nodes == 0


def test_branch_and_bound_exact(code84, hamming):
    rng = np.random.default_rng(13)
    for code in (code84, hamming):
        for _ in range(40):
            lam = rng.standard_normal(code.n)
            res = branch_and_bound_decode(code, lam)
            cw, mlv = ml_bruteforce(code, lam)
            assert res.status is DecodeStatus.ML_CERTIFIED
            assert res.value == pytest.approx(mlv, abs=1e-7)


def test_branch_and_bound_parity_relax_base(code84):
    rng = np.random.default_rng(14)
    for _ in range(15):
        lam = rng.standard_normal(8)
        res = branch_and_bound_decode(code84, lam, formulation="parity_relax")
        _, mlv = ml_bruteforce(code84, lam)
        assert res.status is DecodeStatus.ML_CERTIFIED
        assert res.value == pytest.approx(mlv, abs=1e-7)


def test_branch_and_bound_node_cap(code84):
    rng = np.random.default_rng(15)
    lam, _ = fractional_instance(code84, rng, lp_decode)
    res = branch_and_bound_decode(code84, lam, max_nodes=1)
    assert res.stats.branch_nodes <= 1
    assert res.status is not DecodeStatus.ML_CERTIFIED


def test_variable_depth_counts(code84):
    rng = np.random.default_rng(16)
    for _ in range(40):
        lam = rng.standard_normal(8)
        res = variable_depth_decode(code84, lam, depth=1)
        assert res.stats.lp_solves <= 3
        if res.status is DecodeStatus.ML_CERTIFIED:
            assert res.stats.lp_solves == 1
        res = variable_depth_decode(code84, lam, depth=4)
        assert res.stats.lp_solves <= 2 ** 5 - 1
        if res.success:
            assert not syndrome(code84.H, res.codeword()).any()


def test_constant_depth_counts(code84):
    rng = np.random.default_rng(17)
    for _ in range(40):
        lam = rng.standard_normal(8)
        res = constant_depth_decode(code84, lam, depth=4, subset_size=2)
        assert res.stats.lp_solves <= math.comb(4, 2) * 4 + 1
        if res.success:
            assert not syndrome(code84.H, res.codeword()).any()
        full = constant_depth_decode(code84, lam, depth=3, subset_size=3)
        assert full.stats.lp_solves <= 2 ** 3 + 1


def test_dominance_chain(code84):
    rng = np.random.default_rng(18)
    for _ in range(50):
        lam = rng.standard_normal(8)
        v_lp = lp_decode(code84, lam).value
        v_ctp = cutting_plane_decode(code84, lam, base="fs").value
        v_bb = branch_and_bound_decode(code84, lam).value
        _, mlv = ml_bruteforce(code84, lam)
        assert v_lp <= v_ctp + 1e-6
        assert v_ctp <= v_bb + 1e-6
        assert v_bb == pytest.approx(mlv, abs=1e-7)


def test_fractional_failures_have_fractional_coordinate(code84):
    rng = np.random.default_rng(19)
    seen = 0
    for _ in range(200):
        lam = rng.standard_normal(8)
        res = lp_decode(code84, lam)
        if res.status is DecodeStatus.FRACTIONAL_FAILURE:
            seen += 1
            assert np.any((res.point >= 1e-6) & (res.point <= 1 - 1e-6))
            supports = [code84.H.row_support(i) for i in range(code84.m)]
            assert not has_lonely_fractional_neighbor(supports, res.point)
    assert seen > 0


def test_neighborhood_search_noiseless(code84):
    from mpdec.gf2 import enumerate_codewords
    words = enumerate_codewords(code84)
    x = words[5]
    lam = 1.0 - 2.0 * x.astype(float)
    out = neighborhood_search(code84, 4.0 * lam)
    assert np.array_equal(out, x)


def test_neighborhood_search_always_codeword(code84):
    rng = np.random.default_rng(20)
    for depth in (1, 2):
        for _ in range(40):
            lam = rng.standard_normal(8)
            out = neighborhood_search(code84, lam, exchange_depth=depth)
            assert not syndrome(code84.H, out).any()


def test_neighborhood_search_descends(code84):
    rng = np.random.default_rng(21)
    for _ in range(40):
        lam = rng.standard_normal(8)
        start = neighborhood_search(code84, lam, max_moves=0)
        out = neighborhood_search(code84, lam, exchange_depth=2)
        assert lam @ out <= lam @ start + 1e-12


def test_min_sum_noiseless_one_iteration(code84):
    lam = np.full(8, 9.0)
    res = min_sum_decode(code84, lam)
    assert res.status is DecodeStatus.CODEWORD_FOUND
    assert res.stats.iterations == 1
    assert not res.codeword().any()


def test_message_passing_never_ml_certified(code84):
    rng = np.random.default_rng(22)
    for _ in range(50):
        lam = rng.standard_normal(8)
        for dec in (min_sum_decode, sum_product_decode):
            res = dec(code84, lam)
            assert res.status in (DecodeStatus.CODEWORD_FOUND,
                                  DecodeStatus.FRACTIONAL_FAILURE)
            if res.success:
                assert not syndrome(code84.H, res.codeword()).any()


def test_min_sum_exact_on_trees():
    rng = np.random.default_rng(23)
    agree = total = 0
    for _ in range(40):
        code = random_forest_code(rng, 8, 12)
        if code.k > 12:
            continue
        lam = rng.standard_normal(code.n)
        res = min_sum_decode(code, lam, max_iterations=100)
        cw, mlv = ml_bruteforce(code, lam)
        total += 1
        if res.success and np.array_equal(res.codeword(), cw):
            agree += 1
    assert total > 20
    assert agree == total


def test_make_decoder_registry(code84):
    lam = np.full(8, 0.3)
    for name in ("lp", "adaptive_lp", "adaptive_lp_drop", "cutting_plane",
                 "branch_and_bound", "variable_depth", "constant_depth",
                 "facet_guessing", "bit_guessing", "min_sum", "sum_product"):
        res = make_decoder(name, DecoderConfig(depth=3))(code84, lam)
        assert res.status in DecodeStatus
    with pytest.raises(ValueError):
        make_decoder("nope")


def test_decoder_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(depth=0)
    with pytest.raises(ValueError):
        DecoderConfig(max_nodes=0)


def test_certified_value_is_exact_codeword_cost(code84):
    # the LP value c @ x of an integral vertex can differ from llr @ codeword
    # in the last bits; a certificate reports the codeword's exact cost
    from mpdec.formulations import build_formulation
    from mpdec.simplex import solve
    rng = np.random.default_rng(0)
    differing = 0
    for _ in range(40):
        lam = rng.standard_normal(8)
        res = lp_decode(code84, lam)
        if res.status is not DecodeStatus.ML_CERTIFIED:
            continue
        exact = float(lam @ res.codeword())
        differing += solve(build_formulation(code84, "fs", lam).lp).value != exact
        assert res.value == exact
        for other in (branch_and_bound_decode(code84, lam),
                      adaptive_lp_decode(code84, lam),
                      cutting_plane_decode(code84, lam, base="fs")):
            assert other.status is DecodeStatus.ML_CERTIFIED
            assert other.value == exact
    assert differing > 0


def test_solver_counters_are_deterministic(code84, hamming):
    rng = np.random.default_rng(98)
    lam, _ = fractional_instance(hamming, rng, lp_decode)
    decoders = (lp_decode, adaptive_lp_decode, cutting_plane_decode,
                branch_and_bound_decode, lambda c, l: bit_guessing_decode(c, l, c=1.0))
    for dec in decoders:
        a, b = dec(hamming, lam).stats, dec(hamming, lam).stats
        assert a.pivots > 0 and a.refactors >= a.lp_solves
        assert ((a.pivots, a.refactors, a.warm_fallbacks, a.lp_solves)
                == (b.pivots, b.refactors, b.warm_fallbacks, b.lp_solves))
    # the root solve is branch & bound's first solve, so its counts are included
    root, tree = lp_decode(hamming, lam).stats, branch_and_bound_decode(hamming, lam).stats
    assert tree.pivots > root.pivots and tree.refactors > root.refactors


def test_branch_and_bound_tie_matches_oracle():
    # full_lp_n32's code, BSC p=0.10, campaign seed 901, trial 21: branch &
    # bound certifies a codeword whose cost ties the oracle's in the last
    # bit; the oracle used to tie only on exact float equality
    from mpdec.channels import Bsc, llr, transmit, trial_rng
    from mpdec.gf2 import random_regular_ldpc
    code = random_regular_ldpc(32, 3, 4, 7)
    channel = Bsc(0.10)
    lam = llr(transmit(np.zeros(32, dtype=np.uint8), channel,
                       trial_rng(901, 0, 21)), channel)
    res = branch_and_bound_decode(code, lam)
    cw, val = ml_bruteforce(code, lam)
    assert res.status is DecodeStatus.ML_CERTIFIED and res.stats.branch_nodes > 0
    assert np.array_equal(res.codeword(), cw) and res.value == val


def test_batch_separation_decodes_like_the_reference(monkeypatch):
    # the first 20 frames of the cuts_n120 benchmark campaign (seed 3): the
    # batch separation must hand the LP the very cuts, in the very order, of
    # the per-support routine it replaced
    import mpdec.decoders as decoders
    import mpdec.formulations as formulations
    from mpdec.channels import Biawgn, llr, transmit, trial_rng
    from mpdec.gf2 import random_regular_ldpc
    from conftest import (reference_adaptive_lp, reference_row_fs_cuts,
                          reference_separate_words)
    code = random_regular_ldpc(120, 3, 6, 620)
    channel = Biawgn(0.75)
    frames = [llr(transmit(np.zeros(120, dtype=np.uint8), channel,
                           trial_rng(3, 0, t)), channel) for t in range(20)]
    fractional = 0
    for lam in frames:
        for drop in (False, True):
            res = adaptive_lp_decode(code, lam, drop_inactive=drop)
            sol, counts = reference_adaptive_lp(code, lam, drop)
            x = sol.x[:120]
            if res.status is DecodeStatus.FRACTIONAL_FAILURE:
                fractional += 1
                assert res.value == sol.value
            else:
                assert res.status is DecodeStatus.ML_CERTIFIED
                x = np.round(x)
                assert res.value == float(lam @ x)
            assert np.array_equal(res.point, x)
            stats = res.stats
            assert (stats.cuts_added, stats.pivots, stats.iterations) == counts
    assert fractional > 0

    def cutting_planes():
        out = []
        for lam in frames:
            for searcher, seed in (("adaptation", 0), ("cycle", 7)):
                r = cutting_plane_decode(code, lam, (searcher,), max_rounds=15,
                                         rng_seed=seed)
                out.append((r.status, r.value, r.point.tolist(), r.stats.cuts_added,
                            r.stats.pivots, r.stats.iterations))
        return out

    got = cutting_planes()
    monkeypatch.setattr(decoders, "row_fs_cuts", reference_row_fs_cuts)
    monkeypatch.setattr(formulations, "_separate_words", reference_separate_words)
    assert got == cutting_planes()
    assert any(status is DecodeStatus.FRACTIONAL_FAILURE for status, *_ in got)
