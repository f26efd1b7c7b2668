"""Decoder behavior against enumeration oracles."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from mpdec.channels import hard_decision
from mpdec.decoders import (DECODERS, DecodeStatus, DecoderConfig, adaptive_lp_decode,
                            bit_guessing_decode, branch_and_bound_decode,
                            constant_depth_decode, cutting_plane_decode,
                            facet_guessing_decode, fractional_distance,
                            lp_decode, make_decoder, min_sum_decode,
                            neighborhood_search, sum_product_decode,
                            variable_depth_decode)
from mpdec.formulations import has_lonely_fractional_neighbor
from mpdec.gf2 import (BinaryMatrix, LinearCode, min_distance_bruteforce,
                       ml_bruteforce, random_regular_ldpc, spc_product_code,
                       syndrome)
from mpdec.simplex import LpSolverError, LpStatus, solve
from mpdec.trellis import (TurboSpec, accumulator_fsm, build_turbo_lp,
                           turbo_lagrangian_decode, turbo_lp_decode,
                           turbo_ml_bruteforce)

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


@pytest.mark.parametrize("trial", [10, 262])
def test_adaptive_drop_inactive_does_not_cycle(trial):
    # two seed-3 full_lp_n32 frames on which drop mode cycled through the
    # same row sets for 341 rounds and ended in solver_error
    code, lam = full_lp_n32_frame(3, trial)
    res = adaptive_lp_decode(code, lam, drop_inactive=True)
    ref = lp_decode(code, lam)
    assert res.status is ref.status is DecodeStatus.FRACTIONAL_FAILURE
    assert abs(res.value - ref.value) < 1e-6
    assert res.stats.iterations <= code.n


def test_adaptive_drop_inactive_costs_about_add_modes_pivots():
    # the first 20 seed-3 cuts_n120 frames: drop mode removes its rows whose
    # logicals are basic from the warm state (1.05x add mode's pivots),
    # where rebuilding the LP each round and solving it from scratch took
    # 3.7x
    from mpdec.channels import Biawgn, llr, transmit, trial_rng
    code, channel = random_regular_ldpc(120, 3, 6, 620), Biawgn(0.75)
    pivots, rows = {False: 0, True: 0}, {False: 0, True: 0}
    for t in range(20):
        lam = llr(transmit(np.zeros(120, dtype=np.uint8), channel, trial_rng(3, 0, t)), channel)
        res = {drop: adaptive_lp_decode(code, lam, drop_inactive=drop) for drop in rows}
        assert abs(res[True].value - res[False].value) <= 1e-9
        for drop, r in res.items():
            pivots[drop] += r.stats.pivots
            rows[drop] += r.stats.final_rows
    assert pivots[True] <= 1.25 * pivots[False]
    assert rows[True] <= rows[False]


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


def test_fractional_distance_rejects_formulations_it_cannot_compute():
    # only fs and cascade tag the faces it minimizes over; the others used
    # to return the minimum over the box faces x_j = 1 alone, silently
    code = random_regular_ldpc(16, 3, 4, 3)
    for kind in ("config", "count", "edge", "parity_relax"):
        with pytest.raises(ValueError, match="fs or cascade"):
            fractional_distance(code, kind)


def test_facet_guessing_recovers_ml(hamming):
    rng = np.random.default_rng(10)
    hits = 0
    for _ in range(25):
        lam, _ = fractional_instance(hamming, rng, lp_decode)
        res = facet_guessing_decode(hamming, lam)
        if res.status is DecodeStatus.CODEWORD_FOUND:
            assert not syndrome(hamming.H, res.codeword()).any()
            cw, mlv = ml_bruteforce(hamming, lam)
            if abs(res.value - mlv) < 1e-7:
                hits += 1
    assert hits > 0


def test_facet_guessing_random_full_equals_exhaustive(hamming):
    rng = np.random.default_rng(11)
    lam, _ = fractional_instance(hamming, rng, lp_decode)
    a = facet_guessing_decode(hamming, lam)
    b = facet_guessing_decode(hamming, lam, num_faces=10 ** 6)
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


def test_cutting_plane_names_a_bad_searcher(code84):
    # it raised a bare KeyError: 'foo'
    with pytest.raises(ValueError, match="adaptation"):
        cutting_plane_decode(code84, np.ones(8), searchers=("foo",))


def llr_takers(code84):
    """Every function that takes LLRs, as (name, n, f(llr))."""
    spec = TurboSpec(accumulator_fsm(), (2, 0, 3, 1), 4)
    takers = [(name, 8, partial(make_decoder(name), code84)) for name in DECODERS]
    takers += [(f.__name__, 8, partial(f, code84)) for f in (neighborhood_search, ml_bruteforce)]
    takers += [(f.__name__, 12, partial(f, spec))
               for f in (turbo_lp_decode, turbo_lagrangian_decode, build_turbo_lp,
                         turbo_ml_bruteforce)]
    return takers


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_llrs_are_rejected(code84, bad):
    # nan ended in numpy's empty-argmax error or in a decode of value nan,
    # and +-inf sent branch & bound to the same argmax error; the turbo LP
    # certified a nan frame, neighborhood search repaired one and both
    # oracles stopped at "min() arg is an empty sequence"
    for name, n, f in llr_takers(code84):
        lam = np.ones(n)
        lam[3] = bad
        with pytest.raises(ValueError, match="LLRs must be finite"):
            f(lam)


def test_llrs_of_the_wrong_length_are_rejected(code84):
    # the message passers gave numpy's broadcast error and the Lagrangian
    # decoder an IndexError
    for name, n, f in llr_takers(code84):
        for lam in (np.ones(n - 1), np.ones(n + 1), np.ones((1, n)), 1.0):
            with pytest.raises(ValueError, match=f"expected {n} LLR values"):
                f(lam)


def test_solver_trouble_mid_decode_is_a_solver_error(code84, monkeypatch):
    # the frame keeps the counters of every solve finished before the error
    from mpdec import decoders, trellis
    lam, root = fractional_instance(code84, np.random.default_rng(5), lp_decode)
    real, done = decoders.fix_variable_resolve, []

    def failing(sol, *pin):
        if len(done) == 3:
            raise LpSolverError("planted")
        done.append(real(sol, *pin))
        return done[-1]

    monkeypatch.setattr(decoders, "fix_variable_resolve", failing)
    res = bit_guessing_decode(code84, lam)
    assert res.status is DecodeStatus.SOLVER_ERROR
    assert res.point is None and math.isnan(res.value)
    assert res.stats.lp_solves == 4 and res.stats.final_rows == root.stats.final_rows
    assert res.stats.pivots == root.stats.pivots + sum(sol.pivots for sol in done)
    assert res.stats.wall_time > 0

    spec = TurboSpec(accumulator_fsm(), (2, 0, 3, 1), 4)
    solved = []
    monkeypatch.setattr(trellis, "solve", lambda lp: solved.append(solve(lp)) or replace(
        solved[-1], status=LpStatus.INFEASIBLE))
    res = turbo_lp_decode(spec, np.linspace(-1.0, 1.0, 12))
    assert res.status is DecodeStatus.SOLVER_ERROR
    assert res.point is None and math.isnan(res.value)
    assert res.stats.lp_solves == 1 and res.stats.pivots == solved[0].pivots


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


def full_lp_n32_frame(seed, trial):
    """full_lp_n32's code and one frame of its campaign (BSC p=0.10)."""
    from mpdec.channels import Bsc, llr, transmit, trial_rng
    from mpdec.gf2 import random_regular_ldpc
    code = random_regular_ldpc(32, 3, 4, 7)
    channel = Bsc(0.10)
    return code, llr(transmit(np.zeros(32, dtype=np.uint8), channel,
                              trial_rng(seed, 0, trial)), channel)


def test_branch_and_bound_tie_matches_oracle():
    # each frame has tied ML codewords whose costs differ in the last bit;
    # branch & bound must certify the oracle's one.  Seed 901 trial 21: the
    # oracle used to tie only on exact float equality.  Seed 11 trial 203 and
    # seed 3 trial 179: the root certified a tied codeword other than the
    # oracle's, with no branching.  Seed 8 trial 122: see the test below.
    for seed, trial in ((901, 21), (11, 203), (3, 179), (8, 122)):
        code, lam = full_lp_n32_frame(seed, trial)
        res = branch_and_bound_decode(code, lam)
        cw, val = ml_bruteforce(code, lam)
        assert res.status is DecodeStatus.ML_CERTIFIED
        assert np.array_equal(res.codeword(), cw) and res.value == val


def test_branch_and_bound_branches_past_a_tied_root_codeword():
    # on these frames the root LP reaches a tied codeword other than the
    # oracle's, so branch & bound must branch on a codeword node to return
    # the oracle's.  Which tied vertex the root reaches turns on how the last
    # bit breaks ties between equally violated rows, so the set depends on
    # the kernel's summation order: seed 3 trial 179 now reaches the oracle's
    # all-zero word at the root and is checked above only.
    for seed, trial in ((901, 21), (11, 203), (8, 122)):
        code, lam = full_lp_n32_frame(seed, trial)
        res = branch_and_bound_decode(code, lam)
        assert res.status is DecodeStatus.ML_CERTIFIED
        assert np.array_equal(res.codeword(), ml_bruteforce(code, lam)[0])
        assert res.stats.branch_nodes > 0


def test_branch_and_bound_root_is_the_fs_lp():
    # the default root is the full forbidden-set LP, solved once as lp_decode
    # solves it; with the zero word certified there is nothing to branch on
    code, lam = full_lp_n32_frame(3, 7)
    res = branch_and_bound_decode(code, lam)
    ref = lp_decode(code, lam)
    assert res.status is ref.status is DecodeStatus.ML_CERTIFIED
    assert not res.codeword().any() and res.stats.branch_nodes == 0
    assert ((res.stats.pivots, res.stats.refactors, res.stats.lp_solves)
            == (ref.stats.pivots, ref.stats.refactors, 1))
    assert res.stats.iterations == res.stats.cuts_added == 0 and "fs" in code.lp_cache


def test_branch_and_bound_separates_from_the_box_on_a_dense_check():
    # a check of 27 bits would give the fs LP 2^26 rows, more than
    # MAX_CHECK_DEGREE allows and far over _FS_ROOT_ROWS: the root is the box
    # LP, the fs LP is never built, and the separation loop still reaches
    # the oracle's ML word
    n = 28
    rows = [[int(j < 27) for j in range(n)]]
    rows += [[int(j in (i, i + 1)) for j in range(n)] for i in range(24)]
    code = LinearCode(BinaryMatrix.from_array(rows))
    rng = np.random.default_rng(5)
    for _ in range(10):
        lam = rng.normal(0.5, 1.5, n)
        res = branch_and_bound_decode(code, lam)
        cw, val = ml_bruteforce(code, lam)
        assert res.status is DecodeStatus.ML_CERTIFIED
        assert np.array_equal(res.codeword(), cw) and res.value == pytest.approx(val)
    assert "fs" not in code.lp_cache and res.stats.iterations > 0


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


def test_dual_reduced_costs_follow_the_pivots(monkeypatch):
    # the dual simplex updates its reduced costs by d -= (d_q / alpha_q) alpha
    # instead of pricing each pivot afresh; on the first 20 cuts_n120 frames
    # (seed 3) they must match a fresh pricing on every nonbasic column after
    # every dual pivot
    from mpdec import simplex
    from mpdec.channels import Biawgn, llr, transmit, trial_rng
    from mpdec.gf2 import random_regular_ldpc
    code = random_regular_ldpc(120, 3, 6, 620)
    channel = Biawgn(0.75)
    eta_update = simplex._Engine._eta_update
    worst, checked = [0.0], [0]

    def checked_eta_update(engine, *args):
        eta_update(engine, *args)
        if engine._d is not None:
            nonbasic = engine.status != simplex._BASIC
            gap = np.abs(engine._d - engine._reduced_costs())[nonbasic]
            worst[0] = max(worst[0], float(gap.max()))
            checked[0] += 1

    monkeypatch.setattr(simplex._Engine, "_eta_update", checked_eta_update)
    for t in range(20):
        lam = llr(transmit(np.zeros(120, dtype=np.uint8), channel, trial_rng(3, 0, t)), channel)
        adaptive_lp_decode(code, lam)
        cutting_plane_decode(code, lam, ("adaptation",), max_rounds=15)
    assert checked[0] > 1000 and worst[0] <= 1e-9


def test_cutting_plane_over_presolved_parity_rows_is_adaptive_lp():
    # the cuts_n120 code's checks all have even degree, so the presolve drops
    # every row of the parity relaxation and its z columns never enter: with
    # no searcher, cutting-plane decoding takes adaptive LP's rounds and
    # pivots and gives its answers bit for bit; its final rows count the 60
    # dropped parity rows
    from mpdec.channels import Biawgn, llr, transmit, trial_rng
    code = random_regular_ldpc(120, 3, 6, 620)
    channel = Biawgn(0.75)
    fractional = 0
    for t in range(100):
        lam = llr(transmit(np.zeros(120, dtype=np.uint8), channel, trial_rng(3, 0, t)), channel)
        ref, res = adaptive_lp_decode(code, lam), cutting_plane_decode(code, lam, searchers=())
        assert (res.status, res.value) == (ref.status, ref.value), t
        assert np.array_equal(res.point, ref.point), t
        fractional += res.status is DecodeStatus.FRACTIONAL_FAILURE
        work, ref_work = res.stats, ref.stats
        assert ((work.pivots, work.iterations, work.cuts_added, work.lp_solves)
                == (ref_work.pivots, ref_work.iterations, ref_work.cuts_added,
                    ref_work.lp_solves)), t
        assert work.final_rows == ref_work.final_rows + 60, t
    assert fractional > 0


def test_separation_block_matches_lp_rows(code84, monkeypatch):
    # the separation loop hands add_rows_resolve its cuts as one Rows block
    # built from the separation arrays; it must be, bit for bit, what
    # parsing the cuts' LpRows gives: coefficients and sense bounds
    import mpdec.decoders as decoders
    from mpdec.channels import Biawgn, llr, transmit, trial_rng
    from mpdec.formulations import row_fs_cuts
    from mpdec.gf2 import random_regular_ldpc
    from mpdec.simplex import Rows

    def same_bits(got, want):
        return got.dtype == want.dtype and got.shape == want.shape and \
            got.tobytes() == want.tobytes()

    def check(block, cuts, width):
        parsed = Rows.parse([c.as_lp_row() for c in cuts], width)
        assert len(block) == len(cuts)
        for name in ("a", "lo", "hi"):
            assert same_bits(getattr(block, name), getattr(parsed, name)), name

    code120 = random_regular_ldpc(120, 3, 6, 620)
    rng = np.random.default_rng(29)
    checked = 0
    for code in (code84, code120):
        n = code.n
        for width in (n, n + code.m):  # the box LP and the parity relaxation
            for x in [rng.random(n), rng.integers(0, 2, n) / 1.0,
                      rng.integers(0, 3, n) / 2.0] * 5:
                cuts = row_fs_cuts(code.H, x)
                check(cuts.lp_rows(width), cuts, width)
                checked += len(cuts) > 0

    # and what the loop really passes, over the width of the state it grows:
    # the cuts of the last separation call that found any
    add_rows_resolve, last, passed = decoders.add_rows_resolve, [], []
    for name in ("row_fs_cuts", "matrix_adaptation_cut_search"):
        separate = getattr(decoders, name)
        monkeypatch.setattr(decoders, name, lambda *args, f=separate, name=name: (
            last.append((name, f(*args))) or last[-1][1]))

    def recorded(sol, rows):
        assert isinstance(rows, Rows)
        name, cuts = [(name, c) for name, c in last if c][-1]
        check(rows, cuts, sol.state.nstruct)
        passed.append(name)
        return add_rows_resolve(sol, rows)

    monkeypatch.setattr(decoders, "add_rows_resolve", recorded)
    channel = Biawgn(0.75)
    for t in (0, 1, 2, 3, 10, 16):  # seed-3 trials 10 and 16 reach the RPC search
        lam = llr(transmit(np.zeros(120, dtype=np.uint8), channel, trial_rng(3, 0, t)), channel)
        cutting_plane_decode(code120, lam, max_rounds=15)
        adaptive_lp_decode(code120, lam)
    assert checked > 50 and len(passed) > 20
    assert "matrix_adaptation_cut_search" in passed


def decoder_battery():
    """Every decoder on three codes, under one BLAS thread, as two digests:
    the answers (status, `value.hex()`, point) and the work (the
    `DecodeStats` counters but wall time).  Run it in a fresh interpreter
    (`test_decoder_outputs_are_pinned`), as pivots follow the thread count."""
    import hashlib
    from mpdec.channels import Biawgn, Bsc, llr, transmit, trial_rng
    from mpdec.decoders import DecodeStats
    answers, work = hashlib.sha256(), hashlib.sha256()
    counters = [f for f in DecodeStats.__dataclass_fields__ if f != "wall_time"]
    # (code, channel, frames, facet guessing's num_faces); exhaustive facet
    # guessing at n=60 alone would take half a minute
    cases = [(random_regular_ldpc(32, 3, 4, 7), Bsc(0.1), 24, None),
             (random_regular_ldpc(60, 3, 6, 2), Biawgn(0.8), 6, 40),
             (spc_product_code((3, 3)), Biawgn(0.9), 24, None)]
    for code, channel, frames, num_faces in cases:
        runs = [(name, DecoderConfig(depth=4, num_faces=num_faces)) for name in DECODERS]
        runs += [(name, DecoderConfig(formulation="cascade"))
                 for name in ("lp", "branch_and_bound")]
        for t in range(frames):
            word = np.zeros(code.n, dtype=np.uint8)
            lam = llr(transmit(word, channel, trial_rng(3, 0, t)), channel)
            for name, config in runs:
                res = make_decoder(name, config)(code, lam)
                point = None if res.point is None else np.asarray(res.point, float).tolist()
                answers.update(repr((name, res.status.value, res.value.hex(), point)).encode())
                work.update(repr([getattr(res.stats, f) for f in counters]).encode())
        if code.n < 60:
            for formulation in ("fs", "cascade"):
                answers.update(fractional_distance(code, formulation).hex().encode())
    return answers.hexdigest(), work.hexdigest()


def test_decoder_outputs_are_pinned():
    # answers and work counters of 13 decoder runs on 54 frames and of
    # fractional distance, recorded before the LP type was last reshaped and
    # re-recorded when adaptive LP's drop mode stopped cycling (n=32 frame 10
    # went from solver_error to fractional_failure); a change meant to move
    # pivots re-records only the work digest, as the presolve of the parity
    # rows did (cutting_plane's pivots on the n=32 and n=60 codes).  Both
    # were re-recorded when drop mode moved onto the warm separation loop:
    # only adaptive_lp_drop moved, its answers on fractional frames alone
    # (n=32 frames 0, 10, 14 and 19, n=60 frame 3): values by last bits, and
    # n=32 frame 10 ends at another optimal vertex, add mode's.  Both were
    # re-recorded when the full LP came to keep its rows in a pool and
    # branch & bound's fs search came to solve it: only n=60 frame 3 under
    # lp and lp/cascade moved, fractional, by 1.1e-15 in value and 3.3e-16
    # in the point; every branch & bound answer stayed the same
    import os
    import subprocess
    import sys
    from pathlib import Path
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests), str(tests.parent / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import test_decoders as t; print(*t.decoder_battery())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    answers, work = proc.stdout.split()
    assert answers == "b8b0f550fd35af449cb3a14a2d5be56736b4ebd5d88a7e97be5cb38d707583d5"
    assert work == "de156dd102cf51f1c11653f48487963acb7b237c4e141294cc5733b8a59e9323"
