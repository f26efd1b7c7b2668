"""Relaxation builders, separation routines, and cut searches."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpdec.formulations as formulations
from mpdec.formulations import (CUT_TOL, FsInequality, build_cascade_lp,
                                build_config_lp, build_count_lp,
                                build_edge_lp, build_formulation, build_fs_lp,
                                build_parity_relax_lp, decompose_checks,
                                fs_inequalities,
                                has_lonely_fractional_neighbor,
                                matrix_adaptation_cut_search,
                                most_violated_fs_cut, row_fs_cuts,
                                rpc_cycle_cut_search, rpc_from_rows,
                                separate_fs_cuts)
from mpdec.gf2 import (BinaryMatrix, LinearCode, enumerate_codewords,
                       ml_bruteforce, pack_bits, syndrome)
from mpdec.simplex import add_rows_resolve, solve

from conftest import (random_sparse_code, reference_most_violated_fs_cut,
                      reference_row_fs_cuts, reference_separate_words)


def spc3():
    return LinearCode(BinaryMatrix(3, (0b111,)))


def all_formulation_kinds():
    return ("fs", "config", "count", "cascade", "edge")


# -- forbidden-set inequalities -------------------------------------------------


def test_fs_inequality_count_degree3():
    ineqs = fs_inequalities((0, 1, 2))
    assert len(ineqs) == 4
    reprs = {(i.odd_subset, i.rhs) for i in ineqs}
    assert ((0, 1, 2), 2) in reprs
    assert ((0,), 0) in reprs


def test_fs_inequality_degree1():
    (ineq,) = fs_inequalities((5,))
    assert ineq.odd_subset == (5,) and ineq.rhs == 0


def test_fs_inequality_total_84(code84):
    total = sum(len(fs_inequalities(code84.H.row_support(i))) for i in range(4))
    assert total == 32


def test_fs_inequalities_satisfied_by_codewords(code84):
    words = enumerate_codewords(code84)
    for i in range(code84.m):
        for ineq in fs_inequalities(code84.H.row_support(i)):
            for w in words:
                assert ineq.violation(w) <= 0


def test_fs_inequality_validation():
    with pytest.raises(ValueError):
        FsInequality((0, 1, 2), (0, 1))
    with pytest.raises(ValueError):
        FsInequality((0, 1), (5,))


# -- builders -------------------------------------------------------------------


def test_config_lp_shape(code84):
    form = build_config_lp(code84, np.zeros(8))
    assert form.lp.num_vars == 8 + 32
    assert len(form.lp.rows) == 4 + 16


def test_config_lp_single_check():
    form = build_config_lp(spc3(), np.zeros(3))
    assert form.lp.num_vars == 3 + 4


def test_fs_lp_shapes(code84):
    assert len(build_fs_lp(spc3(), np.zeros(3)).lp.rows) == 4
    assert len(build_fs_lp(code84, np.zeros(8)).lp.rows) == 32


def test_fs_lp_zero_rows_box_only():
    code = LinearCode(BinaryMatrix(4, (0, 0)))
    form = build_fs_lp(code, np.zeros(4))
    assert len(form.lp.rows) == 0
    assert code.k == 4


def test_count_lp_k_sets():
    h = BinaryMatrix(5, (0b01111, 0b11111))
    form = build_count_lp(LinearCode(h), np.zeros(5))
    p_tags = [t for t in form.row_tags if t[0] == "count_sum"]
    assert len(p_tags) == 2
    # degree 4 and degree 5 both have counts {0, 2, 4}
    match_tags = [t for t in form.row_tags if t[0] == "count_match"]
    assert sorted(t[2] for t in match_tags if t[1] == 0) == [0, 2, 4]
    assert sorted(t[2] for t in match_tags if t[1] == 1) == [0, 2, 4]


def test_decompose_degree4():
    h = BinaryMatrix(4, (0b1111,))
    decomposed, aux = decompose_checks(LinearCode(h))
    assert decomposed.n == 5 and decomposed.m == 2
    assert set(aux) == {4}
    assert aux[4] == (0, 2)


def test_decompose_degree3_unchanged():
    code = spc3()
    decomposed, aux = decompose_checks(code)
    assert decomposed.H == code.H and not aux


def test_decompose_degree6():
    h = BinaryMatrix(6, (0b111111,))
    decomposed, aux = decompose_checks(LinearCode(h))
    assert decomposed.n == 9 and decomposed.m == 4
    assert len(aux) == 3


def test_decompose_projection_preserves_code():
    rng = np.random.default_rng(6)
    for _ in range(5):
        code = random_sparse_code(rng, 10, 4, w_min=2, w_max=6)
        if code.k > 12:
            continue
        decomposed, _ = decompose_checks(code)
        original = {tuple(w) for w in enumerate_codewords(code)}
        projected = {tuple(w[:code.n]) for w in enumerate_codewords(decomposed)}
        assert projected == original


def test_decompose_variable_count_bound(code84):
    decomposed, _ = decompose_checks(code84)
    assert decomposed.n < 2 * code84.n


def test_cascade_spc3_same_as_fs():
    lam = [0.3, -0.2, 0.9]
    a = build_fs_lp(spc3(), lam)
    b = build_cascade_lp(spc3(), lam)
    assert a.lp.num_vars == b.lp.num_vars == 3
    assert len(a.lp.rows) == len(b.lp.rows) == 4


def test_cascade_aux_count(code84):
    form = build_cascade_lp(code84, np.zeros(8))
    assert form.lp.num_vars == 12  # one auxiliary per degree-4 row


def test_parity_relax_codeword_feasible():
    code = spc3()
    form = build_parity_relax_lp(code, np.zeros(3))
    # x = (1,1,0) -> z = 1
    assert form.lp.num_vars == 4
    row = form.lp.rows[0]
    act = sum(v * x for (j, v), x in zip(row.coeffs, [1.0, 1.0, 0.0, 1.0]))
    assert act == pytest.approx(0.0)


def test_parity_relax_weaker_than_ml(code84):
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam = rng.standard_normal(8)
        sol = solve(build_parity_relax_lp(code84, lam).lp)
        _, mlv = ml_bruteforce(code84, lam)
        assert sol.value <= mlv + 1e-9


def test_codewords_extend_to_all_formulations(code84):
    words = enumerate_codewords(code84)
    for kind in all_formulation_kinds() + ("parity_relax",):
        form = build_formulation(code84, kind, np.zeros(8))
        base = solve(form.lp)
        assert base.optimal
        for w in words:
            pinned = add_rows_resolve(
                base, [([(j, 1.0)], "=", float(w[j])) for j in range(8)])
            assert pinned.optimal, (kind, w)


def test_integral_points_of_fs_polytope_are_codewords():
    rng = np.random.default_rng(9)
    code = random_sparse_code(rng, 8, 4)
    for bits in itertools.product((0, 1), repeat=8):
        x = np.array(bits, dtype=float)
        feasible = all(
            most_violated_fs_cut(code.H.row_support(i), x) is None
            for i in range(code.m) if code.H.row_support(i))
        is_cw = not syndrome(code.H, np.array(bits, dtype=np.uint8)).any()
        assert feasible == is_cw


def test_formulation_equivalence_random():
    rng = np.random.default_rng(10)
    for _ in range(8):
        code = random_sparse_code(rng, int(rng.integers(6, 13)), 4)
        for _ in range(2):
            lam = rng.standard_normal(code.n)
            values = [solve(build_formulation(code, kind, lam).lp).value
                      for kind in all_formulation_kinds()]
            assert max(values) - min(values) < 1e-6, (code.H.rows, lam, values)


def test_edge_lp_matches_config_lp():
    rng = np.random.default_rng(12)
    for _ in range(10):
        code = random_sparse_code(rng, 7, 3)
        lam = rng.standard_normal(7)
        a = solve(build_config_lp(code, lam).lp).value
        b = solve(build_edge_lp(code, lam).lp).value
        assert a == pytest.approx(b, abs=1e-7)


def test_degree_guard():
    wide = LinearCode(BinaryMatrix(30, ((1 << 30) - 1,)))
    for builder in (build_fs_lp, build_config_lp, build_edge_lp):
        with pytest.raises(ValueError):
            builder(wide, np.zeros(30))
    # cascade and count are the sanctioned dense paths
    build_cascade_lp(wide, np.zeros(30))
    build_count_lp(wide, np.zeros(30))


# -- separation ------------------------------------------------------------------


def exhaustive_most_violated(support, x):
    best, best_v = None, 0.0
    for r in range(1, len(support) + 1, 2):
        for subset in itertools.combinations(support, r):
            ineq = FsInequality(tuple(support), subset)
            v = ineq.violation(x)
            if v > best_v:
                best, best_v = ineq, v
    return best, best_v


def test_most_violated_integral_satisfying():
    assert most_violated_fs_cut((0, 1, 2), np.array([1.0, 1.0, 0.0])) is None


def test_most_violated_example():
    cut = most_violated_fs_cut((0, 1, 2), np.array([1.0, 1.0, 0.4]))
    assert cut is not None
    assert cut.odd_subset == (0, 1, 2)
    assert cut.violation([1.0, 1.0, 0.4]) == pytest.approx(0.4)


def test_most_violated_half_point():
    assert most_violated_fs_cut((0, 1, 2), np.array([0.5, 0.5, 0.5])) is None


@given(st.integers(2, 7), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_most_violated_matches_exhaustive(deg, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(deg)
    support = tuple(range(deg))
    got = most_violated_fs_cut(support, x, tol=1e-12)
    want, want_v = exhaustive_most_violated(support, x)
    if want is None or want_v <= 1e-12:
        assert got is None or got.violation(x) <= 1e-9
    else:
        assert got is not None
        assert got.violation(x) == pytest.approx(want_v, abs=1e-9)


def test_rpc_from_rows(code84):
    assert rpc_from_rows(code84.H, (0,)) == code84.H.row_support(0)
    assert rpc_from_rows(code84.H, (0, 1)) == (2, 3, 4, 5)
    with pytest.raises(ValueError):
        rpc_from_rows(code84.H, (0, 0))
    with pytest.raises(ValueError):
        rpc_from_rows(code84.H, ())


def test_cycle_search_integral_empty(code84):
    assert rpc_cycle_cut_search(code84.H, np.zeros(8)) == []


def test_cycle_search_tree_pruned_empty():
    # two checks share one variable: pruned graph has no cycle
    h = BinaryMatrix(5, (pack_bits([1, 1, 1, 0, 0]), pack_bits([0, 0, 1, 1, 1])))
    x = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    assert rpc_cycle_cut_search(h, x, rng_seed=3) == []


def test_adaptation_integral_empty(code84):
    assert matrix_adaptation_cut_search(code84.H, np.ones(8)) == []


def _hamming_fractional(hamming):
    rng = np.random.default_rng(77)
    from mpdec.decoders import DecodeStatus, lp_decode
    for _ in range(400):
        lam = rng.standard_normal(7)
        res = lp_decode(hamming, lam)
        if res.status is DecodeStatus.FRACTIONAL_FAILURE:
            return lam, res.point
    raise AssertionError("expected a fractional instance")


def test_adaptation_finds_cut_on_hamming(hamming):
    lam, x = _hamming_fractional(hamming)
    # oracle: some dual codeword has a violated forbidden-set inequality
    dual_words = []
    for bits in itertools.product((0, 1), repeat=3):
        word = 0
        for i, b in enumerate(bits):
            if b:
                word ^= hamming.H.rows[i]
        if word:
            dual_words.append(tuple(j for j in range(7) if (word >> j) & 1))
    oracle_has_cut = any(
        most_violated_fs_cut(sup, x) is not None for sup in dual_words)
    assert oracle_has_cut
    cuts = matrix_adaptation_cut_search(hamming.H, x)
    assert cuts
    words = enumerate_codewords(hamming)
    for cut in cuts:
        assert cut.violation(x) > 1e-6
        for w in words:
            assert cut.violation(w) <= 1e-12


def test_cycle_search_finds_violated_rpc_when_one_exists(code84):
    rng = np.random.default_rng(13)
    from mpdec.decoders import DecodeStatus, lp_decode
    found_any = False
    for _ in range(300):
        lam = rng.standard_normal(8)
        res = lp_decode(code84, lam)
        if res.status is not DecodeStatus.FRACTIONAL_FAILURE:
            continue
        x = res.point
        pair_cut_exists = False
        for pair in itertools.combinations(range(4), 2):
            try:
                sup = rpc_from_rows(code84.H, pair)
            except ValueError:
                continue
            if most_violated_fs_cut(sup, x) is not None:
                pair_cut_exists = True
        if not pair_cut_exists:
            continue
        cuts = rpc_cycle_cut_search(code84.H, x, rng_seed=5, max_tries=200)
        if cuts:
            found_any = True
            words = enumerate_codewords(code84)
            for cut in cuts:
                assert cut.violation(x) > 1e-6
                for w in words:
                    assert cut.violation(w) <= 1e-12
            break
    assert found_any


def test_lonely_fractional_helper():
    sups = [(0, 1, 2)]
    assert has_lonely_fractional_neighbor(sups, [0.5, 1.0, 0.0])
    assert not has_lonely_fractional_neighbor(sups, [0.5, 0.5, 0.0])
    assert not has_lonely_fractional_neighbor(sups, [1.0, 1.0, 0.0])


def test_row_fs_cuts_integral_noncodeword(code84):
    # integral non-codeword: the violated check yields its parity cut
    x = np.zeros(8)
    x[0] = 1.0
    cuts = row_fs_cuts(code84.H, x)
    assert len(cuts) == 3  # variable 0 sits in three checks
    for cut in cuts:
        assert cut.violation(x) > 0.5


_FRESH = {"fs": build_fs_lp, "config": build_config_lp, "count": build_count_lp,
          "cascade": build_cascade_lp, "edge": build_edge_lp,
          "parity_relax": build_parity_relax_lp}


@pytest.mark.parametrize("kind", sorted(_FRESH))
def test_cached_build_equals_fresh_build(kind, code84):
    code = LinearCode(code84.H)  # a code of its own, so the cache starts empty
    rng = np.random.default_rng(95)
    first = build_formulation(code, kind, rng.standard_normal(8))
    lam = rng.standard_normal(8)
    cached = build_formulation(code, kind, lam)
    fresh = _FRESH[kind](code84, lam)
    assert cached.lp.rows is first.lp.rows and cached.lp.block is first.lp.block
    assert cached.row_tags == fresh.row_tags
    assert cached.lp == fresh.lp  # rows, padded objective, box
    assert cached.lp.objective[8:] == (0.0,) * (cached.lp.num_vars - 8)
    for name, arr in cached.lp.block._asdict().items():
        assert np.array_equal(arr, getattr(fresh.lp.block, name)), name
    assert solve(cached.lp).value == pytest.approx(solve(fresh.lp).value, abs=1e-9)


def test_cached_objectives_do_not_bleed(code84):
    code = LinearCode(code84.H)
    rng = np.random.default_rng(96)
    lams = [rng.standard_normal(8) for _ in range(4)]
    forms = [build_formulation(code, "fs", lam) for lam in lams]
    sols = [solve(f.lp) for f in forms]
    for lam, form, sol in zip(lams, forms, sols):
        assert form.lp.objective == tuple(lam)
        again = solve(build_fs_lp(code84, lam).lp)
        assert sol.value == again.value and np.array_equal(sol.x, again.x)
    # warm re-solves write only into their clones
    add_rows_resolve(sols[0], [(((0, 1.0),), "<=", 0.5)])
    assert np.array_equal(forms[1].lp.block.a, build_fs_lp(code84, lams[1]).lp.block.a)
    with pytest.raises(ValueError):
        build_formulation(code, "fs", np.zeros(7))


def test_decoding_code_a_then_b_then_a(code84, hamming):
    from mpdec.decoders import branch_and_bound_decode, lp_decode
    a, b = LinearCode(code84.H), LinearCode(hamming.H)
    rng = np.random.default_rng(97)
    lam_a, lam_b = rng.standard_normal(8), rng.standard_normal(7)

    def run(code, lam):
        return [(r.status, r.value, r.point.tolist()) for r in
                (lp_decode(code, lam), lp_decode(code, lam, "edge"),
                 branch_and_bound_decode(code, lam))]

    first = run(a, lam_a)
    other = run(b, lam_b)
    assert run(a, lam_a) == first
    assert run(b, lam_b) == other
    assert a.lp_cache["fs"] is not b.lp_cache["fs"]
    assert len(a.lp_cache["fs"].lp.rows) == 32 and len(b.lp_cache["fs"].lp.rows) == 24


# -- batch separation -------------------------------------------------------------

# exact halves and pairs at equal distance from 1/2 exercise the toggle tie rule
_X_ENTRY = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.75, 0.4, 0.6]),
                     st.floats(0.0, 1.0))


@given(st.lists(st.lists(_X_ENTRY, min_size=1, max_size=8), min_size=1, max_size=6),
       st.sampled_from([CUT_TOL, 0.0]), st.data())
@settings(max_examples=300, deadline=None)
def test_batch_separation_is_maximal_and_matches_reference(rows, tol, data):
    x = np.array([v for row in rows for v in row])
    perm = data.draw(st.permutations(range(len(x))))
    supports, start = [], 0
    for row in rows:
        supports.append(sorted(perm[start:start + len(row)]))
        start += len(row)
    width = max(map(len, supports))
    cols = np.array([s + [len(x)] * (width - len(s)) for s in supports])
    cuts = separate_fs_cuts(cols, cols < len(x), x, tol, checks=range(len(rows)))
    assert [c.check for c in cuts] == sorted(c.check for c in cuts)
    by_row = {c.check: c for c in cuts}
    for r, support in enumerate(supports):
        got = by_row.get(r)
        assert got == reference_most_violated_fs_cut(support, x, tol)
        assert got == most_violated_fs_cut(support, x, tol)
        best = max(ineq.violation(x) for ineq in fs_inequalities(support))
        if got is None:
            assert best <= tol + 1e-12
        else:
            assert got.violation(x) > tol
            assert got.violation(x) == pytest.approx(best, abs=1e-12)


def _fractional_points(code, rng, count):
    from mpdec.decoders import DecodeStatus, lp_decode
    points = []
    while len(points) < count:
        res = lp_decode(code, rng.standard_normal(code.n) + 0.5)
        if res.status is DecodeStatus.FRACTIONAL_FAILURE:
            points.append(res.point)
    return points


def test_cut_searches_match_reference(code84, monkeypatch):
    rng = np.random.default_rng(98)
    cases = [(code84, x) for x in _fractional_points(code84, rng, 10)]
    code = random_sparse_code(rng, 12, 7)
    cases += [(code, x) for x in _fractional_points(code, rng, 10)]
    cases += [(code84, rng.random(8)), (code84, rng.integers(0, 2, 8) / 2.0)]

    def run():
        return [(row_fs_cuts(c.H, x), [cut.check for cut in row_fs_cuts(c.H, x)],
                 matrix_adaptation_cut_search(c.H, x),
                 rpc_cycle_cut_search(c.H, x, rng_seed=t))
                for t, (c, x) in enumerate(cases)]

    got = run()
    monkeypatch.setattr(formulations, "_separate_words", reference_separate_words)
    assert got == [(reference_row_fs_cuts(c.H, x),
                    [cut.check for cut in reference_row_fs_cuts(c.H, x)],
                    matrix_adaptation_cut_search(c.H, x),
                    rpc_cycle_cut_search(c.H, x, rng_seed=t))
                   for t, (c, x) in enumerate(cases)]
    assert any(g[2] for g in got) and any(g[3] for g in got)


def test_batch_separation_sums_in_support_order():
    # 0.8 + 0.9 + 0.7 - 0.4 - 2 is 4.4e-16 summed left to right and 0.0
    # right to left: at tol=0 the cut exists only in support order, as it
    # did for the per-support routine
    x = np.array([0.8, 0.9, 0.7, 0.4])
    want = reference_most_violated_fs_cut((0, 1, 2, 3), x, tol=0.0)
    assert want is not None and want.odd_subset == (0, 1, 2)
    assert most_violated_fs_cut((3, 1, 0, 2), x, tol=0.0) == want
    cuts = row_fs_cuts(BinaryMatrix(4, (0, 0b1111)), x, tol=0.0)
    assert cuts == [want] and cuts[0].check == 1
