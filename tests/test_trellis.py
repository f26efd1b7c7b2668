"""Trellises, Viterbi, the turbo flow LP, and its Lagrangian dual."""

import hashlib

import numpy as np
import pytest

from mpdec.decoders import DecodeStatus
from mpdec.simplex import COST_TOL, solve
from mpdec.trellis import (FsmSpec, TurboSpec, accumulator_fsm, build_trellis,
                           build_turbo_lp, encode_turbo, four_state_fsm,
                           fsm_to_text, parse_fsm_text, trellis_flow_lp,
                           turbo_lagrangian_decode, turbo_lp_decode,
                           turbo_ml_bruteforce, viterbi)

from conftest import update_lp_digest


def brute_force_paths(trellis, costs):
    best = None

    def rec(level, state, cost, path):
        nonlocal best
        if level == trellis.k:
            cand = (cost, tuple(path))
            if best is None or cand < best:
                best = cand
            return
        for e in trellis.segments[level]:
            if e.frm == state:
                rec(level + 1, e.to, cost + costs[e.edge_id], path + [e.edge_id])

    rec(0, trellis.segments[0][0].frm, 0.0, [])
    return best[1], best[0]


def test_fsm_validation():
    with pytest.raises(ValueError):
        FsmSpec(2, ((0, 0, 0, (0,)),))  # not total
    with pytest.raises(ValueError):
        FsmSpec(2, ((0, 0, 0, (0,)), (0, 0, 1, (1,)),
                    (1, 0, 1, (1,)), (1, 1, 0, (0,))))  # duplicate


def test_fsm_text_roundtrip():
    for fsm in (accumulator_fsm(), four_state_fsm()):
        again = parse_fsm_text(fsm_to_text(fsm))
        assert again == fsm


def test_fsm_text_parse_error():
    with pytest.raises(ValueError):
        parse_fsm_text("0 0 -> 0 0\n")


def test_accumulator_trellis_shape():
    t = build_trellis(accumulator_fsm(), 4)
    assert [len(s) for s in t.segments] == [2, 4, 4, 2]
    assert t.segments[0][0].frm == 0
    assert all(e.to == 0 for e in t.segments[-1])


def test_trellis_k1():
    t = build_trellis(accumulator_fsm(), 1)
    assert len(t.segments) == 1
    assert all(e.frm == 0 and e.to == 0 for e in t.segments[0])


def test_four_state_interior_edges():
    t = build_trellis(four_state_fsm(), 8)
    assert max(len(s) for s in t.segments) == 8


def test_trellis_unreachable_terminal_raises():
    # a machine stuck in state 1 once it leaves state 0
    fsm = FsmSpec(2, ((0, 0, 1, (0,)), (0, 1, 1, (1,)),
                      (1, 0, 1, (0,)), (1, 1, 1, (1,))))
    with pytest.raises(ValueError):
        build_trellis(fsm, 3)


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(1)
    t = build_trellis(four_state_fsm(), 7)
    for _ in range(30):
        costs = rng.standard_normal(t.num_edges)
        path, cost = viterbi(t, costs)
        bpath, bcost = brute_force_paths(t, costs)
        assert path == bpath
        assert cost == pytest.approx(bcost, abs=1e-12)


def test_viterbi_all_zero_bias():
    t = build_trellis(accumulator_fsm(), 5)
    costs = np.zeros(t.num_edges)
    for e in t.edges():
        costs[e.edge_id] = 1.0 if (e.input_bit or e.output_bits[0]) else 0.0
    path, cost = viterbi(t, costs)
    assert cost == 0.0
    by_id = {e.edge_id: e for e in t.edges()}
    assert all(by_id[eid].input_bit == 0 for eid in path)


def test_viterbi_tie_smallest_edge_ids():
    t = build_trellis(accumulator_fsm(), 3)
    path, cost = viterbi(t, np.zeros(t.num_edges))
    others = [p for p in [brute_force_paths(t, np.zeros(t.num_edges))[0]]]
    assert cost == 0.0
    # with all-zero costs every path ties; the smallest id sequence wins
    all_paths = []

    def rec(level, state, path):
        if level == t.k:
            all_paths.append(tuple(path))
            return
        for e in t.segments[level]:
            if e.frm == state:
                rec(level + 1, e.to, path + [e.edge_id])

    rec(0, 0, [])
    assert path == min(all_paths)


def test_single_trellis_lp_integral_equals_viterbi():
    rng = np.random.default_rng(2)
    t = build_trellis(four_state_fsm(), 6)
    for _ in range(25):
        costs = rng.standard_normal(t.num_edges)
        sol = solve(trellis_flow_lp(t, costs))
        _, vcost = viterbi(t, costs)
        assert sol.optimal
        assert sol.value == pytest.approx(vcost, abs=1e-7)
        assert np.all(np.abs(sol.x - np.round(sol.x)) < 1e-6)


def make_spec(rng, k, fsm=None):
    pi = tuple(int(v) for v in rng.permutation(k))
    return TurboSpec(fsm or accumulator_fsm(), pi, k)


def test_turbo_spec_validation():
    with pytest.raises(ValueError):
        TurboSpec(accumulator_fsm(), (0, 0, 1), 3)


def test_encode_turbo_termination():
    rng = np.random.default_rng(3)
    spec = make_spec(rng, 6)
    valid = [w for w in range(64)
             if encode_turbo(spec, [(w >> j) & 1 for j in range(6)]) is not None]
    assert len(valid) == 32  # even-weight words for the accumulator


def test_turbo_codewords_feasible_in_lp():
    rng = np.random.default_rng(4)
    spec = make_spec(rng, 5)
    lam = rng.standard_normal(15)
    lp, _ = build_turbo_lp(spec, lam)
    from mpdec.simplex import add_rows_resolve
    base = solve(lp)
    count = 0
    for w in range(32):
        x = encode_turbo(spec, [(w >> j) & 1 for j in range(5)])
        if x is None:
            continue
        rows = [([(j, 1.0)], "=", float(x[j])) for j in range(15)]
        assert add_rows_resolve(base, rows).optimal
        count += 1
    assert count == 16


def test_turbo_identity_interleaver_symmetry():
    spec = TurboSpec(accumulator_fsm(), tuple(range(6)), 6)
    rng = np.random.default_rng(5)
    lam = np.concatenate([rng.standard_normal(6), np.full(6, 0.3), np.full(6, 0.3)])
    lp, (ta, tb, col_a, col_b) = build_turbo_lp(spec, lam)
    assert ta is tb  # one trellis serves both encoders
    sol = solve(lp)
    fa = np.array([sol.x[col_a[e.edge_id]] for e in ta.edges()])
    fb = np.array([sol.x[col_b[e.edge_id]] for e in tb.edges()])
    assert np.allclose(fa, fb, atol=1e-7)


def test_turbo_flow_conservation_at_optimum():
    rng = np.random.default_rng(6)
    spec = make_spec(rng, 6)
    lam = rng.standard_normal(18)
    lp, (ta, tb, col_a, col_b) = build_turbo_lp(spec, lam)
    sol = solve(lp)
    for trellis, cmap in ((ta, col_a), (tb, col_b)):
        for t in range(trellis.k - 1):
            flows_in = {}
            flows_out = {}
            for e in trellis.segments[t]:
                flows_in[e.to] = flows_in.get(e.to, 0.0) + sol.x[cmap[e.edge_id]]
            for e in trellis.segments[t + 1]:
                flows_out[e.frm] = flows_out.get(e.frm, 0.0) + sol.x[cmap[e.edge_id]]
            for s in flows_in:
                assert flows_in[s] == pytest.approx(flows_out.get(s, 0.0), abs=1e-9)


def test_turbo_lp_noiseless():
    rng = np.random.default_rng(7)
    spec = make_spec(rng, 6)
    u = np.array([1, 1, 0, 1, 1, 0], dtype=np.uint8)
    x = encode_turbo(spec, u)
    assert x is not None
    res = turbo_lp_decode(spec, 1.0 - 2.0 * x.astype(float))
    assert res.status is DecodeStatus.ML_CERTIFIED
    assert np.array_equal(res.point, x)


def test_turbo_lp_relaxation_bound_exhaustive_grid():
    spec = TurboSpec(accumulator_fsm(), (1, 0), 2)
    import itertools
    for lam in itertools.product((-1.0, 1.0), repeat=6):
        lam = np.array(lam)
        res = turbo_lp_decode(spec, lam)
        _, mlv = turbo_ml_bruteforce(spec, lam)
        assert res.value <= mlv + 1e-9


def test_turbo_lp_certificates_match_exhaustive_ml():
    rng = np.random.default_rng(8)
    for trial in range(40):
        k = int(rng.integers(4, 9))
        spec = make_spec(rng, k)
        lam = rng.standard_normal(3 * k)
        res = turbo_lp_decode(spec, lam)
        xml, vml = turbo_ml_bruteforce(spec, lam)
        assert res.value <= vml + 1e-7
        if res.status is DecodeStatus.ML_CERTIFIED:
            assert np.array_equal(res.point, xml)
            assert res.value == pytest.approx(vml, abs=1e-7)


def test_turbo_lp_certified_value_is_exact_codeword_cost():
    # the LP value of an integral flow can differ from llr @ codeword in the
    # last bits; a certificate reports the codeword's exact cost
    rng = np.random.default_rng(9)
    certified = 0
    for _ in range(60):
        spec = make_spec(rng, 8, four_state_fsm())
        lam = rng.standard_normal(24)
        res = turbo_lp_decode(spec, lam)
        if res.status is DecodeStatus.ML_CERTIFIED:
            certified += 1
            assert res.value == float(lam @ res.point)
            assert res.stats.lp_solves == 1 and res.stats.pivots > 0
    assert certified > 0


def test_turbo_ml_bruteforce_keeps_smallest_tied_codeword():
    # +-1 LLRs tie often; like ml_bruteforce, the oracle keeps the
    # lexicographically smallest codeword within COST_TOL of the best cost
    spec = TurboSpec(accumulator_fsm(), (1, 0, 3, 2), 4)
    lam = np.array([1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1], dtype=float)
    x, v = turbo_ml_bruteforce(spec, lam)
    assert "".join(map(str, x)) == "010101101100" and v == float(lam @ x)
    rng = np.random.default_rng(12)
    for _ in range(200):
        spec = make_spec(rng, 4)
        lam = rng.choice((-1.0, 1.0), 12)
        words = [encode_turbo(spec, [(w >> j) & 1 for j in range(4)]) for w in range(16)]
        words = [w for w in words if w is not None]
        low = min(float(lam @ w) for w in words)
        want = min(tuple(w) for w in words if float(lam @ w) <= low + COST_TOL)
        x, v = turbo_ml_bruteforce(spec, lam)
        assert tuple(x) == want and v == float(lam @ x)


def test_lagrangian_first_iteration_is_plain_viterbi():
    rng = np.random.default_rng(9)
    spec = make_spec(rng, 6)
    k = 6
    lam = rng.standard_normal(18)
    lam_s, lam_a, lam_b = lam[:6], lam[6:12], lam[12:]
    ta = build_trellis(spec.fsm, k)
    tb = build_trellis(spec.fsm, k)
    ca = np.zeros(ta.num_edges)
    cb = np.zeros(tb.num_edges)
    for t in range(k):
        for e in ta.segments[t]:
            ca[e.edge_id] = lam_a[t] * e.output_bits[0] + lam_s[t] * e.input_bit
        for e in tb.segments[t]:
            cb[e.edge_id] = lam_b[t] * e.output_bits[0]
    _, va = viterbi(ta, ca)
    _, vb = viterbi(tb, cb)
    lb, _ = turbo_lagrangian_decode(spec, lam, max_iterations=1)
    assert lb == pytest.approx(va + vb, abs=1e-12)


def test_lagrangian_weak_duality_and_recovery():
    rng = np.random.default_rng(10)
    for _ in range(25):
        k = int(rng.integers(4, 8))
        spec = make_spec(rng, k)
        lam = rng.standard_normal(3 * k)
        res = turbo_lp_decode(spec, lam)
        lb, cw = turbo_lagrangian_decode(spec, lam, max_iterations=30)
        assert lb <= res.value + 1e-6
        if cw is not None:
            assert encode_turbo(spec, cw[:k]) is not None
            _, vml = turbo_ml_bruteforce(spec, lam)
            assert lam @ cw >= vml - 1e-9


def test_lagrangian_noiseless_recovers_codeword():
    rng = np.random.default_rng(11)
    spec = make_spec(rng, 6)
    u = np.array([1, 0, 1, 0, 1, 1], dtype=np.uint8)
    x = encode_turbo(spec, u)
    assert x is not None
    lb, cw = turbo_lagrangian_decode(spec, 1.0 - 2.0 * x.astype(float),
                                     max_iterations=5)
    assert cw is not None and np.array_equal(cw, x)


# The flow LP, the turbo LP and the Lagrangian's output, pinned as sha256
# digests on seeded accumulator and four-state specs: the LPs through
# `update_lp_digest`, the Lagrangian's output as its repr.
_FLOW_DIGEST = "9606c3a91c776d39eebaa00d2a69ed9b85e7c9236dbf0f04a6a358dd3434cb48"
_TURBO_DIGEST = "91f82ea829df9114569973b52c1cc3338b1b06140d53fb147ec7f35e531c8358"
_LAGRANGIAN_DIGEST = "1b2511eb3bc5c2f7a8648ac444195cfb7dbe5e008b2db009fc6d2054c6680f67"


def _digest(parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _pinned_specs(seed):
    rng = np.random.default_rng(seed)
    for fsm in (accumulator_fsm(), four_state_fsm()):
        for k in (1, 2, 5, 8):
            yield make_spec(rng, k, fsm), rng.standard_normal(3 * k)


def test_flow_and_turbo_lps_are_pinned():
    rng = np.random.default_rng(30)
    flows, turbos = hashlib.sha256(), hashlib.sha256()
    for spec, lam in _pinned_specs(31):
        t = build_trellis(spec.fsm, spec.k)
        lp = trellis_flow_lp(t, rng.standard_normal(t.num_edges))
        flows.update(repr(lp.num_vars).encode())
        update_lp_digest(flows, lp)
        lp, (ta, tb, col_a, col_b) = build_turbo_lp(spec, lam)
        turbos.update(repr((lp.num_vars, ta, tb, col_a, col_b)).encode())
        update_lp_digest(turbos, lp)
    assert flows.hexdigest() == _FLOW_DIGEST
    assert turbos.hexdigest() == _TURBO_DIGEST


def test_lagrangian_output_is_pinned():
    out = []
    for frame in range(20):
        for spec, lam in _pinned_specs(100 + frame):
            lb, cw = turbo_lagrangian_decode(spec, lam)
            out.append((lb.hex(), None if cw is None else (cw.dtype.str, cw.tolist())))
    assert any(cw is not None for _, cw in out)
    assert _digest(out) == _LAGRANGIAN_DIGEST


# `turbo_ml_bruteforce`'s codewords on seeded accumulator and four-state specs.
_TURBO_ML_DIGEST = "9995e89d306c87d3f9b47ebb3a1aef57e27a231b8200f753f559edf9fc508607"


def test_turbo_oracle_is_pinned():
    rng = np.random.default_rng(41)
    out = []
    for fsm in (accumulator_fsm(), four_state_fsm()):
        for k in (3, 6, 10):
            for _ in range(4):
                spec = make_spec(rng, k, fsm)
                for lam in (rng.standard_normal(3 * k), rng.choice([-1.0, 1.0], 3 * k),
                            np.round(rng.normal(0.0, 1.5, 3 * k))):
                    x, v = turbo_ml_bruteforce(spec, lam)
                    assert abs(v - float(lam @ x)) <= 1e-9
                    out.append((k, np.asarray(x, dtype=np.uint8).tolist()))
    assert len(out) == 72
    assert _digest(out) == _TURBO_ML_DIGEST
