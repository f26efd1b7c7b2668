"""LP kernel: examples, vertex-enumeration oracle battery, resolves."""

import itertools
import math

import numpy as np
import pytest

import mpdec.simplex as simplex
from mpdec.simplex import (_AT_LOWER, _BASIC, _WARM_DUAL_TOL, COST_TOL, LpRow, LpSolverError,
                           LpStatus, Rows, _Engine, add_rows_resolve, dump_lp,
                           fix_variable_resolve, is_integral, make_problem, remove_rows,
                           solve)


def brute_force_lp(num_vars, c, rows, lo, hi):
    """Independent oracle: enumerate candidate vertices (subsets of rows at
    equality, remaining variables at bounds) and return the best value, or
    None when no feasible candidate exists."""
    n = num_vars
    m = len(rows)
    a = np.zeros((m, n))
    b = np.zeros(m)
    senses = []
    for i, (coeffs, sense, rhs) in enumerate(rows):
        for j, v in coeffs:
            a[i, j] = v
        b[i] = rhs
        senses.append(sense)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    best = None
    for r in range(0, min(m, n) + 1):
        for rows_idx in itertools.combinations(range(m), r):
            for free in itertools.combinations(range(n), r):
                others = [j for j in range(n) if j not in set(free)]
                for bits in itertools.product(*[(lo[j], hi[j]) for j in others]):
                    x = np.zeros(n)
                    for j, v in zip(others, bits):
                        x[j] = v
                    if r:
                        sq = a[np.ix_(rows_idx, free)]
                        rhs_eff = b[list(rows_idx)] - a[np.ix_(rows_idx, others)] @ x[others]
                        try:
                            x[list(free)] = np.linalg.solve(sq, rhs_eff)
                        except np.linalg.LinAlgError:
                            continue
                    if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
                        continue
                    act = a @ x
                    ok = all(
                        (s == "<=" and act[i] <= b[i] + 1e-9)
                        or (s == ">=" and act[i] >= b[i] - 1e-9)
                        or (s == "=" and abs(act[i] - b[i]) <= 1e-9)
                        for i, s in enumerate(senses))
                    if not ok:
                        continue
                    val = float(c @ x)
                    if best is None or val < best:
                        best = val
    return best


def random_row(rng, n):
    nz = int(rng.integers(1, n + 1))
    cols = sorted(rng.choice(n, size=nz, replace=False).tolist())
    coeffs = [(int(j), float(rng.integers(-3, 4)) or 1.0) for j in cols]
    sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
    rhs = float(rng.integers(-2, 3))
    return coeffs, sense, rhs


def random_lp(rng, n_max=5, m_max=4):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    c = rng.standard_normal(n).round(2)
    rows = [random_row(rng, n) for _ in range(m)]
    return n, c, rows, [0.0] * n, [1.0] * n


def random_lp_with_singletons(rng):
    """A small random_lp with one or two zero-cost columns appended, each
    with its one nonzero in a random row (a row may get both)."""
    n, c, rows, lo, hi = random_lp(rng, n_max=4, m_max=3)
    if not rows:
        rows = [([(0, 1.0)], ("<=", ">=")[int(rng.integers(0, 2))], 0.0)]
    rows = [(list(coeffs), sense, rhs) for coeffs, sense, rhs in rows]
    for _ in range(int(rng.integers(1, 3))):
        i = int(rng.integers(len(rows)))
        rows[i][0].append((n, float(rng.choice([-2.0, -1.0, 1.0, 2.0]))))
        lo, hi = lo + [float(rng.choice([-1.0, 0.0]))], hi + [float(rng.choice([0.5, 1.0]))]
        c, n = np.append(c, 0.0), n + 1
    return n, c, rows, lo, hi


def test_min_single_variable():
    sol = solve(make_problem(1, [1.0], []))
    assert sol.optimal and sol.value == 0.0 and sol.x[0] == 0.0


def test_simplex_vertex():
    sol = solve(make_problem(2, [-1.0, -1.0], [([(0, 1.0), (1, 1.0)], "<=", 1.0)]))
    assert sol.optimal
    assert sol.value == pytest.approx(-1.0, abs=1e-9)


def spc_fs_rows():
    rows = []
    for size in (1, 3):
        for subset in itertools.combinations(range(3), size):
            coeffs = [(j, 1.0 if j in subset else -1.0) for j in range(3)]
            rows.append((coeffs, "<=", float(size - 1)))
    return rows


def test_spc_polytope_optimum():
    sol = solve(make_problem(3, [-1.0, -1.0, 1.0], spc_fs_rows()))
    assert sol.value == pytest.approx(-2.0, abs=1e-9)
    assert np.allclose(sol.x, [1, 1, 0], atol=1e-9)


def test_oracle_battery(monkeypatch):
    # each LP also runs under a +-1 (BSC-style) objective, whose integer
    # data ties the dual ratio test exactly.  The LPs with zero-cost column
    # singletons have them crashed into the scratch basis, in rows of every
    # sense, some starting outside their bounds, so the dual simplex still
    # has to move them
    optimize = _Engine._optimize
    seen = dict(crashed=0, outside=0, senses=set())

    def crashed_start(engine):
        structural = engine.basis < engine.nstruct
        basic, x = engine.basis[structural], engine.x_basic[structural]
        seen["crashed"] += len(basic)
        seen["outside"] += int(((x < engine.lo[basic] - 1e-9)
                                | (x > engine.hi[basic] + 1e-9)).sum())
        return optimize(engine)

    monkeypatch.setattr(_Engine, "_optimize", crashed_start)
    rng = np.random.default_rng(17)
    signs = np.random.default_rng(18)
    crash_rng = np.random.default_rng(19)
    cases = []
    for _ in range(120):
        lp = random_lp(rng)
        cases.append((lp, signs.choice([-1.0, 1.0], size=lp[0])))
    for _ in range(80):
        lp = random_lp_with_singletons(crash_rng)
        # the appended columns keep their zero cost under the +-1 objective
        cases.append((lp, np.where(lp[1] == 0, 0.0, crash_rng.choice([-1.0, 1.0], size=lp[0]))))
    for (n, c, rows, lo, hi), plus_minus in cases:
        for cost in (c, plus_minus):
            before = seen["crashed"]
            sol = solve(make_problem(n, cost, rows, lo, hi))
            if seen["crashed"] > before:
                seen["senses"].update(sense for _, sense, _ in rows)
            expect = brute_force_lp(n, cost, rows, lo, hi)
            if expect is None:
                assert sol.status is LpStatus.INFEASIBLE
            else:
                assert sol.optimal
                assert sol.value == pytest.approx(expect, abs=1e-7)
    assert seen["crashed"] > 60 and seen["outside"] > 30
    assert seen["senses"] == {"<=", ">=", "="}


def test_oracle_battery_wide():
    # up to 12 variables with few rows
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(9, 13))
        c = rng.standard_normal(n).round(2)
        rows = []
        for _ in range(int(rng.integers(1, 3))):
            cols = sorted(rng.choice(n, size=3, replace=False).tolist())
            coeffs = [(int(j), float(rng.integers(-2, 3)) or 1.0) for j in cols]
            rows.append((coeffs, ("<=", ">=")[int(rng.integers(0, 2))],
                         float(rng.integers(-1, 3))))
        sol = solve(make_problem(n, c, rows, [0.0] * n, [1.0] * n))
        expect = brute_force_lp(n, c, rows, [0.0] * n, [1.0] * n)
        if expect is None:
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.optimal and sol.value == pytest.approx(expect, abs=1e-7)


def random_lp_with_planted_singletons(rng):
    """A small random_lp with a column singleton planted in most rows, of
    cost 0 or not.  Each planted column's range a_ij [lo_j, hi_j] either
    covers what the rest of its row needs over the box, exactly or with a
    margin of 0.5, so the row never binds it, or falls 0.5 short on one
    side, so it binds."""
    n, c, rows, lo, hi = random_lp(rng, n_max=4, m_max=3)
    rows = [(list(coeffs), sense, rhs) for coeffs, sense, rhs in rows]
    c = list(c)
    for coeffs, sense, rhs in rows:
        if rng.random() < 0.2:
            continue
        s_min = sum(min(v * lo[j], v * hi[j]) for j, v in coeffs)
        s_max = sum(max(v * lo[j], v * hi[j]) for j, v in coeffs)
        margin, width = float(rng.choice([0.0, 0.5])), float(rng.choice([0.5, 2.0]))
        short = 0.5 if rng.random() < 0.3 else 0.0
        if sense == ">=":
            z_max = rhs - s_min + margin - short
            z_min = z_max - width
        else:
            z_min = rhs - s_max - margin + short
            z_max = rhs - s_min + margin if sense == "=" else z_min + width
        a = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        coeffs.append((n, a))
        lo, hi = lo + [min(z_min / a, z_max / a)], hi + [max(z_min / a, z_max / a)]
        c.append(0.0 if rng.random() < 0.8 else round(float(rng.standard_normal()), 2) or 1.0)
        n += 1
    return n, np.array(c), rows, lo, hi


def loop_presolve(rows, lo, hi):
    """Reference: per row, its first column singleton j and whether a_ij x_j
    covers every activity the rest of the row takes over the box, as
    {row: (j, droppable)}."""
    uses = {}
    for i, (coeffs, _, _) in enumerate(rows):
        for j, _ in coeffs:
            uses.setdefault(j, []).append(i)
    out = {}
    for i, (coeffs, sense, rhs) in enumerate(rows):
        singles = sorted(j for j, _ in coeffs if uses[j] == [i])
        if not singles:
            continue
        j = singles[0]
        a = dict(coeffs)[j]
        s_min = sum(min(v * lo[k], v * hi[k]) for k, v in coeffs if k != j)
        s_max = sum(max(v * lo[k], v * hi[k]) for k, v in coeffs if k != j)
        z_min, z_max = min(a * lo[j], a * hi[j]), max(a * lo[j], a * hi[j])
        s_lo = -math.inf if sense == "<=" else rhs
        s_hi = math.inf if sense == ">=" else rhs
        out[i] = (j, s_max + z_min <= s_hi and s_min + z_max >= s_lo)
    return out


def test_oracle_battery_presolve():
    # planted column singletons, droppable and binding, at zero and nonzero
    # cost: the presolve drops exactly the rows the reference finds, the
    # engine leaves them out only when their columns cost 0, and every
    # solve matches the brute-force optimum at a point that meets every
    # row, the dropped ones included
    rng = np.random.default_rng(29)
    seen = dict(engine_drops=0, engine_keeps=0, binding=0, dropped_and_kept=0)
    for _ in range(100):
        n, c, rows, lo, hi = random_lp_with_planted_singletons(rng)
        plus_minus = np.where(c == 0, 0.0, rng.choice([-1.0, 1.0], size=n))
        ref = loop_presolve(rows, lo, hi)
        dropped = sorted((i, j) for i, (j, go) in ref.items() if go)
        seen["binding"] += sum(not go for _, go in ref.values())
        problem = make_problem(n, c, rows, lo, hi)
        p = problem.presolved
        if not dropped:
            assert p is None
        else:
            assert p.cols.tolist() == [j for _, j in dropped]
            assert len(p.kept) + len(p.dropped) == len(rows) == len(p.kept) + len(p.cols)
            seen["dropped_and_kept"] += 0 < len(p.kept)
        for cost in (c, plus_minus):
            sol = solve(problem.with_objective(cost))
            if dropped:
                drops = not cost[[j for _, j in dropped]].any()
                seen["engine_drops" if drops else "engine_keeps"] += 1
                assert sol.state.m == len(rows) - (len(dropped) if drops else 0)
            expect = brute_force_lp(n, cost, rows, lo, hi)
            if expect is None:
                assert sol.status is LpStatus.INFEASIBLE
                continue
            assert sol.optimal and sol.num_rows == len(rows)
            assert sol.value == pytest.approx(expect, abs=1e-7)
            assert sol.value == pytest.approx(float(cost @ sol.x), abs=1e-12)
            x = sol.x
            assert np.all(x >= np.array(lo) - 1e-9) and np.all(x <= np.array(hi) + 1e-9)
            for coeffs, sense, rhs in rows:
                act = sum(v * x[j] for j, v in coeffs)
                assert sense == ">=" or act <= rhs + 1e-9
                assert sense == "<=" or act >= rhs - 1e-9
    assert seen["engine_drops"] > 30 and seen["engine_keeps"] > 40
    assert seen["binding"] > 20 and seen["dropped_and_kept"] > 20


def meets_rows(x, rows, tol=1e-9):
    for coeffs, sense, rhs in rows:
        act = sum(v * x[j] for j, v in coeffs)
        if (sense != ">=" and act > rhs + tol) or (sense != "<=" and act < rhs - tol):
            return False
    return True


def random_pool_lp(rng):
    """Three to six rows over two to four [0, 1] columns, mostly inequalities,
    each met by a random point of the box but for about one in six, whose
    side is flipped."""
    n = int(rng.integers(2, 5))
    x0 = rng.uniform(0.0, 1.0, size=n).round(2)
    rows = []
    for _ in range(int(rng.integers(3, 7))):
        coeffs, _, _ = random_row(rng, n)
        act = sum(v * x0[j] for j, v in coeffs)
        sense = ("<=", ">=", "<=", ">=", "=")[int(rng.integers(0, 5))]
        slack = float(rng.uniform(0.0, 0.5)) * (-1.0 if rng.random() < 0.15 else 1.0)
        rhs = act if sense == "=" else act + slack if sense == "<=" else act - slack
        rows.append((coeffs, sense, round(float(rhs), 2)))
    return n, rng.standard_normal(n).round(2), rows, [0.0] * n, [1.0] * n


def test_oracle_battery_pool(monkeypatch):
    # with the pool's threshold at 2, every LP of three or more inequality
    # rows starts its engine from its equality rows alone and pulls the
    # rest: each solve, and each warm pin, added row and face from it, must
    # equal the LP solved with every row in the engine (and the brute-force
    # optimum), at a point that meets every row
    rng = np.random.default_rng(43)
    seen = dict(pooled=0, pulled=0, infeasible=0, edits=0)

    def whole(problem):
        monkeypatch.setattr(simplex, "_POOL_ROWS", 10 ** 9)
        sol = solve(problem)
        monkeypatch.setattr(simplex, "_POOL_ROWS", 2)
        return sol

    def same(warm, ref):
        assert warm.status is ref.status
        if ref.optimal:
            assert warm.value == pytest.approx(ref.value, abs=1e-9)
            seen["edits"] += 1

    monkeypatch.setattr(simplex, "_POOL_ROWS", 2)
    for _ in range(200):
        n, c, rows, lo, hi = random_pool_lp(rng)
        problem = make_problem(n, c, rows, lo, hi)
        sol, ref = solve(problem), whole(problem)
        engine = _Engine(problem)
        equalities = problem.row_lo == problem.row_hi
        assert ref.state.pool is None and ref.state.m == len(rows)
        if engine.pool is None:
            assert (~equalities).sum() <= 2
            continue
        seen["pooled"] += 1
        assert engine.m == equalities.sum() and len(engine.pool) == len(rows) - engine.m
        assert np.array_equal(engine.a, problem.rows.a[equalities])
        expect = brute_force_lp(n, c, rows, lo, hi)
        assert sol.status is ref.status
        if expect is None:
            assert sol.status is LpStatus.INFEASIBLE
            seen["infeasible"] += 1
            continue
        assert sol.optimal and sol.num_rows == len(rows)
        assert sol.value == pytest.approx(expect, abs=1e-7)
        assert sol.value == pytest.approx(ref.value, abs=1e-9)
        assert meets_rows(sol.x, rows)
        seen["pulled"] += sol.state.pulled.sum()
        j, v = int(rng.integers(n)), float(rng.integers(0, 2))
        pin_lo, pin_hi = list(lo), list(hi)
        pin_lo[j] = pin_hi[j] = v
        child = fix_variable_resolve(sol, j, v)
        assert child.state.pool is sol.state.pool
        same(child, whole(make_problem(n, c, rows, pin_lo, pin_hi)))
        if child.optimal:
            assert meets_rows(child.x, rows)
        more = random_rows(rng, n)
        same(add_rows_resolve(sol, more), whole(make_problem(n, c, rows + more, lo, hi)))
        i = int(rng.integers(len(rows)))
        if math.isfinite(problem.rows.hi[i]):
            face = (rows[i][0], ">=", rows[i][2])
            same(add_rows_resolve(sol, problem.rows.face(i)),
                 whole(make_problem(n, c, rows + [face], lo, hi)))
    assert seen["pooled"] > 120 and seen["pulled"] > 150
    assert seen["infeasible"] > 10 and seen["edits"] > 120


def test_pool_alone_can_make_an_lp_infeasible(monkeypatch):
    # each row can be met over the box, the two together cannot, and neither
    # is in the engine when the solve starts
    monkeypatch.setattr(simplex, "_POOL_ROWS", 1)
    problem = make_problem(2, [1.0, 1.0], [([(0, 1.0), (1, 1.0)], ">=", 1.5),
                                           ([(0, 1.0), (1, -1.0)], "<=", -0.75),
                                           ([(0, 1.0), (1, 1.0)], "<=", 1.0)])
    assert not problem.bad_bounds and _Engine(problem).m == 0
    assert solve(problem).status is LpStatus.INFEASIBLE
    # and a pin that leaves only pool rows to break does too
    loose = make_problem(2, [1.0, 1.0], [([(0, 1.0), (1, 1.0)], ">=", 0.5),
                                         ([(0, 1.0), (1, -1.0)], "<=", 0.5)])
    sol = solve(loose)
    assert sol.optimal and sol.state.m == sol.state.pulled.sum() == 1 and sol.num_rows == 2
    assert fix_variable_resolve(sol, (0, 1), (1.0, 0.0)).status is LpStatus.INFEASIBLE


def test_full_lp_n32_stays_whole():
    # the 192 rows of full_lp_n32's forbidden-set LP are under the pool's
    # threshold, so the engine takes every row and the pivots are as before
    # the pool; the n=60 code's 960 rows are pooled
    from mpdec.channels import Bsc, llr, transmit, trial_rng
    from mpdec.formulations import build_formulation
    from mpdec.gf2 import random_regular_ldpc
    code = random_regular_ldpc(32, 3, 4, 7)
    channel = Bsc(0.10)
    pivots = []
    for t in range(20):
        lam = llr(transmit(np.zeros(32, dtype=np.uint8), channel, trial_rng(3, 0, t)), channel)
        sol = solve(build_formulation(code, "fs", lam).lp)
        assert sol.state.pool is None and sol.state.m == sol.num_rows == 192
        pivots.append(sol.pivots)
    assert sum(pivots) == 325 and pivots[:4] == [23, 2, 30, 4]
    big = build_formulation(random_regular_ldpc(60, 3, 6, 2), "fs", np.ones(60)).lp
    sol = solve(big)
    assert len(sol.state.pool) == len(big.rows) == sol.num_rows == 960 > simplex._POOL_ROWS
    assert sol.state.m == sol.state.pulled.sum() == 0 and sol.value == 0.0


def test_parity_relax_root_is_crashed(monkeypatch):
    # the cuts_n120 code's checks have even degree, so z_i <= d_i / 2 never
    # binds and the presolve drops every parity row: the engine holds none
    # of them, the root takes no pivot, returns the hard decision and sets
    # each z_i from its row to H_i x / 2
    from mpdec.channels import Biawgn, llr, transmit, trial_rng
    from mpdec.formulations import build_formulation
    from mpdec.gf2 import random_regular_ldpc, spc_product_code

    def frames(code, sigma):
        channel = Biawgn(sigma)
        h = np.array([[(row >> j) & 1 for j in range(code.n)] for row in code.H.rows])
        for t in range(20):
            word = np.zeros(code.n, dtype=np.uint8)
            lam = llr(transmit(word, channel, trial_rng(3, 0, t)), channel)
            hard = (lam < 0).astype(float)
            yield solve(build_formulation(code, "parity_relax", lam).lp), hard, h @ hard

    for sol, hard, ones in frames(random_regular_ldpc(120, 3, 6, 620), 0.75):
        assert sol.optimal and sol.pivots == 0
        assert sol.state.m == 0 and sol.num_rows == 60
        assert np.array_equal(sol.x[:120], hard)
        assert np.array_equal(sol.x[120:], ones / 2)
    # spc:3,3's checks have degree 3, so z_i <= 1 binds and the rows stay.
    # The crash puts z_i in the basis for exactly the checks whose rows the
    # hard decision violates at z = 0 (those with a 1 in their support); with
    # no check holding three ones that is the basis the dual pivots reach,
    # so the root takes no pivot
    optimize, crashed = _Engine._optimize, []
    monkeypatch.setattr(_Engine, "_optimize", lambda engine: crashed.append(
        np.sort(engine.basis[engine.basis < engine.nstruct])) or optimize(engine))
    steady = 0
    for sol, hard, ones in frames(spc_product_code((3, 3)), 0.9):
        assert sol.state.m == sol.num_rows == 6
        assert np.array_equal(crashed.pop(), 9 + np.flatnonzero(ones))
        if ones.max() <= 2:
            steady += 1
            assert sol.optimal and sol.pivots == 0
            assert np.array_equal(sol.x[:9], hard)
            assert np.array_equal(sol.x[9:], ones / 2)
    assert steady >= 5


def test_dropped_rows_come_back_for_edits_that_touch_their_columns():
    # a pin on a dropped column, or an added row with a nonzero in one, first
    # appends the dropped rows back, logicals basic; each re-solve must match
    # the same LP with every row in the engine, warm and from scratch
    import copy
    from mpdec.formulations import build_formulation
    from mpdec.gf2 import random_regular_ldpc
    code = random_regular_ldpc(32, 3, 4, 7)
    h = np.array([[(row >> j) & 1 for j in range(32)] for row in code.H.rows], dtype=float)
    rng = np.random.default_rng(37)

    def in_full(problem):
        full = copy.copy(problem)
        full.presolved = None
        return full

    def check(child, ref, fresh, restored=True):
        assert child.status is ref.status is fresh.status
        assert (child.state.presolved is None) is restored
        assert child.state.m == ref.state.m - (0 if restored else 24)
        assert child.num_rows == ref.num_rows
        if child.optimal:  # a pin of z_i is always met, an added row may not be
            assert child.value == pytest.approx(ref.value, abs=1e-9)
            assert child.value == pytest.approx(fresh.value, abs=1e-9)
            assert np.allclose(h @ child.x[:32], 2 * child.x[32:], rtol=0, atol=1e-9)

    for _ in range(6):
        lam = rng.standard_normal(32)
        lp = build_formulation(code, "parity_relax", lam).lp
        sol, ref = solve(lp), solve(in_full(lp))
        assert sol.state.m == 0 and ref.state.m == 24 and sol.num_rows == 24
        assert sol.value == pytest.approx(ref.value, abs=1e-9)
        for _ in range(4):
            j, v = 32 + int(rng.integers(24)), float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            lower, upper = lp.lower.copy(), lp.upper.copy()
            lower[j] = upper[j] = v
            pinned = make_problem(lp.num_vars, lp.objective, lp.rows, lower, upper)
            child = fix_variable_resolve(sol, j, v)
            check(child, fix_variable_resolve(ref, j, v), solve(in_full(pinned)))
            i, k = int(rng.integers(32)), 32 + int(rng.integers(24))
            for row in (([(k, 1.0)], "<=", 0.5), ([(i, 1.0), (k, -1.0)], ">=", 0.0),
                        ([(i, 1.0)], "<=", 0.5)):
                grown = Rows.parse([row], lp.num_vars)
                rows = Rows(np.vstack([lp.rows.a, grown.a]), np.append(lp.rows.lo, grown.lo),
                            np.append(lp.rows.hi, grown.hi))
                fresh = solve(in_full(make_problem(lp.num_vars, lp.objective, rows,
                                                   lp.lower, lp.upper)))
                check(add_rows_resolve(sol, [row]), add_rows_resolve(ref, [row]), fresh,
                      restored=row[0][-1][0] >= 32)
        # the parent keeps its presolve through its children's edits
        assert sol.state.m == 0 and sol.state.presolved is not None


def test_feasibility_residuals():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n, c, rows, lo, hi = random_lp(rng)
        sol = solve(make_problem(n, c, rows, lo, hi))
        if not sol.optimal:
            continue
        x = sol.x
        assert np.all(x >= np.array(lo) - 1e-9)
        assert np.all(x <= np.array(hi) + 1e-9)
        for coeffs, sense, rhs in rows:
            act = sum(v * x[j] for j, v in coeffs)
            if sense == "<=":
                assert act <= rhs + 1e-9
            elif sense == ">=":
                assert act >= rhs - 1e-9
            else:
                assert act == pytest.approx(rhs, abs=1e-9)


def test_add_rows_implied_no_change():
    sol = solve(make_problem(2, [-1.0, 0.0], [([(0, 1.0)], "<=", 0.75)]))
    again = add_rows_resolve(sol, [([(0, 1.0)], "<=", 0.9)])
    assert again.value == pytest.approx(sol.value, abs=1e-9)


def test_add_rows_cutting_increases_value():
    sol = solve(make_problem(3, [-1.0, -1.0, 1.0], spc_fs_rows()))
    cut = add_rows_resolve(sol, [([(0, 1.0)], "<=", 0.5)])
    assert cut.value > sol.value + 1e-6


def test_add_rows_infeasible_pair():
    sol = solve(make_problem(2, [1.0, 1.0], []))
    bad = add_rows_resolve(sol, [([(0, 1.0)], "<=", 0.0), ([(0, 1.0)], ">=", 1.0)])
    assert bad.status is LpStatus.INFEASIBLE


def test_add_rows_monotone_sequence():
    rng = np.random.default_rng(41)
    sol = solve(make_problem(4, [-1.0, -0.5, -0.25, -2.0], []))
    prev = sol.value
    for _ in range(6):
        cols = sorted(rng.choice(4, size=2, replace=False).tolist())
        row = ([(int(j), 1.0) for j in cols], "<=", round(float(rng.random()), 3))
        sol = add_rows_resolve(sol, [row])
        if not sol.optimal:
            break
        assert sol.value >= prev - 1e-9
        prev = sol.value


def test_fix_variable_already_integral():
    sol = solve(make_problem(2, [1.0, -1.0], []))
    fixed = fix_variable_resolve(sol, 1, 1.0)
    assert fixed.value == pytest.approx(sol.value, abs=1e-9)


def test_fix_variable_children_bound_parent():
    rows = spc_fs_rows()
    sol = solve(make_problem(3, [-0.7, -1.3, 0.4], rows))
    for j in range(3):
        for v in (0.0, 1.0):
            child = fix_variable_resolve(sol, j, v)
            if child.optimal:
                assert child.value >= sol.value - 1e-9


def pin_three_ways(sol, js, vals):
    """One multi-bit pin, chained single pins, and the pins as "=" rows."""
    multi = fix_variable_resolve(sol, js, vals)
    chained = sol
    for j, v in zip(js, vals):
        if chained.optimal:
            chained = fix_variable_resolve(chained, j, v)
    rows = add_rows_resolve(sol, [([(j, 1.0)], "=", v) for j, v in zip(js, vals)])
    assert multi.status is chained.status is rows.status
    if multi.optimal:
        assert multi.value == pytest.approx(chained.value, abs=1e-9)
        assert multi.value == pytest.approx(rows.value, abs=1e-9)
        assert np.allclose(multi.x[list(js)], vals)
    return multi


def test_fix_variable_multi_bit_pin(code84):
    from mpdec.formulations import build_fs_lp
    rng = np.random.default_rng(61)
    for _ in range(30):
        sol = solve(build_fs_lp(code84, rng.standard_normal(8)).lp)
        k = int(rng.integers(2, 4))
        js = sorted(rng.choice(8, size=k, replace=False).tolist())
        vals = [float(v) for v in rng.integers(0, 2, size=k)]
        assert pin_three_ways(sol, js, vals).optimal
    # all three bits of one parity check at 1 is an odd pattern: infeasible
    sol = solve(make_problem(3, [-0.7, -1.3, 0.4], spc_fs_rows()))
    assert pin_three_ways(sol, (0, 1), (1.0, 1.0)).optimal
    assert pin_three_ways(sol, (0, 1, 2), (1.0, 1.0, 1.0)).status is LpStatus.INFEASIBLE
    with pytest.raises(ValueError):
        fix_variable_resolve(sol, (0, 1), (1.0,))
    with pytest.raises(ValueError):
        fix_variable_resolve(sol, (0, 0), (1.0, 0.0))


def test_pins_may_only_narrow():
    # the logicals' bounds are tightened over the box, so a pin outside it
    # solved another LP: on x0 + x1 <= 5 over [0, 1]^2, pinning x0 to 4 gave
    # INFEASIBLE (a fresh solve gives 4), and to -1 under cost (1, 1) gave 0
    # at (-1, 1) (the optimum is -1)
    row = [([(0, 1.0), (1, 1.0)], "<=", 5.0)]
    sol = solve(make_problem(2, [1.0, 1.0], row))
    for value in (4.0, -1.0):
        with pytest.raises(ValueError, match="not inside"):
            fix_variable_resolve(sol, 0, value)
    # a pinned bit may not be re-pinned to another value, also after add_rows
    pinned = fix_variable_resolve(sol, 0, 1.0)
    grown = add_rows_resolve(pinned, [([(1, 1.0)], ">=", 0.5)])
    for state in (pinned, grown):
        with pytest.raises(ValueError, match="not inside"):
            fix_variable_resolve(state, 0, 0.0)
        again = fix_variable_resolve(state, 0, 1.0)
        assert again.optimal and again.x[0] == 1.0
    assert fix_variable_resolve(grown, 1, 0.75).value == pytest.approx(1.75, abs=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_fix_variable_rejects_non_finite_value(value):
    sol = solve(make_problem(3, [-0.7, -1.3, 0.4], spc_fs_rows()))
    with pytest.raises(ValueError, match="bounds must be finite"):
        fix_variable_resolve(sol, 0, value)


def test_warm_start_inside_tolerance_is_repaired():
    # plant a nonbasic reduced cost on the wrong side by 5e-8: inside the warm
    # check's 1e-7, so there is no fallback, but it prices in at COST_TOL, so
    # the re-solve must move that column to its other bound and go on
    extra = [([(0, 1.0), (1, 1.0), (2, 1.0)], ">=", 0.0)]  # implied by the box
    for c in ([-0.7, -1.3, 0.4], [0.9, -0.2, -0.5], [-1.0, 1.0, -1.0]):
        sol = solve(make_problem(3, c, spc_fs_rows()))
        state = sol.state
        d = state._reduced_costs()
        j = int(np.flatnonzero(state.status != _BASIC)[0])
        side = 1.0 if state.status[j] == _AT_LOWER else -1.0
        state.c = state.c.copy()
        state.c[j] -= d[j] + side * 5e-8
        d = state._reduced_costs()
        assert state._prices_in(d, COST_TOL)[j] and not state._prices_in(d, _WARM_DUAL_TOL).any()
        again = add_rows_resolve(sol, extra)
        assert again.optimal and not again.warm_fallback
        assert not again.state._prices_in(again.state._reduced_costs(), COST_TOL).any()
        fresh = solve(make_problem(3, state.c[:3], spc_fs_rows() + extra))
        assert again.value == pytest.approx(fresh.value, abs=1e-12)


def scratch_start_reduced_costs(problem, monkeypatch):
    """The reduced costs of the basis `optimize_scratch` hands to the dual
    simplex, with that engine."""
    seen = []
    monkeypatch.setattr(_Engine, "_optimize",
                        lambda engine: seen.append(engine._reduced_costs()) or LpStatus.OPTIMAL)
    engine = _Engine(problem)
    engine.optimize_scratch()
    monkeypatch.undo()
    return seen[0], engine


def test_scratch_start_is_dual_feasible(code84, monkeypatch):
    # the slack basis with every structural at the bound its cost favours is
    # dual feasible by the check a warm start must pass; on a code's LP it
    # is the hard decision
    from mpdec.formulations import FORMULATIONS, build_formulation
    rng = np.random.default_rng(71)
    problems = []
    for _ in range(5):
        for llr in (rng.standard_normal(8), rng.choice([-1.0, 1.0], size=8)):
            problems += [(build_formulation(code84, kind, llr).lp, llr)
                         for kind in FORMULATIONS]
    for _ in range(40):
        n, c, rows, lo, hi = random_lp(rng)
        for cost in (c, rng.choice([-1.0, 1.0], size=n)):
            problems.append((make_problem(n, cost, rows, lo, hi), None))
    for problem, llr in problems:
        if problem.bad_bounds:
            continue
        d, engine = scratch_start_reduced_costs(problem, monkeypatch)
        assert not engine._prices_in(d, _WARM_DUAL_TOL).any()
        if llr is not None:
            assert np.array_equal(engine.values()[:8], (llr < 0).astype(float))


def test_warm_infeasible_verdict_is_refactored():
    # search decoders drop infeasible nodes, so the verdict must not rest on a
    # B^-1 carried through eta updates: it is confirmed on a fresh factorization
    sol = solve(make_problem(3, [-0.7, -1.3, 0.4], spc_fs_rows()))
    bad = fix_variable_resolve(sol, (0, 1, 2), (1.0, 1.0, 1.0))
    assert bad.status is LpStatus.INFEASIBLE and bad.refactors >= 1


def test_determinism():
    rng = np.random.default_rng(55)
    n, c, rows, lo, hi = random_lp(rng)
    p = make_problem(n, c, rows, lo, hi)
    a = solve(p)
    b = solve(p)
    assert a.status == b.status
    if a.optimal:
        assert a.value == b.value
        assert np.array_equal(a.x, b.x)


def test_is_integral():
    assert is_integral([0.0, 1.0, 1.0 - 1e-8])
    assert not is_integral([0.5, 1.0])


def test_bad_problems_rejected():
    with pytest.raises(ValueError):
        make_problem(1, [1.0], [], [0.0], [float("inf")])
    with pytest.raises(ValueError):
        make_problem(1, [1.0], [], [2.0], [1.0])
    with pytest.raises(ValueError):
        make_problem(2, [1.0, 1.0], [([(0, 1.0), (0, 2.0)], "<=", 1.0)])
    with pytest.raises(ValueError):
        make_problem(1, [1.0], [([(3, 1.0)], "<=", 1.0)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_objective_rejected(value):
    # a NaN cost solved to OPTIMAL with value nan, and the trellis flow LP of
    # NaN edge costs stopped inside numpy
    from mpdec.trellis import accumulator_fsm, build_trellis, trellis_flow_lp
    with pytest.raises(ValueError, match="objective must be finite"):
        make_problem(3, [value, 1.0, 1.0], [])
    with pytest.raises(ValueError, match="objective must be finite"):
        make_problem(3, [1.0, value, 1.0], spc_fs_rows())
    with pytest.raises(ValueError, match="objective must be finite"):
        make_problem(3, [1.0, 1.0, 1.0], spc_fs_rows()).with_objective([1.0, 1.0, value])
    with pytest.raises(ValueError, match="objective must be finite"):
        trellis_flow_lp(build_trellis(accumulator_fsm(), 4), [value] * 12)


def test_add_rows_requires_optimal_state():
    sol = solve(make_problem(1, [1.0], [([(0, 1.0)], ">=", 2.0)]))
    assert sol.status is LpStatus.INFEASIBLE
    with pytest.raises(ValueError):
        add_rows_resolve(sol, [([(0, 1.0)], "<=", 1.0)])


def test_dump_lp_deterministic():
    p = make_problem(2, [1.0, -2.0], [([(0, 1.0), (1, 1.0)], "<=", 1.5)])
    text = dump_lp(p)
    assert text == dump_lp(p)
    assert "minimize" in text and "subject to" in text and "bounds" in text
    assert "r0:" in text and "<= 1.5" in text


def test_zero_row_problem_bound_flips():
    sol = solve(make_problem(3, [-1.0, 2.0, -3.0], []))
    assert sol.optimal and np.allclose(sol.x, [1, 0, 1])
    assert sol.value == pytest.approx(-4.0, abs=1e-12)


def add_lp_rows(engine, rows):
    """Append LpRows to an engine, which takes rows as one block."""
    engine.add_rows(Rows.parse(rows, engine.nstruct))


def dense_basis(engine):
    """The basis matrix as columns of the explicit [A | -I]."""
    full = np.hstack([engine.a, -np.eye(engine.m)])
    return full[:, engine.basis]


def engine_with_basis(rng, m, n, k):
    """An engine over a random dense m x n problem whose basis holds k
    structural columns and the logicals of m - k random rows, shuffled."""
    rows = [([(j, float(v)) for j, v in enumerate(rng.standard_normal(n))], "<=", 1.0)
            for _ in range(m)]
    engine = _Engine(make_problem(n, rng.standard_normal(n), rows))
    structural = rng.choice(n, size=k, replace=False)
    logical = n + rng.choice(m, size=m - k, replace=False)
    engine.basis = rng.permutation(np.concatenate([structural, logical]))
    return engine


@pytest.mark.parametrize("k", [0, 3, 6])
def test_kernel_inverse_random_bases(k):
    # k = 0 is the slack basis, 0 < k < n a mixed one, k = n all structural
    rng = np.random.default_rng(80 + k)
    for _ in range(20):
        engine = engine_with_basis(rng, 9, 6, k)
        engine._refactor()
        assert np.allclose(engine.b_inv @ dense_basis(engine), np.eye(9), atol=1e-9)


def test_kernel_inverse_after_add_rows():
    rng = np.random.default_rng(91)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        rows = [([(j, float(v)) for j, v in enumerate(rng.integers(-2, 3, size=n))],
                 "<=", float(rng.integers(0, 3))) for _ in range(int(rng.integers(0, 5)))]
        sol = solve(make_problem(n, rng.standard_normal(n), rows))
        if not sol.optimal:
            continue
        engine = sol.state.clone()
        add_lp_rows(engine, [LpRow(tuple((j, float(v)) for j, v in
                                         enumerate(rng.integers(-2, 3, size=n)) if v),
                                   "<=", 1.0) for _ in range(3)])
        eye = np.eye(engine.m)
        assert np.allclose(engine.b_inv @ dense_basis(engine), eye, atol=1e-9)
        engine._refactor()
        assert np.allclose(engine.b_inv @ dense_basis(engine), eye, atol=1e-9)


def random_rows(rng, n):
    """One to three rows over n columns, drawn as `random_lp` draws its own."""
    return [random_row(rng, n) for _ in range(int(rng.integers(1, 4)))]


def test_remove_rows_whose_logicals_are_basic():
    # random small LPs, solved and grown by a warm add: removing the rows
    # whose logicals are basic, a random part of them first and then the
    # rest, keeps x and the value and leaves a B^-1 that inverts the smaller
    # basis, and the next warm add or pin equals a scratch solve of the
    # smaller LP; any other row is refused
    rng = np.random.default_rng(61)
    seen = dict(removed=0, kept=0, refused=0, edits=0)
    for _ in range(300):
        n, c, rows, lo, hi = random_lp(rng)
        sol = solve(make_problem(n, c, rows, lo, hi))
        if not sol.optimal:
            continue
        added = random_rows(rng, n)
        sol, rows = add_rows_resolve(sol, added), rows + added
        if not sol.optimal or sol.state.presolved is not None:
            continue
        state = sol.state
        basic = [i for i in range(state.m) if state.status[n + i] == _BASIC]
        tight = [i for i in range(state.m) if state.status[n + i] != _BASIC]
        for i in tight[:1]:
            with pytest.raises(ValueError):
                remove_rows(sol, basic + [i])
            seen["refused"] += 1
        with pytest.raises(ValueError):
            remove_rows(sol, [state.m])
        part = [i for i in basic if rng.random() < 0.5]
        kept, small = list(range(state.m)), sol
        before = {name: v.copy() for name, v in vars(state).items()
                  if isinstance(v, np.ndarray)}
        for gone in (part, [i for i in basic if i not in part]):
            small = remove_rows(small, [kept.index(i) for i in gone])
            kept = [i for i in kept if i not in gone]
            engine = small.state
            assert np.array_equal(small.x, sol.x) and small.value == sol.value
            assert np.array_equal(engine.a, state.a[kept])
            values = state.values()
            assert np.array_equal(engine.values(), np.append(values[:n], values[n:][kept]))
            assert np.allclose(engine.b_inv @ dense_basis(engine), np.eye(engine.m), atol=1e-9)
            reduced = [rows[i] for i in kept]
            assert solve(make_problem(n, c, reduced, lo, hi)).value == pytest.approx(
                sol.value, abs=1e-9)
            more = random_rows(rng, n)
            j, v = int(rng.integers(n)), float(rng.integers(0, 2))
            pin_lo, pin_hi = list(lo), list(hi)
            pin_lo[j] = pin_hi[j] = v
            for warm, scratch in ((add_rows_resolve(small, more),
                                   solve(make_problem(n, c, reduced + more, lo, hi))),
                                  (fix_variable_resolve(small, j, v),
                                   solve(make_problem(n, c, reduced, pin_lo, pin_hi)))):
                assert warm.status is scratch.status
                if scratch.optimal:
                    assert warm.value == pytest.approx(scratch.value, abs=1e-9)
                    seen["edits"] += 1
        # the state removal started from is as it was, after its children's
        # removals and re-solves
        assert state.m == len(rows)
        for name, v in before.items():
            assert getattr(state, name).tobytes() == v.tobytes(), name
        assert kept == tight
        seen["removed"] += len(basic)
        seen["kept"] += len(tight)
    assert seen["removed"] > 100 and seen["kept"] > 50
    assert seen["refused"] > 50 and seen["edits"] > 150


def test_remove_pulled_rows(monkeypatch):
    # pulled rows whose logicals are basic go back to the pool when removed:
    # num_rows still counts every row of the LP, and a warm pin from the
    # smaller engine, which may pull them again, equals a scratch solve and
    # counts each row once
    monkeypatch.setattr(simplex, "_POOL_ROWS", 2)
    rng = np.random.default_rng(67)
    seen = dict(removed=0, pins=0)
    for _ in range(300):
        n, c, rows, lo, hi = random_pool_lp(rng)
        sol = solve(make_problem(n, c, rows, lo, hi))
        if not sol.optimal or sol.state.pool is None:
            continue
        state = sol.state
        gone = [int(i) for i in np.flatnonzero(state.pulled) if state.status[n + i] == _BASIC]
        if not gone:
            continue
        small = remove_rows(sol, gone)
        assert small.num_rows == sol.num_rows == len(rows)
        assert small.state.pulled.sum() == state.pulled.sum() - len(gone)
        seen["removed"] += len(gone)
        j, v = int(rng.integers(n)), float(rng.integers(0, 2))
        pin_lo, pin_hi = list(lo), list(hi)
        pin_lo[j] = pin_hi[j] = v
        pin, scratch = fix_variable_resolve(small, j, v), solve(make_problem(n, c, rows, pin_lo, pin_hi))
        assert pin.status is scratch.status
        if scratch.optimal:
            assert pin.value == pytest.approx(scratch.value, abs=1e-9)
            assert pin.num_rows == len(rows) and meets_rows(pin.x, rows)
            seen["pins"] += 1
    assert seen["removed"] > 30 and seen["pins"] > 20


def random_pivot(engine, rng):
    """Swap a random nonbasic column into the basis at a random position
    where its column has a pivot of at least 1/2; returns the entering and
    leaving variables, or None when no such position exists."""
    q = int(rng.choice(np.flatnonzero(engine.status != _BASIC)))
    w = engine._column(q)
    rows = np.flatnonzero(np.abs(w) >= 0.5)
    if not len(rows):
        return None
    r = int(rng.choice(rows))
    p = int(engine.basis[r])
    engine.status[p] = _AT_LOWER
    engine.basis[r] = q
    engine.status[q] = _BASIC
    engine._eta_update(r, w, p)
    return q, p


def test_stored_block_follows_random_pivots():
    # after every pivot, row addition, clone, bound change and refactor, the
    # stored block equals the one a fresh factorization builds and its rows
    # of A match its tight rows, and a clone's changes leave its parent's as
    # they were
    rng = np.random.default_rng(97)
    n = 6
    seen = dict(enter=0, leave=0)
    for _ in range(16):
        rows = [([(j, float(v)) for j, v in enumerate(rng.integers(-2, 3, size=n)) if v],
                 "<=", 1.0) for _ in range(5)]
        engine = _Engine(make_problem(n, rng.standard_normal(n), rows,
                                      [-1.0] * n, [1.0] * n))
        engine._refactor()
        parent, frozen = None, None
        for step in range(60):
            kind = rng.choice(["pivot"] * 6 + ["add_rows", "clone", "set_bounds", "refactor"])
            if kind == "pivot":
                moved = random_pivot(engine, rng)
                if moved is not None:
                    seen["enter"] += moved[0] >= n
                    seen["leave"] += moved[1] >= n
            elif kind == "add_rows" and engine.m < 12:
                add_lp_rows(engine, [LpRow(tuple((j, float(v)) for j, v in enumerate(
                    rng.integers(-2, 3, size=n)) if v) or ((0, 1.0),), "<=", 1.0)
                    for _ in range(int(rng.integers(1, 3)))])
            elif kind == "clone":
                parent, frozen = engine, engine.b_inv
                engine = engine.clone()
            elif kind == "set_bounds":
                j = int(rng.integers(n))
                if engine.status[j] != _BASIC:
                    engine.set_bounds(j, -0.5, 0.5)
            elif kind == "refactor":
                engine._refactor()
            fresh = engine.clone()
            fresh._refactor()
            assert engine._k == fresh._k <= min(n, engine.m)
            assert np.allclose(engine.b_inv, fresh.b_inv, rtol=0, atol=1e-9), (step, kind)
            assert np.allclose(engine.b_inv @ dense_basis(engine), np.eye(engine.m), atol=1e-9)
            for e in (engine, parent) if parent is not None else (engine,):
                k = e._k
                assert np.array_equal(e._at[:k], e.a[e._order[:k]])
            if parent is not None:
                assert np.array_equal(parent.b_inv, frozen)
    assert seen["enter"] > 20 and seen["leave"] > 20


def test_engine_stores_no_m_by_m_array():
    # the 192-row forbidden-set LP of random:32,3,4,7 keeps at most n = 32
    # columns of its basis inverse, through the scratch solve and the warm
    # re-solves of branch & bound; no engine array holds m x m entries
    from mpdec.formulations import build_formulation
    from mpdec.gf2 import random_regular_ldpc
    code = random_regular_ldpc(32, 3, 4, 7)
    lam = np.random.default_rng(5).normal(0.5, 1.0, size=32)
    form = build_formulation(code, "fs", lam)
    m = len(form.lp.rows)
    assert m == 192
    engines = []
    sol = solve(form.lp)
    engines.append(sol.state)
    for j in range(4):
        engines.append(fix_variable_resolve(sol, j, 1.0).state)
    engines.append(add_rows_resolve(sol, [([(0, 1.0), (1, 1.0)], "<=", 1.0)]).state)
    for engine in engines:
        assert engine._w.shape[0] == 32 and engine._k <= 32
        assert max(v.size for v in vars(engine).values()
                   if isinstance(v, np.ndarray)) < m * m


def test_singular_kernel_raises():
    # columns 0 and 1 are equal, so no basis may hold both with both rows tight
    engine = _Engine(make_problem(3, [1.0, 1.0, 1.0],
                                  [([(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 2.0),
                                   ([(0, 2.0), (1, 2.0)], "<=", 1.0)]))
    engine.basis = np.array([0, 1])
    with pytest.raises(LpSolverError):
        engine._refactor()


def test_engine_stores_no_identity_block():
    sol = solve(make_problem(3, [-0.7, -1.3, 0.4], spc_fs_rows()))
    assert sol.state.a.shape == (4, 3)
    child = fix_variable_resolve(sol, 0, 1.0)
    assert child.state.a is sol.state.a
    grown = add_rows_resolve(sol, [([(0, 1.0)], "<=", 0.5)])
    assert grown.state.a.shape == (5, 3) and sol.state.a.shape == (4, 3)


def test_problem_arrays_are_read_only():
    p = make_problem(3, [1.0, 0.0, -1.0], spc_fs_rows())
    for arr in (p.rows.a, p.row_lo, p.row_hi, p.objective, p.lower, p.upper):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        p.rows.a[0, 0] = 5.0
    # a solve and its warm re-solves leave them as built
    sol = solve(p)
    add_rows_resolve(sol, [([(0, 1.0)], "<=", 0.5)])
    fix_variable_resolve(sol, 1, 1.0)
    fresh = make_problem(3, [1.0, 0.0, -1.0], spc_fs_rows())
    assert np.array_equal(p.rows.a, fresh.rows.a) and np.array_equal(p.row_lo, fresh.row_lo)
    assert sol.state.a is p.rows.a


def test_with_objective_shares_rows_only():
    p = make_problem(3, [1.0, 0.0, -1.0], spc_fs_rows())
    q = p.with_objective(np.array([-1.0, -1.0, 1.0]))
    for name in ("rows", "lower", "upper", "row_lo", "row_hi", "singles"):
        assert getattr(q, name) is getattr(p, name), name
    assert p.objective.tolist() == [1.0, 0.0, -1.0] and q.objective.tolist() == [-1.0, -1.0, 1.0]
    assert dump_lp(q) == dump_lp(make_problem(3, [-1.0, -1.0, 1.0], spc_fs_rows()))
    assert solve(q).value == pytest.approx(-2.0, abs=1e-9)
    assert solve(p).value == pytest.approx(
        solve(make_problem(3, [1.0, 0.0, -1.0], spc_fs_rows())).value, abs=1e-12)
    with pytest.raises(ValueError):
        p.with_objective([1.0, 2.0])


def test_solution_counters():
    # the all-ones start (the hard decision) breaks the three-bit odd-subset
    # row, so the dual simplex must pivot
    sol = solve(make_problem(3, [-1.0, -1.1, -1.2], spc_fs_rows()))
    assert sol.pivots > 0 and sol.refactors > 0 and not sol.warm_fallback
    again = solve(make_problem(3, [-1.0, -1.1, -1.2], spc_fs_rows()))
    assert (again.pivots, again.refactors) == (sol.pivots, sol.refactors)
    # a clone counts only its own re-solve
    child = fix_variable_resolve(sol, 1, 0.0)
    assert child.refactors >= 1 and not child.warm_fallback


def test_warm_fallback_is_flagged():
    sol = solve(make_problem(3, [-0.7, -1.3, 0.4], spc_fs_rows()))
    # flip the objective under the optimal basis: no longer dual feasible,
    # so the warm re-solve gives up and the clone is solved from scratch
    sol.state.c = -sol.state.c
    again = add_rows_resolve(sol, [([(0, 1.0)], "<=", 0.5)])
    assert again.warm_fallback and again.optimal
    fresh = solve(make_problem(3, [0.7, 1.3, -0.4], spc_fs_rows() + [([(0, 1.0)], "<=", 0.5)]))
    assert again.value == pytest.approx(fresh.value, abs=1e-9)


def loop_logical_bounds(rows, lo, hi):
    """Reference: each row's sense bounds tightened to its activity range,
    one coefficient at a time."""
    out = []
    for coeffs, sense, rhs in rows:
        amin = sum(min(v * lo[j], v * hi[j]) for j, v in coeffs)
        amax = sum(max(v * lo[j], v * hi[j]) for j, v in coeffs)
        s_lo = -math.inf if sense == "<=" else rhs
        s_hi = math.inf if sense == ">=" else rhs
        out.append((max(s_lo, amin), min(s_hi, amax)))
    return out


def test_logical_bounds_match_row_loop():
    rng = np.random.default_rng(93)
    for _ in range(40):
        n, c, rows, _, _ = random_lp(rng, n_max=7, m_max=6)
        rows = [([(j, v * float(rng.uniform(0.1, 2.0))) for j, v in coeffs], sense,
                 rhs + float(rng.uniform(-0.5, 0.5))) for coeffs, sense, rhs in rows]
        lo = rng.uniform(-2.0, 0.0, size=n).round(3)
        hi = lo + rng.uniform(0.0, 3.0, size=n).round(3)
        problem = make_problem(n, c, rows, lo, hi)
        ref = loop_logical_bounds(rows, lo, hi)
        bad = any(l > h + 1e-9 for l, h in ref)
        assert problem.bad_bounds == bad
        for (l, h), got_l, got_h in zip(ref, problem.row_lo, problem.row_hi):
            assert got_h == pytest.approx(h, rel=1e-12, abs=1e-12)
            if not bad:
                assert got_l == pytest.approx(min(l, h), rel=1e-12, abs=1e-12)
