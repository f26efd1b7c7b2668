"""LP kernel: examples, vertex-enumeration oracle battery, resolves."""

import itertools
import math

import numpy as np
import pytest

from mpdec.simplex import (LpRow, LpSolverError, LpStatus, add_rows_resolve,
                           dump_lp, fix_variable_resolve, is_integral,
                           make_problem, solve)


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


def random_lp(rng, n_max=5, m_max=4):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    c = rng.standard_normal(n).round(2)
    rows = []
    for _ in range(m):
        nz = int(rng.integers(1, n + 1))
        cols = sorted(rng.choice(n, size=nz, replace=False).tolist())
        coeffs = [(int(j), float(rng.integers(-3, 4)) or 1.0) for j in cols]
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        rhs = float(rng.integers(-2, 3))
        rows.append((coeffs, sense, rhs))
    return n, c, rows, [0.0] * n, [1.0] * n


def test_min_single_variable():
    sol = solve(make_problem(1, [1.0], []))
    assert sol.optimal and sol.value == 0.0 and sol.x[0] == 0.0


def test_simplex_vertex():
    sol = solve(make_problem(2, [-1.0, -1.0], [([(0, 1.0), (1, 1.0)], "<=", 1.0)]))
    assert sol.optimal
    assert sol.value == pytest.approx(-1.0, abs=1e-9)
    assert sol.active_rows == (0,)


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


def test_oracle_battery():
    rng = np.random.default_rng(17)
    for _ in range(120):
        n, c, rows, lo, hi = random_lp(rng)
        sol = solve(make_problem(n, c, rows, lo, hi))
        expect = brute_force_lp(n, c, rows, lo, hi)
        if expect is None:
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.optimal
            assert sol.value == pytest.approx(expect, abs=1e-7)


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
