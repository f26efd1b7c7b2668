"""Bounded-variable revised simplex kernel.

Every decoding LP here lives in a box, so all structural bounds are finite;
logical (row activity) variables get their bounds from the row sense,
tightened to the finite activity range implied by the box.  The standard
form is [A | -I] [x; r] = 0 with r the row activities.

Solver states are reusable: `add_rows_resolve` and `fix_variable_resolve`
clone the state and re-solve with the dual simplex from the old basis,
falling back to a from-scratch primal solve if that runs into trouble.

Tolerances (stated once, reused repo-wide): feasibility/optimality 1e-9
(`FEAS_TOL`, `COST_TOL`; objective values that close count as tied),
integrality 1e-6; inside the kernel, pivots below 1e-9 are rejected, steps
and ratios within 1e-12 tie, and a warm basis must be dual feasible to 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

FEAS_TOL = 1e-9
COST_TOL = 1e-9
INTEGRALITY_TOL = 1e-6

_PIV_EPS = 1e-9
_TIE_EPS = 1e-12
_WARM_DUAL_TOL = 1e-7
_REFACTOR_EVERY = 100
_BLAND_AFTER = 50

_BASIC, _AT_LOWER, _AT_UPPER = 0, 1, 2


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class LpSolverError(RuntimeError):
    """Numerical failure after anti-cycling and refactorization fallbacks."""


@dataclass(frozen=True)
class LpRow:
    """Sparse row: coefficient list, sense in {<=, =, >=}, right-hand side."""

    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {self.sense!r}")
        idx = [j for j, _ in self.coeffs]
        if len(idx) != len(set(idx)):
            raise ValueError("duplicate column index in row")


@dataclass(frozen=True)
class LpProblem:
    """min objective . x subject to rows and finite box bounds."""

    num_vars: int
    objective: tuple[float, ...]
    rows: tuple[LpRow, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        if len(self.lower) != self.num_vars or len(self.upper) != self.num_vars:
            raise ValueError("bounds length mismatch")
        for l, u in zip(self.lower, self.upper):
            if not (math.isfinite(l) and math.isfinite(u)):
                raise ValueError("bounds must be finite")
            if l > u:
                raise ValueError("lower bound exceeds upper bound")
        for row in self.rows:
            for j, _ in row.coeffs:
                if not 0 <= j < self.num_vars:
                    raise ValueError(f"row index {j} out of range")


def _as_rows(rows) -> tuple[LpRow, ...]:
    return tuple(r if isinstance(r, LpRow)
                 else LpRow(tuple((int(j), float(v)) for j, v in r[0]), r[1], float(r[2]))
                 for r in rows)


def make_problem(num_vars, objective, rows, lower=None, upper=None) -> LpProblem:
    """Convenience constructor; rows may be plain (coeffs, sense, rhs) tuples."""
    if lower is None:
        lower = [0.0] * num_vars
    if upper is None:
        upper = [1.0] * num_vars
    return LpProblem(num_vars, tuple(float(c) for c in objective), _as_rows(rows),
                     tuple(float(v) for v in lower), tuple(float(v) for v in upper))


@dataclass
class LpSolution:
    """Solver result; `state` can seed add_rows_resolve / fix_variable_resolve."""

    status: LpStatus
    x: np.ndarray | None
    value: float
    active_rows: tuple[int, ...]
    state: "_Engine"

    @property
    def optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


class _Engine:
    """Mutable simplex state over the standard form [A | -I] z = 0."""

    def __init__(self, problem: LpProblem | None):
        if problem is None:
            return
        n = problem.num_vars
        m = len(problem.rows)
        a = np.zeros((m, n + m))
        for i, row in enumerate(problem.rows):
            for j, v in row.coeffs:
                a[i, j] = v
            a[i, n + i] = -1.0
        self.nstruct = n
        self.a = a
        self.c = np.concatenate([np.asarray(problem.objective, dtype=float),
                                 np.zeros(m)])
        lo = np.concatenate([np.asarray(problem.lower, dtype=float), np.zeros(m)])
        hi = np.concatenate([np.asarray(problem.upper, dtype=float), np.zeros(m)])
        self.lo, self.hi = lo, hi
        self.senses: list[str] = []
        self.rhs = np.zeros(m)
        self.bad_bounds = False
        for i, row in enumerate(problem.rows):
            self._set_logical_bounds(i, row)
        self.basis = np.arange(n, n + m)
        self.status = np.full(n + m, _AT_LOWER, dtype=np.int8)
        self.status[self.basis] = _BASIC
        self.b_inv = np.eye(m)
        self.x_basic = np.zeros(m)
        self._pivots = 0
        self._degen = 0

    # -- construction helpers -------------------------------------------------

    def _set_logical_bounds(self, i: int, row: LpRow):
        """Tighten the logical's sense bounds to the finite activity range."""
        amin = amax = 0.0
        for j, v in row.coeffs:
            prods = (v * self.lo[j], v * self.hi[j])
            amin += min(prods)
            amax += max(prods)
        if row.sense == "<=":
            lo_s, hi_s = -math.inf, row.rhs
        elif row.sense == ">=":
            lo_s, hi_s = row.rhs, math.inf
        else:
            lo_s = hi_s = row.rhs
        col = self.nstruct + i
        self.lo[col] = max(lo_s, amin)
        self.hi[col] = min(hi_s, amax)
        self.senses.append(row.sense)
        self.rhs[i] = row.rhs
        if self.lo[col] > self.hi[col] + FEAS_TOL:
            self.bad_bounds = True
        elif self.lo[col] > self.hi[col]:
            self.lo[col] = self.hi[col]

    @property
    def m(self) -> int:
        return len(self.basis)

    def clone(self) -> "_Engine":
        e = _Engine(None)
        e.nstruct = self.nstruct
        e.a = self.a.copy()
        e.c = self.c.copy()
        e.lo = self.lo.copy()
        e.hi = self.hi.copy()
        e.senses = list(self.senses)
        e.rhs = self.rhs.copy()
        e.bad_bounds = self.bad_bounds
        e.basis = self.basis.copy()
        e.status = self.status.copy()
        e.b_inv = self.b_inv.copy()
        e.x_basic = self.x_basic.copy()
        e._pivots = 0
        e._degen = 0
        return e

    # -- linear algebra upkeep ------------------------------------------------

    def _refactor(self):
        b = self.a[:, self.basis]
        try:
            self.b_inv = np.linalg.inv(b) if self.m else np.zeros((0, 0))
        except np.linalg.LinAlgError as exc:
            raise LpSolverError("singular basis") from exc
        self._pivots = 0

    def _recompute_x_basic(self):
        xn = np.where(self.status == _AT_LOWER, self.lo,
                      np.where(self.status == _AT_UPPER, self.hi, 0.0))
        self.x_basic = self.b_inv @ -(self.a @ xn) if self.m else np.zeros(0)

    def _eta_update(self, r: int, w: np.ndarray):
        piv = w[r]
        row = self.b_inv[r] / piv
        w2 = w.copy()
        w2[r] = 0.0
        self.b_inv -= np.outer(w2, row)
        self.b_inv[r] = row
        self._pivots += 1
        if self._pivots >= _REFACTOR_EVERY:
            self._refactor()
            self._recompute_x_basic()

    def _reduced_costs(self, cost: np.ndarray | None = None) -> np.ndarray:
        c = self.c if cost is None else cost
        if self.m == 0:
            return c.copy()
        y = c[self.basis] @ self.b_inv
        return c - y @ self.a

    def _max_violation(self) -> float:
        if self.m == 0:
            return 0.0
        below = self.lo[self.basis] - self.x_basic
        above = self.x_basic - self.hi[self.basis]
        return float(max(below.max(initial=0.0), above.max(initial=0.0)))

    # -- pivot selection ------------------------------------------------------

    def _pick_entering(self, d: np.ndarray) -> int:
        movable = self.hi - self.lo > 0
        down = (self.status == _AT_LOWER) & (d < -COST_TOL) & movable
        up = (self.status == _AT_UPPER) & (d > COST_TOL) & movable
        eligible = down | up
        if not eligible.any():
            return -1
        if self._degen >= _BLAND_AFTER:
            return int(np.flatnonzero(eligible)[0])
        score = np.where(eligible, np.abs(d), -1.0)
        return int(np.argmax(score))

    def _ratio_and_pivot(self, q: int, rate: np.ndarray, t_cand: np.ndarray) -> bool:
        """Shared primal step: pick the blocking bound, flip or pivot.

        Returns False when the step is unbounded in every candidate (cannot
        happen with finite bounds; treated as numerical failure).
        """
        sigma = 1.0 if self.status[q] == _AT_LOWER else -1.0
        t_flip = self.hi[q] - self.lo[q]
        t_min = t_cand.min() if len(t_cand) else math.inf
        t_star = min(t_min, t_flip)
        if not math.isfinite(t_star):
            return False
        t_star = max(t_star, 0.0)
        self._degen = self._degen + 1 if t_star <= _TIE_EPS else 0
        if t_flip <= t_min:
            self.x_basic += rate * t_flip
            self.status[q] = _AT_UPPER if self.status[q] == _AT_LOWER else _AT_LOWER
            return True
        near = t_cand <= t_star + _TIE_EPS
        cand = np.flatnonzero(near)
        if self._degen >= _BLAND_AFTER:
            r = int(cand[np.argmin(self.basis[cand])])
        else:
            r = int(cand[np.argmax(np.abs(rate[cand]))])
        p = int(self.basis[r])
        w = -rate * sigma
        leave_val = self.x_basic[r] + rate[r] * t_star
        self.status[p] = (_AT_LOWER
                          if abs(leave_val - self.lo[p]) <= abs(leave_val - self.hi[p])
                          else _AT_UPPER)
        self.x_basic += rate * t_star
        enter_from = self.lo[q] if sigma > 0 else self.hi[q]
        self.basis[r] = q
        self.status[q] = _BASIC
        self.x_basic[r] = enter_from + sigma * t_star
        self._eta_update(r, w)
        return True

    # -- phase 1: minimize total bound violation of the basics ----------------

    def _phase1(self, max_iters: int) -> bool:
        self._degen = 0
        for _ in range(max_iters):
            below = self.lo[self.basis] - self.x_basic
            above = self.x_basic - self.hi[self.basis]
            if max(below.max(initial=0.0), above.max(initial=0.0)) <= FEAS_TOL:
                return True
            c1 = np.zeros(len(self.c))
            c1[self.basis[below > FEAS_TOL]] = -1.0
            c1[self.basis[above > FEAS_TOL]] = 1.0
            d = self._reduced_costs(c1)
            d[self.basis] = 0.0
            q = self._pick_entering(d)
            if q < 0:
                return False
            sigma = 1.0 if self.status[q] == _AT_LOWER else -1.0
            w = self.b_inv @ self.a[:, q]
            rate = -sigma * w
            lo_b, hi_b = self.lo[self.basis], self.hi[self.basis]
            is_below = self.x_basic < lo_b - FEAS_TOL
            is_above = self.x_basic > hi_b + FEAS_TOL
            feas = ~is_below & ~is_above
            t = np.full(self.m, math.inf)
            up = rate > _PIV_EPS
            dn = rate < -_PIV_EPS
            sel = up & (is_below | feas)
            t[sel] = (np.where(is_below[sel], lo_b[sel], hi_b[sel])
                      - self.x_basic[sel]) / rate[sel]
            sel = dn & (is_above | feas)
            t[sel] = (np.where(is_above[sel], hi_b[sel], lo_b[sel])
                      - self.x_basic[sel]) / rate[sel]
            np.maximum(t, 0.0, out=t)
            if not self._ratio_and_pivot(q, rate, t):
                raise LpSolverError("phase-1 step unbounded")
        raise LpSolverError("phase-1 iteration limit")

    # -- phase 2: primal simplex on the true objective ------------------------

    def _phase2(self, max_iters: int):
        self._degen = 0
        for _ in range(max_iters):
            d = self._reduced_costs()
            d[self.basis] = 0.0
            q = self._pick_entering(d)
            if q < 0:
                return
            sigma = 1.0 if self.status[q] == _AT_LOWER else -1.0
            w = self.b_inv @ self.a[:, q]
            rate = -sigma * w
            lo_b, hi_b = self.lo[self.basis], self.hi[self.basis]
            t = np.full(self.m, math.inf)
            up = rate > _PIV_EPS
            dn = rate < -_PIV_EPS
            t[up] = (hi_b[up] - self.x_basic[up]) / rate[up]
            t[dn] = (lo_b[dn] - self.x_basic[dn]) / rate[dn]
            np.maximum(t, 0.0, out=t)
            if not self._ratio_and_pivot(q, rate, t):
                raise LpSolverError("phase-2 step unbounded")
        raise LpSolverError("phase-2 iteration limit")

    # -- dual simplex for warm restarts ---------------------------------------

    def _dual_phase(self, max_iters: int) -> LpStatus | None:
        """Restore primal feasibility from a dual-feasible basis.

        Returns INFEASIBLE when a violated row admits no entering column,
        None when primal feasible (caller re-verifies optimality).
        """
        if self.m == 0:
            return None
        self._degen = 0
        movable = self.hi - self.lo > 0
        for _ in range(max_iters):
            below = self.lo[self.basis] - self.x_basic
            above = self.x_basic - self.hi[self.basis]
            worst = np.maximum(below, above)
            r = int(np.argmax(worst))
            if worst[r] <= FEAS_TOL:
                return None
            p = int(self.basis[r])
            going_up = below[r] > above[r]
            rho = self.b_inv[r]
            alpha = rho @ self.a
            d = self._reduced_costs()
            d[self.basis] = 0.0
            s = 1.0 if going_up else -1.0
            at_lo = self.status == _AT_LOWER
            at_up = self.status == _AT_UPPER
            eligible = movable & ((at_lo & (s * alpha < -_PIV_EPS))
                                  | (at_up & (s * alpha > _PIV_EPS)))
            if not eligible.any():
                return LpStatus.INFEASIBLE
            mag_d = np.where(at_lo, np.maximum(d, 0.0), np.maximum(-d, 0.0))
            denom = np.where(eligible, np.abs(alpha), 1.0)
            theta = np.where(eligible, mag_d / denom, math.inf)
            t_min = theta.min()
            cand = np.flatnonzero(theta <= t_min + _TIE_EPS)
            if self._degen >= _BLAND_AFTER:
                q = int(cand[0])
            else:
                q = int(cand[np.argmax(np.abs(alpha[cand]))])
            self._degen = self._degen + 1 if t_min <= _TIE_EPS else 0
            bound_r = self.lo[p] if going_up else self.hi[p]
            delta = (self.x_basic[r] - bound_r) / alpha[q]
            w = self.b_inv @ self.a[:, q]
            if abs(w[r]) < _PIV_EPS:
                self._refactor()
                self._recompute_x_basic()
                continue
            enter_from = self.lo[q] if self.status[q] == _AT_LOWER else self.hi[q]
            self.x_basic -= delta * w
            self.status[p] = _AT_LOWER if going_up else _AT_UPPER
            self.basis[r] = q
            self.status[q] = _BASIC
            self.x_basic[r] = enter_from + delta
            self._eta_update(r, w)
        raise LpSolverError("dual iteration limit")

    # -- drivers ---------------------------------------------------------------

    def _iter_budget(self) -> int:
        return 5000 + 60 * (self.m + len(self.c))

    def _confirmed_optimal(self) -> bool:
        """Refactor, then check primal feasibility and that nothing prices in."""
        self._refactor()
        self._recompute_x_basic()
        if self._max_violation() > FEAS_TOL:
            return False
        d = self._reduced_costs()
        d[self.basis] = 0.0
        return self._pick_entering(d) < 0

    def optimize_scratch(self) -> LpStatus:
        if self.bad_bounds:
            return LpStatus.INFEASIBLE
        n_all = len(self.c)
        self.basis = np.arange(self.nstruct, n_all)
        self.status = np.where(self.c > 0, _AT_LOWER, _AT_UPPER).astype(np.int8)
        self.status[self.c == 0] = _AT_LOWER
        self.status[self.basis] = _BASIC
        self._refactor()
        self._recompute_x_basic()
        budget = self._iter_budget()
        for _ in range(8):
            if not self._phase1(budget):
                return LpStatus.INFEASIBLE
            self._phase2(budget)
            if self._confirmed_optimal():
                return LpStatus.OPTIMAL
        raise LpSolverError("could not confirm optimality")

    def optimize_warm(self) -> LpStatus:
        """Dual re-solve from the current (dual feasible) basis."""
        if self.bad_bounds:
            return LpStatus.INFEASIBLE
        d = self._reduced_costs()
        d[self.basis] = 0.0
        movable = self.hi - self.lo > 0
        bad = (((self.status == _AT_LOWER) & (d < -_WARM_DUAL_TOL) & movable)
               | ((self.status == _AT_UPPER) & (d > _WARM_DUAL_TOL) & movable))
        if bad.any():
            raise LpSolverError("warm basis is not dual feasible")
        budget = self._iter_budget()
        for _ in range(8):
            if self._dual_phase(budget) is LpStatus.INFEASIBLE:
                return LpStatus.INFEASIBLE
            if self._confirmed_optimal():
                return LpStatus.OPTIMAL
            # primal feasible but not yet optimal: finish with primal pivots
            if self._max_violation() <= FEAS_TOL:
                self._phase2(budget)
                if self._confirmed_optimal():
                    return LpStatus.OPTIMAL
        raise LpSolverError("could not confirm optimality after warm restart")

    # -- state edits -----------------------------------------------------------

    def add_rows(self, rows: tuple[LpRow, ...]):
        k = len(rows)
        if k == 0:
            return
        m_old, n_all = self.m, len(self.c)
        x_old = self.values()
        block = np.zeros((k, n_all + k))
        block[:, n_all:] = -np.eye(k)
        for t, row in enumerate(rows):
            for j, v in row.coeffs:
                if not 0 <= j < self.nstruct:
                    raise ValueError(f"row index {j} out of range")
                block[t, j] = v
        self.a = np.block([[self.a, np.zeros((m_old, k))], [block]])
        self.c = np.concatenate([self.c, np.zeros(k)])
        self.lo = np.concatenate([self.lo, np.zeros(k)])
        self.hi = np.concatenate([self.hi, np.zeros(k)])
        self.rhs = np.concatenate([self.rhs, np.zeros(k)])
        for t, row in enumerate(rows):
            self._set_logical_bounds(m_old + t, row)
        # B' = [[B, 0], [C, -I]] with C the new rows over the old basis, so
        # B'^-1 = [[B^-1, 0], [C B^-1, -I]].
        c_block = block[:, :n_all][:, self.basis]
        new_binv = np.zeros((m_old + k, m_old + k))
        new_binv[:m_old, :m_old] = self.b_inv
        if m_old:
            new_binv[m_old:, :m_old] = c_block @ self.b_inv
        new_binv[m_old:, m_old:] = -np.eye(k)
        self.b_inv = new_binv
        acts = block[:, :n_all] @ x_old
        self.basis = np.concatenate([self.basis, np.arange(n_all, n_all + k)])
        self.status = np.concatenate([self.status, np.full(k, _BASIC, dtype=np.int8)])
        self.x_basic = np.concatenate([self.x_basic, acts])

    def set_bounds(self, j: int, lo: float, hi: float):
        if not 0 <= j < self.nstruct:
            raise ValueError("variable index out of range")
        if lo > hi:
            raise ValueError("lower bound exceeds upper bound")
        if self.status[j] == _BASIC:
            self.lo[j], self.hi[j] = lo, hi
            return
        old = self.lo[j] if self.status[j] == _AT_LOWER else self.hi[j]
        self.lo[j], self.hi[j] = lo, hi
        new = min(max(old, lo), hi)
        if new != old:
            self.x_basic -= (self.b_inv @ self.a[:, j]) * (new - old)
        self.status[j] = _AT_LOWER if abs(new - lo) <= abs(new - hi) else _AT_UPPER

    # -- extraction ------------------------------------------------------------

    def values(self) -> np.ndarray:
        x = np.where(self.status == _AT_LOWER, self.lo,
                     np.where(self.status == _AT_UPPER, self.hi, 0.0))
        x[self.basis] = self.x_basic
        return x

    def structural_values(self) -> np.ndarray:
        return self.values()[:self.nstruct]

    def row_activities(self) -> np.ndarray:
        return self.values()[self.nstruct:]

    def objective_value(self) -> float:
        return float(self.c @ self.values())


def _finish(engine: _Engine, status: LpStatus) -> LpSolution:
    if status is LpStatus.INFEASIBLE:
        return LpSolution(LpStatus.INFEASIBLE, None, math.inf, (), engine)
    acts = engine.row_activities()
    active = tuple(int(i) for i in np.flatnonzero(np.abs(acts - engine.rhs) <= FEAS_TOL))
    return LpSolution(LpStatus.OPTIMAL, engine.structural_values(),
                      engine.objective_value(), active, engine)


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP from scratch; Optimal with a vertex optimum or Infeasible."""
    engine = _Engine(problem)
    return _finish(engine, engine.optimize_scratch())


def _resolve(engine: _Engine) -> LpSolution:
    try:
        return _finish(engine, engine.optimize_warm())
    except LpSolverError:
        return _finish(engine, engine.optimize_scratch())


def add_rows_resolve(solution: LpSolution, rows) -> LpSolution:
    """Re-optimize with extra rows appended; prior solution must be Optimal."""
    if not solution.optimal:
        raise ValueError("can only add rows to an optimal state")
    engine = solution.state.clone()
    engine.add_rows(_as_rows(rows))
    return _resolve(engine)


def fix_variable_resolve(solution: LpSolution, j, value) -> LpSolution:
    """Re-optimize with variable j pinned to the given value.

    `j` and `value` may also be equal-length sequences: every listed
    variable is pinned by its bounds in the same clone and one warm re-solve.
    """
    if not solution.optimal:
        raise ValueError("can only fix variables on an optimal state")
    if np.ndim(j) == 0:
        j, value = (j,), (value,)
    if len(j) != len(value):
        raise ValueError("need one value per pinned variable")
    if len(set(j)) != len(j):
        raise ValueError("duplicate variable index")
    engine = solution.state.clone()
    for jj, v in zip(j, value):
        engine.set_bounds(int(jj), float(v), float(v))
    return _resolve(engine)


def is_integral(x, tol: float = INTEGRALITY_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(np.abs(x - np.round(x)) <= tol))


def dump_lp(problem: LpProblem) -> str:
    """Line-oriented deterministic text dump of an LpProblem (debug aid)."""
    out = ["minimize"]
    terms = [f"{c:+g} x{j}" for j, c in enumerate(problem.objective) if c]
    out.append("  " + (" ".join(terms) if terms else "0"))
    out.append("subject to")
    for i, row in enumerate(problem.rows):
        body = " ".join(f"{v:+g} x{j}" for j, v in sorted(row.coeffs))
        out.append(f"  r{i}: {body} {row.sense} {row.rhs:g}")
    out.append("bounds")
    for j in range(problem.num_vars):
        out.append(f"  {problem.lower[j]:g} <= x{j} <= {problem.upper[j]:g}")
    return "\n".join(out) + "\n"
