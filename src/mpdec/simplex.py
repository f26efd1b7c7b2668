"""Bounded-variable revised simplex kernel.

Every decoding LP here lives in a box, so all structural bounds are finite;
logical (row activity) variables get their bounds from the row sense,
tightened to the finite activity range implied by the box.  The standard
form is [A | -I] [x; r] = 0 with r the row activities.  Only the structural
block A is stored: logical column n + i is -e_i, so its reduced cost is the
row's dual value y_i.

An LpProblem keeps each of its arrays once, read-only: the objective, the
box, its rows as one `Rows` block (which LpRows and plain tuples are parsed
into where they enter, `make_problem` and `add_rows_resolve`) and the
engine's arrays over them, all built when the problem is made.
`LpProblem.with_objective` shares all but the objective, so a row block kept
per code costs no per-row work per frame.  That includes its presolve: a row
i whose first column singleton j meets it whatever the rest of the row does
over the box (s_max + min a_ij x_j <= hi_i, s_min + max a_ij x_j >= lo_i)
only defines x_j, as Hx = 2z does on even-degree checks (Andersen &
Andersen, Math. Prog. 1995).  If all such x_j cost 0, the engine leaves
those rows out: x_j is in no row and never enters, the solution puts row i's
activity at the nearest point of its bounds that x_j's own allow, and a pin
on x_j or an added row on it puts the rows back.

The basis inverse is never stored whole.  With S the k basic structural
columns, T the k rows whose logicals are nonbasic and L the other rows,
K = A[T, S] is k x k (k <= min(n, m)) and
B^-1 = [[K^-1, 0], [A[L, S] K^-1, -I]] up to the basis order.  The L
columns are -e at each row's logical position and stay implicit; only
W = B^-1[:, T] is kept, transposed (k x m).  A refactor inverts K (a
crashed start's K is diagonal).  Between refactors W follows
the pivots by eta updates, a column dropped when a logical enters the basis
and one appended when a logical leaves it, so a pivot, FTRAN, pricing, a
clone or `add_rows` costs O(m k), never O(m^2).  The dual simplex updates
its reduced costs with each pivot and prices afresh after a refactor.

There is one algorithm, the bounded dual simplex.  A scratch solve starts
from the slack basis with each structural at the bound its cost favours:
there y = 0 and the reduced costs are the costs, so that basis is dual
feasible, and on a decoding LP it is the hard decision.  Before the first
pivot it is crashed: each zero-cost column singleton (a structural of cost
0 with one nonzero in A, such as z_i of Hx = 2z on a check of odd degree)
whose row is violated replaces that row's logical, which leaves at the
bound its row violated.  K stays diagonal and the basic costs 0, so the
start stays dual feasible; which columns are singletons is computed once
per row block.  Only violated rows are then pivoted on.  A basis that ends
primal feasible while something still prices in is repaired by moving
those nonbasics to their other bound and running the dual simplex again.

An LP of more than `_POOL_ROWS` inequality rows (the forbidden-set LP has
2^(d-1) a check, and a point of the box violates at most one) keeps them in
a read-only pool shared by clones, outside the engine.  Each primal feasible
point, the confirmed one too, appends the pool rows it violates, logicals
basic: y stays, the reduced costs gain only zeros, pool rows carry dual 0.

Solver states are reusable: `add_rows_resolve` and `fix_variable_resolve`
clone the state and re-solve with the dual simplex from the old basis,
falling back to a scratch solve when that basis is not dual feasible or
runs into trouble; `remove_rows` deletes rows whose logicals are basic,
which leaves an optimal basis optimal, with no solve.  Added rows get their
logical bounds from the same tightening as a problem's own.  A pin may only
narrow a variable's bounds.  Every verdict, optimal and infeasible, is
confirmed on a fresh factorization.  An LpSolution counts the pivots and
refactors of the solve that produced it and flags that fallback.

Tolerances (stated once, reused repo-wide): feasibility/optimality 1e-9
(`FEAS_TOL`, `COST_TOL`; objective values that close count as tied),
integrality 1e-6; inside the kernel, pivots below 1e-9 are rejected, steps
and ratios within 1e-12 tie, and a warm basis must be dual feasible to 1e-7.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
import math
from typing import NamedTuple

import numpy as np

FEAS_TOL = 1e-9
COST_TOL = 1e-9
INTEGRALITY_TOL = 1e-6

_PIV_EPS = 1e-9
_TIE_EPS = 1e-12
_WARM_DUAL_TOL = 1e-7
_REFACTOR_EVERY = 100
_BLAND_AFTER = 50
_POOL_ROWS = 256

_BASIC, _AT_LOWER, _AT_UPPER = 0, 1, 2


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class LpSolverError(RuntimeError):
    """Numerical failure after anti-cycling and refactorization fallbacks."""


class LpRow(NamedTuple):
    """Sparse row: (column, coefficient) pairs, sense in {<=, =, >=} and the
    right-hand side; a plain (coeffs, sense, rhs) tuple reads the same."""

    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float


class Rows:
    """Rows lo <= a x <= hi as one dense block: a is (m, n), lo and hi are
    (m,), with -inf or inf on an open side; len() is m."""

    def __init__(self, a: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.a, self.lo, self.hi = a, lo, hi

    def __len__(self) -> int:
        return len(self.lo)

    def face(self, i: int) -> "Rows":
        """Row i as the one-row block a_i x >= hi_i, the face of a <= row."""
        return Rows(self.a[i:i + 1], self.hi[i:i + 1], np.full(1, math.inf))

    @classmethod
    def parse(cls, rows, n: int) -> "Rows":
        """rows over n columns: a Rows as it is, once its shape is checked, or
        LpRows and plain tuples; ValueError for a sense not in {<=, =, >=},
        a column outside 0..n-1 or one given twice in a row."""
        if isinstance(rows, Rows):
            if rows.a.shape != (len(rows), n):
                raise ValueError(f"expected a ({len(rows)}, {n}) block, got {rows.a.shape}")
            return rows
        rows = tuple(rows)
        if not rows:  # the box LP, made once per frame: skip the parse
            empty = np.zeros(0)
            return cls(np.zeros((0, n)), empty, empty)
        senses = np.array([r[1] for r in rows], dtype=str)
        if not np.isin(senses, ("<=", "=", ">=")).all():
            raise ValueError(f"bad sense among {sorted(set(senses.tolist()))}")
        cols = np.fromiter((j for r in rows for j, _ in r[0]), np.intp)
        if ((cols < 0) | (cols >= n)).any():
            raise ValueError(f"column index out of range 0..{n - 1}")
        row_of = np.repeat(np.arange(len(rows)), [len(r[0]) for r in rows])
        key = np.sort(row_of * n + cols)
        if (key[1:] == key[:-1]).any():
            raise ValueError("duplicate column index in row")
        a = np.zeros((len(rows), n))
        a[row_of, cols] = np.fromiter((v for r in rows for _, v in r[0]), float, len(cols))
        rhs = np.fromiter((r[2] for r in rows), float, len(rows))
        return cls(a, np.where(senses == "<=", -math.inf, rhs),
                   np.where(senses == ">=", math.inf, rhs))


def _row_bounds(a: np.ndarray, sense_lo, sense_hi, lo: np.ndarray, hi: np.ndarray):
    """Logical bounds of the rows sense_lo <= a x <= sense_hi over the box
    [lo, hi]: the sense bounds tightened to each row's activity range.

    Returns (row_lo, row_hi, bad_bounds), bad_bounds when some row cannot be
    met inside the box.
    """
    at_lo, at_hi = a * lo, a * hi
    row_lo = np.maximum(sense_lo, np.minimum(at_lo, at_hi).sum(axis=1))
    row_hi = np.minimum(sense_hi, np.maximum(at_lo, at_hi).sum(axis=1))
    bad = bool((row_lo > row_hi + FEAS_TOL).any())
    np.minimum(row_lo, row_hi, out=row_lo)
    return row_lo, row_hi, bad


def _singleton_rows(a: np.ndarray) -> np.ndarray:
    """Per column of a, the row of its one nonzero when it has exactly one,
    else -1."""
    if not len(a):
        return np.full(a.shape[1], -1)
    nz = a != 0
    return np.where(nz.sum(axis=0) == 1, nz.argmax(axis=0), -1)


class _Presolve(NamedTuple):
    """What the engine takes (`kept`, `singles`) and leaves out (`dropped`, `cols`, `coef`)."""

    kept: Rows
    singles: np.ndarray
    dropped: Rows
    cols: np.ndarray
    coef: np.ndarray


def _presolve(p: LpProblem) -> _Presolve | None:
    """The rows of p that only define a column (see the module doc), or None;
    the rest of row i spans [least_i - z_min, most_i - z_max]."""
    rows, lo, hi = p.rows, p.lower, p.upper
    at, cols = np.unique(p.singles, return_index=True)  # each row's first singleton
    at, cols = at[at >= 0], cols[at >= 0]
    coef = rows.a[at, cols]
    least, most, _ = _row_bounds(rows.a[at], -math.inf, math.inf, lo, hi)
    z_min, z_max = np.sort([coef * lo[cols], coef * hi[cols]], axis=0)
    go = (most - z_max + z_min <= rows.hi[at]) & (least - z_min + z_max >= rows.lo[at])
    keep = ~np.isin(np.arange(len(rows)), at[go])
    return None if keep.all() else _Presolve(
        Rows(rows.a[keep], p.row_lo[keep], p.row_hi[keep]), _singleton_rows(rows.a[keep]),
        Rows(rows.a[~keep], rows.lo[~keep], rows.hi[~keep]), cols[go], coef[go])


def _read_only(values, n: int, what: str) -> np.ndarray:
    """A read-only float copy of values, which must be n finite numbers."""
    out = np.array(values, dtype=float)
    if out.shape != (n,):
        raise ValueError(f"{what} length mismatch")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    out.flags.writeable = False
    return out


class LpProblem:
    """min objective . x subject to the rows and the finite box [lower, upper].

    Each array is kept once and is read-only: `objective`, `lower` and
    `upper` (n,); `rows`, as `Rows.parse` takes them; and the engine's arrays
    over them, `row_lo` and `row_hi` (m,), the rows' sense bounds tightened to
    each row's activity range over the box, and `singles` (n,), the row of
    each column with one nonzero, else -1.  `bad_bounds` is True when some
    row cannot be met inside the box; `presolved` is what `_presolve` drops.
    """

    def __init__(self, num_vars: int, objective, rows, lower, upper):
        self.objective = _read_only(objective, num_vars, "objective")
        self.lower = lo = _read_only(lower, num_vars, "bounds")
        self.upper = hi = _read_only(upper, num_vars, "bounds")
        if (lo > hi).any():
            raise ValueError("lower bound exceeds upper bound")
        self.rows = rows = Rows.parse(rows, num_vars)
        self.singles = _singleton_rows(rows.a)
        if len(rows):
            self.row_lo, self.row_hi, self.bad_bounds = _row_bounds(
                rows.a, rows.lo, rows.hi, lo, hi)
            frozen = (rows.a, rows.lo, rows.hi, self.row_lo, self.row_hi)
            self.presolved = _presolve(self)
        else:  # the box LP, made once per frame: nothing to tighten or freeze
            self.row_lo, self.row_hi, self.bad_bounds = rows.lo, rows.hi, False
            frozen, self.presolved = (), None
        for arr in frozen + (self.singles,):
            arr.flags.writeable = False

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def with_objective(self, objective) -> "LpProblem":
        """The same rows and box under another objective, sharing every other
        array: nothing is validated or converted again but the objective."""
        problem = copy.copy(self)
        problem.objective = _read_only(objective, self.num_vars, "objective")
        return problem


def make_problem(num_vars, objective, rows, lower=None, upper=None) -> LpProblem:
    """The LP over the box ([0, 1] by default); rows as `Rows.parse` takes them."""
    return LpProblem(num_vars, objective, rows,
                     np.zeros(num_vars) if lower is None else lower,
                     np.ones(num_vars) if upper is None else upper)


@dataclass
class LpSolution:
    """Solver result; `state` can seed add_rows_resolve / fix_variable_resolve.

    `pivots` and `refactors` count the basis changes and B^-1 rebuilds of
    the solve that produced it; `warm_fallback` is True when a warm re-solve
    failed and the LP was solved again from scratch.
    """

    status: LpStatus
    x: np.ndarray | None
    value: float
    state: "_Engine"
    pivots: int = 0
    refactors: int = 0
    warm_fallback: bool = False

    @property
    def optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    @property
    def num_rows(self) -> int:
        """Rows of the LP that was solved, those the engine left out or pools included."""
        s, p = self.state, self.state.presolved
        return s.m - int(s.pulled.sum()) + len(s.pool or ()) + len(p.cols if p else ())


class _Engine:
    """Mutable simplex state over the standard form [A | -I] z = 0.

    Columns 0..n-1 are structural, column n + i is row i's logical; only A
    is stored.  `a` and `c` are never written in place, so clones share them
    until `add_rows` replaces them.  `presolved` holds the rows it left out.

    B^-1 is kept as its k tight-row columns (see the module doc).  `_order`
    lists the rows tight first: `_order[:k]` are the rows of `_w`, whose row
    t is B^-1[:, _order[t]], and of `_at`, whose row t is A[_order[t]];
    `_order[k:]` are the rows whose logicals are basic, at basis positions
    `_lpos[k:]`.  `_slot` is the inverse of `_order`.  Both buffers hold
    min(n, m) rows, as k never exceeds that.
    """

    def __init__(self, problem: LpProblem):
        p = problem.presolved
        self.presolved = p = None if p is None or problem.objective[p.cols].any() else p
        rows, self.singles = (p.kept, p.singles) if p else (
            Rows(problem.rows.a, problem.row_lo, problem.row_hi), problem.singles)
        ineq, self.pool = rows.lo < rows.hi, None
        if ineq.sum() > _POOL_ROWS:  # the engine starts from the equalities alone
            self.pool = rows if ineq.all() else Rows(rows.a[ineq], rows.lo[ineq], rows.hi[ineq])
            rows, self.singles = Rows(rows.a[~ineq], rows.lo[~ineq], rows.hi[~ineq]), None
        n, m = problem.num_vars, len(rows)
        self.nstruct, self.pulled = n, np.zeros(m, dtype=bool)  # rows from the pool
        self.a = rows.a
        self.c = np.concatenate([problem.objective, np.zeros(m)])
        self.lo = np.concatenate([problem.lower, rows.lo])
        self.hi = np.concatenate([problem.upper, rows.hi])
        self.bad_bounds = problem.bad_bounds
        self.basis = np.arange(n, n + m)
        self.status = np.full(n + m, _AT_LOWER, dtype=np.int8)
        self.status[self.basis] = _BASIC
        self.x_basic = None  # set when optimize_scratch starts
        self._w = np.empty((min(n, m), m))
        self._at = np.empty((min(n, m), n))
        self._since_refactor = 0
        self._d = None
        self.pivots = 0
        self.refactors = 0

    @property
    def m(self) -> int:
        return len(self.basis)

    def clone(self) -> "_Engine":
        e = copy.copy(self)
        e.lo = self.lo.copy()
        e.hi = self.hi.copy()
        e.basis = self.basis.copy()
        e.status = self.status.copy()
        e.x_basic = self.x_basic.copy()
        k = self._k
        e._w, e._at = np.empty_like(self._w), np.empty_like(self._at)
        e._w[:k], e._at[:k] = self._w[:k], self._at[:k]
        e._order = self._order.copy()
        e._slot = self._slot.copy()
        e._lpos = self._lpos.copy()
        e._since_refactor = 0
        e._d = None
        e.pivots = 0
        e.refactors = 0
        return e

    # -- linear algebra upkeep ------------------------------------------------

    def _refactor(self):
        """Rebuild the stored block from the kernel K = A[T, S] (see the
        module doc), the rows of T in index order, and the basic values."""
        n, m = self.nstruct, self.m
        basis = self.basis
        logical = basis >= n
        pos_l = logical.nonzero()[0]
        pos_s = (~logical).nonzero()[0]
        rows_l = basis[pos_l] - n
        k = len(pos_s)
        tight = np.ones(m, dtype=bool)
        tight[rows_l] = False
        rows_t = tight.nonzero()[0]
        if k:
            a_s = self.a[:, basis[pos_s]]
            try:
                k_inv = np.linalg.inv(a_s[rows_t])
            except np.linalg.LinAlgError as exc:
                raise LpSolverError("singular basis") from exc
            cols = np.empty((m, k))
            cols[pos_s] = k_inv
            cols[pos_l] = a_s[rows_l] @ k_inv
            self._w[:k] = cols.T
            self._at[:k] = self.a[rows_t]
        self._k = k
        self._order = np.concatenate([rows_t, rows_l])
        self._slot = np.argsort(self._order)
        self._lpos = np.concatenate([pos_s, pos_l])  # only [k:] is read
        self._since_refactor = 0
        self._d = None
        self.refactors += 1
        xn = np.where(self.status == _AT_UPPER, self.hi, self.lo)
        xn[basis] = 0.0
        self.x_basic = self._ftran(xn[n:] - self.a @ xn[:n])

    @property
    def b_inv(self) -> np.ndarray:
        """The dense B^-1, built on demand; for tests and debugging only."""
        m, k = self.m, self._k
        out = np.zeros((m, m))
        out[:, self._order[:k]] = self._w[:k].T
        out[self._lpos[k:], self._order[k:]] = -1.0
        out.flags.writeable = False
        return out

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v: the stored block on v's tight rows, minus v on the rows
        whose logicals are basic, at those logicals' positions."""
        k, order = self._k, self._order
        out = v[order[:k]] @ self._w[:k]
        out[self._lpos[k:]] -= v[order[k:]]
        return out

    def _column(self, q: int) -> np.ndarray:
        """B^-1 times column q of [A | -I], q nonbasic: a nonbasic logical's
        row is tight, so its column is minus a stored one."""
        n = self.nstruct
        if q < n:
            return self._ftran(self.a[:, q])
        return -self._w[self._slot[q - n]]

    def _eta_update(self, r: int, w: np.ndarray, leaving: int):
        """Follow the pivot at position r (entering column w = B^-1 a_q,
        already in `basis[r]`) in the stored block.

        Every stored column gets the eta update.  An entering logical's
        column becomes -e_r, so it is dropped; a leaving logical's column,
        -e_r before, becomes w / piv with -1 / piv at r and is appended.
        """
        n, k = self.nstruct, self._k
        wt, at = self._w, self._at
        order, slot, lpos = self._order, self._slot, self._lpos
        piv = w[r]
        if k:
            row = wt[:k, r] / piv
            wt[:k] -= row[:, None] * w
            wt[:k, r] = row
        entering = self.basis[r] - n
        if entering >= 0:  # its row leaves the tight set, through slot k - 1
            k -= 1
            t, j = slot[entering], order[k]
            wt[t], at[t] = wt[k], at[k]
            order[t], slot[j] = j, t
            order[k], slot[entering], lpos[k] = entering, k, r
        leaving -= n
        if leaving >= 0:  # its row joins the tight set at slot k
            s, j = slot[leaving], order[k]
            order[s], slot[j], lpos[s] = j, s, lpos[k]
            order[k], slot[leaving] = leaving, k
            inv = 1.0 / piv
            np.multiply(w, inv, out=wt[k])
            wt[k, r] = -inv
            at[k] = self.a[leaving]
            k += 1
        self._k = k
        self.pivots += 1
        self._since_refactor += 1
        if self._since_refactor >= _REFACTOR_EVERY:
            self._refactor()

    def _reduced_costs(self) -> np.ndarray:
        """c - y [A | -I] with y = c_B B^-1; logicals cost nothing, so y is
        zero off the tight rows and the logical part is y itself."""
        c = self.c
        if self.m == 0:
            return c.copy()
        n, k, order = self.nstruct, self._k, self._order
        y_t = self._w[:k] @ c[self.basis]
        d = np.zeros(len(c))
        d[n + order[:k]] = y_t
        d[:n] = c[:n] - y_t @ self._at[:k]
        return d

    def _max_violation(self) -> float:
        if self.m == 0:
            return 0.0
        below = self.lo[self.basis] - self.x_basic
        above = self.x_basic - self.hi[self.basis]
        return float(max(below.max(initial=0.0), above.max(initial=0.0)))

    # -- the dual simplex ------------------------------------------------------

    def _dual_phase(self, max_iters: int) -> LpStatus | None:
        """Restore primal feasibility from a dual-feasible basis.

        Returns INFEASIBLE when a violated row admits no entering column
        on a fresh factorization (a B^-1 carried through eta updates is
        refactored and the row chosen again first), None when primal
        feasible (caller re-verifies optimality).

        The reduced costs `_d` are priced once, unless the caller left them
        there, and then follow each pivot: d -= (d_q / alpha_q) alpha with
        alpha the pivot row.  A refactor makes them stale, and they are
        priced afresh.
        """
        if self.m == 0:
            return None
        self._degen = 0
        n, m = self.nstruct, self.m
        status, basis = self.status, self.basis
        movable = self.hi - self.lo > 0
        # the movable nonbasics at each bound, and the basics' bounds, follow
        # the pivots
        lo_mov = movable & (status == _AT_LOWER)
        up_mov = movable & (status == _AT_UPPER)
        lo_b, hi_b = self.lo[basis], self.hi[basis]
        fresh = False
        for _ in range(max_iters):
            below = lo_b - self.x_basic
            above = self.x_basic - hi_b
            worst = np.maximum(below, above)
            r = int(np.argmax(worst))
            if worst[r] <= FEAS_TOL:
                return None
            p = int(basis[r])
            going_up = below[r] > above[r]
            if self._d is None:
                self._d = self._reduced_costs()
                self._d[basis] = 0.0
            d = self._d
            # row r of B^-1 is the stored block's column r, and -1 at p's row
            # when p is a logical
            k = self._k
            rho_t = self._w[:k, r]
            alpha = np.zeros(n + m)
            alpha[:n] = rho_t @ self._at[:k]
            alpha[n + self._order[:k]] = -rho_t
            if p >= n:
                alpha[:n] -= self.a[p - n]
                alpha[p] = 1.0
            sa = alpha if going_up else -alpha
            eligible = (lo_mov & (sa < -_PIV_EPS)) | (up_mov & (sa > _PIV_EPS))
            idx = eligible.nonzero()[0]
            if not len(idx):
                if fresh:
                    return LpStatus.INFEASIBLE
                self._refactor()
                fresh = True
                continue
            # the dual ratio |d_j| / |alpha_j|: d_j >= 0 at a lower bound,
            # where s alpha_j < 0, and d_j <= 0 at an upper one, where s alpha_j > 0
            sa_e = sa[idx]
            theta = np.maximum(-d[idx] / sa_e, 0.0)
            t_min = theta.min()
            near = theta <= t_min + _TIE_EPS
            if self._degen >= _BLAND_AFTER:
                q = int(idx[near.argmax()])
            else:
                q = int(idx[near.nonzero()[0][np.argmax(np.abs(sa_e[near]))]])
            self._degen = self._degen + 1 if t_min <= _TIE_EPS else 0
            bound_r = self.lo[p] if going_up else self.hi[p]
            delta = (self.x_basic[r] - bound_r) / alpha[q]
            w = self._column(q)
            if abs(w[r]) < _PIV_EPS:
                self._refactor()
                fresh = True
                continue
            enter_from = self.lo[q] if lo_mov[q] else self.hi[q]
            self.x_basic -= delta * w
            status[p] = _AT_LOWER if going_up else _AT_UPPER
            lo_mov[p], up_mov[p] = movable[p] and going_up, movable[p] and not going_up
            basis[r] = q
            status[q] = _BASIC
            lo_mov[q] = up_mov[q] = False
            lo_b[r], hi_b[r] = self.lo[q], self.hi[q]
            self.x_basic[r] = enter_from + delta
            d -= (d[q] / alpha[q]) * alpha
            d[q] = 0.0
            self._eta_update(r, w, p)
            fresh = False
        raise LpSolverError("dual iteration limit")

    # -- drivers ---------------------------------------------------------------

    def _iter_budget(self) -> int:
        return 5000 + 60 * (self.m + len(self.c))

    def _prices_in(self, d: np.ndarray, tol: float) -> np.ndarray:
        """Mask of the movable nonbasics whose reduced cost d_j would lower
        the objective by more than tol per unit moved off their bound."""
        movable = self.hi - self.lo > 0
        return movable & (((self.status == _AT_LOWER) & (d < -tol))
                          | ((self.status == _AT_UPPER) & (d > tol)))

    def _optimize(self) -> LpStatus:
        """Dual simplex from a dual feasible basis, each verdict confirmed on
        a fresh factorization.

        A basis that ends primal feasible while some reduced cost still
        prices in (a warm start inside `_WARM_DUAL_TOL`, or drift) is
        repaired by moving each such nonbasic to its other bound, which
        makes it dual feasible, and restoring primal feasibility again.
        Pulls from the pool (`_pull`) are no repair round.
        """
        rounds = 0
        while rounds < 8:  # a pulled row the box cannot meet sets bad_bounds
            if self.bad_bounds or self._dual_phase(self._iter_budget()) is LpStatus.INFEASIBLE:
                return LpStatus.INFEASIBLE
            if self._pull():
                continue
            self._refactor()
            if self._max_violation() <= FEAS_TOL:
                if self._pull():
                    continue
                flip = self._prices_in(self._reduced_costs(), COST_TOL)
                if not flip.any():
                    return LpStatus.OPTIMAL
                self.status[flip] = np.where(self.status[flip] == _AT_LOWER, _AT_UPPER, _AT_LOWER)
                self._refactor()
            rounds += 1
        raise LpSolverError("could not confirm optimality")

    def _pull(self) -> bool:
        """Append the pool rows the point violates; True if any.  A row in
        the engine is met to FEAS_TOL, so none is pulled twice."""
        pool = self.pool
        if pool is None:
            return False
        act = pool.a @ self.values()[:self.nstruct]
        out = (act > pool.hi + FEAS_TOL) | (act < pool.lo - FEAS_TOL)
        if out.any():
            self.add_rows(Rows(pool.a[out], pool.lo[out], pool.hi[out]))
            self.pulled[-out.sum():] = True
        return bool(out.any())

    def optimize_scratch(self) -> LpStatus:
        """Solve from the slack basis with each structural at the bound its
        cost favours, crashed (`_crash`): there y = 0 and d = c, so it is
        dual feasible."""
        if self.bad_bounds:
            return LpStatus.INFEASIBLE
        self.basis = np.arange(self.nstruct, len(self.c))
        self.status = np.where(self.c < 0, _AT_UPPER, _AT_LOWER).astype(np.int8)
        self.status[self.basis] = _BASIC
        self._crash()
        self._refactor()
        return self._optimize()

    def _crash(self):
        """Swap zero-cost column singletons into the slack basis.

        Each non-fixed structural of zero cost with one nonzero in A whose
        row is violated takes the basis position of that row's logical (the
        first such column by index, where a row has several), and the
        logical leaves at the bound its row violated.  K stays diagonal, so
        nonsingular, and the basic costs stay 0, so y = 0 and d = c: the
        start is still dual feasible.  The dual simplex would make the same
        swaps, one zero-ratio pivot per row.
        """
        n = self.nstruct
        cand = self.c[:n] == 0
        if self.singles is None:
            self.singles = _singleton_rows(self.a)
        cand &= (self.singles >= 0) & (self.hi[:n] > self.lo[:n])
        cols = cand.nonzero()[0]
        if not len(cols):
            return
        rows = self.singles[cols]
        x = np.where(self.status[:n] == _AT_UPPER, self.hi[:n], self.lo[:n])
        act = self.a[rows] @ x
        below = self.lo[n + rows] - act > FEAS_TOL
        above = act - self.hi[n + rows] > FEAS_TOL
        violated = (below | above).nonzero()[0]
        rows, first = np.unique(rows[violated], return_index=True)
        pick = violated[first]
        self.basis[rows] = cols[pick]
        self.status[cols[pick]] = _BASIC
        self.status[n + rows] = np.where(below[pick], _AT_LOWER, _AT_UPPER)

    def optimize_warm(self) -> LpStatus:
        """Re-solve from the current basis, which must be dual feasible to
        `_WARM_DUAL_TOL`; raises LpSolverError when it is not."""
        if self.bad_bounds:
            return LpStatus.INFEASIBLE
        d = self._reduced_costs()
        if self._prices_in(d, _WARM_DUAL_TOL).any():
            raise LpSolverError("warm basis is not dual feasible")
        d[self.basis] = 0.0
        self._d = d
        return self._optimize()

    # -- state edits -----------------------------------------------------------

    def add_rows(self, rows: Rows):
        """Append the rows, their logicals basic."""
        kr = len(rows)
        if kr == 0:
            return
        if self.presolved is not None and rows.a[:, self.presolved.cols].any():
            self._restore()
        n, m_old = self.nstruct, self.m
        x_old = self.values()
        block = rows.a
        row_lo, row_hi, bad = _row_bounds(block, rows.lo, rows.hi, self.lo[:n], self.hi[:n])
        self.a = np.concatenate([self.a, block])
        self.c = np.concatenate([self.c, np.zeros(kr)])
        self.lo = np.concatenate([self.lo, row_lo])
        self.hi = np.concatenate([self.hi, row_hi])
        self.bad_bounds = self.bad_bounds or bad
        self.singles = None
        # B' = [[B, 0], [C, -I]] with C the new rows over the old basis, so
        # B'^-1 = [[B^-1, 0], [C B^-1, -I]]: each stored column gains its
        # entries C W on the new rows (C is zero on basic logicals), and the
        # new rows' logicals are basic at the new positions.
        m, k = m_old + kr, self._k
        w = np.empty((min(n, m), m))
        w[:k, :m_old] = self._w[:k]
        if k:
            structural = (self.basis < n).nonzero()[0]
            w[:k, m_old:] = (block[:, self.basis[structural]] @ self._w[:k, structural].T).T
        self._w = w
        if len(w) > len(self._at):
            at = np.empty((len(w), n))
            at[:k] = self._at[:k]
            self._at = at
        new = np.arange(m_old, m)
        self._order = np.concatenate([self._order, new])
        self._slot = np.concatenate([self._slot, new])
        self._lpos = np.concatenate([self._lpos, new])
        self.basis = np.concatenate([self.basis, n + new])
        self.status = np.concatenate([self.status, np.full(kr, _BASIC, dtype=np.int8)])
        self.pulled = np.concatenate([self.pulled, np.zeros(kr, dtype=bool)])
        self.x_basic = np.concatenate([self.x_basic, block @ x_old[:n]])
        if self._d is not None:  # y is unchanged, the new logicals basic
            self._d = np.concatenate([self._d, np.zeros(kr)])

    def set_bounds(self, j: int, lo: float, hi: float):
        """Narrow variable j's bounds to [lo, hi].  They may only narrow: the
        logicals' bounds were tightened over the current box, and stay valid
        inside it but not outside."""
        if not 0 <= j < self.nstruct:
            raise ValueError("variable index out of range")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("bounds must be finite")
        if lo > hi:
            raise ValueError("lower bound exceeds upper bound")
        if lo < self.lo[j] or hi > self.hi[j]:
            raise ValueError(f"bounds [{lo:g}, {hi:g}] are not inside variable {j}'s "
                             f"current [{self.lo[j]:g}, {self.hi[j]:g}]")
        if self.presolved is not None and j in self.presolved.cols:
            self._restore()
        if self.status[j] == _BASIC:
            self.lo[j], self.hi[j] = lo, hi
            return
        old = self.lo[j] if self.status[j] == _AT_LOWER else self.hi[j]
        self.lo[j], self.hi[j] = lo, hi
        new = min(max(old, lo), hi)
        if new != old:
            self.x_basic -= self._column(j) * (new - old)
        self.status[j] = _AT_LOWER if abs(new - lo) <= abs(new - hi) else _AT_UPPER

    def _restore(self):
        """Append the rows the presolve dropped back, their logicals basic."""
        p, self.presolved = self.presolved, None
        self.add_rows(p.dropped)

    def remove_rows(self, rows) -> "_Engine":
        """A copy, only A[T] copied whole, without the given rows, whose
        logicals must be basic (ValueError for any other).  Row i's logical is
        at basis position p, so B loses row i and column p, B^-1 row p and
        column i, W column p: x, y and each reduced cost stay, so an optimal
        basis stays optimal.  A pulled row returns to the pool, which holds it."""
        n, m = self.nstruct, self.m
        rows = np.asarray(rows, dtype=np.intp)
        if ((rows < 0) | (rows >= m)).any() or (self.status[n + rows] != _BASIC).any():
            raise ValueError("only rows whose logicals are basic can be removed")
        kept, at = np.ones(m, dtype=bool), np.ones(m, dtype=bool)  # rows, basis positions
        kept[rows] = at[self._lpos[self._slot[rows]]] = False
        row_to, pos_to = np.cumsum(kept) - 1, np.cumsum(at) - 1
        stay = kept[self._order]  # the removed rows are all at [k:]
        e = copy.copy(self)
        e._order, e._lpos = row_to[self._order[stay]], pos_to[self._lpos[stay]]
        e._slot = np.argsort(e._order)
        e.basis = np.concatenate([np.arange(n), n + row_to])[self.basis[at]]
        cols = np.concatenate([np.ones(n, dtype=bool), kept])
        e.c, e.lo, e.hi, e.status = (v[cols] for v in (self.c, self.lo, self.hi, self.status))
        e.a, e.x_basic, e.pulled = self.a[kept], self.x_basic[at], self.pulled[kept]
        e._w, e._at = self._w[:min(n, e.m), at], self._at[:min(n, e.m)].copy()
        e.singles = e._d = None
        e._since_refactor = e.pivots = e.refactors = 0
        return e

    # -- extraction ------------------------------------------------------------

    def values(self) -> np.ndarray:
        x = np.where(self.status == _AT_UPPER, self.hi, self.lo)
        x[self.basis] = self.x_basic
        return x


def _finish(engine: _Engine, status: LpStatus, warm_fallback: bool = False) -> LpSolution:
    counts = dict(pivots=engine.pivots, refactors=engine.refactors,
                  warm_fallback=warm_fallback)
    if status is LpStatus.INFEASIBLE:
        return LpSolution(LpStatus.INFEASIBLE, None, math.inf, engine, **counts)
    x = engine.values()
    value, x, p = float(engine.c @ x), x[:engine.nstruct], engine.presolved
    if p is not None:  # put each left-out row's activity nearest into its bounds
        s = p.dropped.a @ x - p.coef * x[p.cols]
        t = (np.minimum(np.maximum(s, p.dropped.lo), p.dropped.hi) - s) / p.coef
        x[p.cols] = np.minimum(np.maximum(t, engine.lo[p.cols]), engine.hi[p.cols])
    return LpSolution(LpStatus.OPTIMAL, x, value, engine, **counts)


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP from scratch; Optimal with a vertex optimum or Infeasible."""
    engine = _Engine(problem)
    return _finish(engine, engine.optimize_scratch())


def _resolve(engine: _Engine) -> LpSolution:
    try:
        return _finish(engine, engine.optimize_warm())
    except LpSolverError:
        return _finish(engine, engine.optimize_scratch(), warm_fallback=True)


def add_rows_resolve(solution: LpSolution, rows) -> LpSolution:
    """Re-optimize with extra rows appended; prior solution must be Optimal.

    `rows` is a Rows block, taken as it is, or LpRows and plain tuples
    (`Rows.parse`).
    """
    if not solution.optimal:
        raise ValueError("can only add rows to an optimal state")
    rows = Rows.parse(rows, solution.state.nstruct)
    engine = solution.state.clone()
    engine.add_rows(rows)
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


def remove_rows(solution: LpSolution, rows) -> LpSolution:
    """The same optimum, x and value, without the given rows of its engine
    (`state`), whose logicals must be basic (`_Engine.remove_rows`)."""
    if not solution.optimal:
        raise ValueError("can only remove rows from an optimal state")
    return LpSolution(LpStatus.OPTIMAL, solution.x, solution.value,
                      solution.state.remove_rows(rows))


def is_integral(x) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(np.abs(x - np.round(x)) <= INTEGRALITY_TOL))


def dump_lp(problem: LpProblem) -> str:
    """Line-oriented deterministic text dump of an LpProblem (debug aid)."""
    out = ["minimize"]
    terms = [f"{c:+g} x{j}" for j, c in enumerate(problem.objective.tolist()) if c]
    out.append("  " + (" ".join(terms) if terms else "0"))
    out.append("subject to")
    rows = problem.rows
    for i, (coeffs, lo, hi) in enumerate(zip(rows.a, rows.lo.tolist(), rows.hi.tolist())):
        body = " ".join(f"{coeffs[j]:+g} x{j}" for j in np.flatnonzero(coeffs).tolist())
        bounds = f"= {lo:g}" if lo == hi else " ".join(
            f"{sense} {b:g}" for sense, b in ((">=", lo), ("<=", hi)) if math.isfinite(b))
        out.append(f"  r{i}: {body} {bounds}")
    out.append("bounds")
    for j, (lo, hi) in enumerate(zip(problem.lower.tolist(), problem.upper.tolist())):
        out.append(f"  {lo:g} <= x{j} <= {hi:g}")
    return "\n".join(out) + "\n"
