"""Decoders: LP decoding, adaptive separation, cutting planes, guessing
heuristics, branch & bound ML, fractional distance, neighborhood repair,
and message-passing baselines.

Every LP-based decoder certifies ML exactly when its relaxation returns an
integral optimum that is a codeword; all relaxations here contain the
codeword polytope, so such a point minimizes the objective over the code.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, product

import numpy as np

from .channels import hard_decision
from .formulations import (Formulation, FsInequality, build_formulation,
                           matrix_adaptation_cut_search, most_violated_fs_cut,
                           row_fs_cuts, rpc_cycle_cut_search)
from .gf2 import LinearCode, _gauss_jordan, syndrome
from .simplex import (_TIE_EPS, COST_TOL, FEAS_TOL, INTEGRALITY_TOL, LpSolution,
                      LpSolverError, add_rows_resolve, fix_variable_resolve,
                      is_integral, make_problem, solve)


class DecodeStatus(Enum):
    ML_CERTIFIED = "ml_certified"
    CODEWORD_FOUND = "codeword_found"
    FRACTIONAL_FAILURE = "fractional_failure"
    SOLVER_ERROR = "solver_error"


@dataclass
class DecodeStats:
    """Per-decode counts; `pivots`, `refactors` and `warm_fallbacks` sum the
    kernel work of every LP solve the decode finished."""

    lp_solves: int = 0
    cuts_added: int = 0
    iterations: int = 0
    branch_nodes: int = 0
    wall_time: float = 0.0
    final_rows: int = 0
    pivots: int = 0
    refactors: int = 0
    warm_fallbacks: int = 0

    def tally(self, sol: LpSolution) -> LpSolution:
        """Count one finished LP solve; returns it."""
        self.lp_solves += 1
        self.pivots += sol.pivots
        self.refactors += sol.refactors
        self.warm_fallbacks += sol.warm_fallback
        return sol


@dataclass
class DecodeResult:
    status: DecodeStatus
    point: np.ndarray | None
    value: float
    stats: DecodeStats = field(default_factory=DecodeStats)

    @property
    def success(self) -> bool:
        return self.status in (DecodeStatus.ML_CERTIFIED, DecodeStatus.CODEWORD_FOUND)

    def codeword(self) -> np.ndarray:
        if self.point is None:
            raise ValueError("no point available")
        return np.round(np.asarray(self.point, dtype=float)).astype(np.uint8)


@dataclass
class DecoderConfig:
    """Knobs shared by the harness; every field has a working default."""

    formulation: str = "fs"
    searchers: tuple[str, ...] = ("adaptation",)
    base: str = "parity_relax"
    max_rounds: int = 100
    max_iterations: int = 50
    max_nodes: int = 100_000
    max_depth: int | None = None
    depth: int = 8
    subset_size: int = 2
    num_faces: int | None = None
    guess_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("max_rounds", "max_iterations", "max_nodes", "depth",
                     "subset_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("max_depth", "num_faces"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int) or value < 1):
                raise ValueError(f"{name} must be None or a positive int, "
                                 f"got {value!r}")


def _certified(code: LinearCode, x) -> bool:
    """x is an integral codeword, so as an LP optimum it is the ML word."""
    if not is_integral(x):
        return False
    bits = np.round(np.asarray(x, dtype=float)).astype(np.uint8)
    return not syndrome(code.H, bits).any()


def _solver_error(stats: DecodeStats, t0: float) -> DecodeResult:
    stats.wall_time = time.perf_counter() - t0
    return DecodeResult(DecodeStatus.SOLVER_ERROR, None, math.nan, stats)


def _root(code: LinearCode, llr, formulation: str,
          stats: DecodeStats) -> tuple[Formulation, LpSolution]:
    """Build and solve the root relaxation; LpSolverError unless optimal."""
    form = build_formulation(code, formulation, llr)
    sol = stats.tally(solve(form.lp))
    if not sol.optimal:
        raise LpSolverError("root relaxation not optimal")
    return form, sol


class _Incumbent:
    """The best integral codeword a search has met.

    Its value is the codeword's exact cost llr @ point, not the LP value of
    the solve that found it.  A candidate wins when that cost is lower by
    more than COST_TOL, or ties within COST_TOL and is lexicographically
    smaller: the brute-force oracle's convention.  Searches prune nodes that
    cannot win.
    """

    def __init__(self, code: LinearCode, llr: np.ndarray):
        self.code = code
        self.llr = llr
        self.value = math.inf
        self.point: np.ndarray | None = None

    def offer(self, sol: LpSolution) -> bool:
        """Keep the optimal solution sol if it wins; True if it is a codeword."""
        x = sol.x[:self.code.n]
        if not _certified(self.code, x):
            return False
        point = np.round(x).astype(np.uint8)
        value = float(self.llr @ point)
        if (value < self.value - COST_TOL
                or (abs(value - self.value) <= COST_TOL and self.point is not None
                    and tuple(point) < tuple(self.point))):
            self.value = value
            self.point = point
        return True

    def prunes(self, value: float) -> bool:
        return value >= self.value - COST_TOL

    def result(self, complete: bool, relaxed: LpSolution, stats: DecodeStats,
               t0: float) -> DecodeResult:
        """The incumbent (ML_CERTIFIED if the search was complete, else
        CODEWORD_FOUND), or without one the relaxed optimum as
        FRACTIONAL_FAILURE."""
        stats.wall_time = time.perf_counter() - t0
        if self.point is None:
            return DecodeResult(DecodeStatus.FRACTIONAL_FAILURE,
                                relaxed.x[:self.code.n].copy(), relaxed.value, stats)
        status = DecodeStatus.ML_CERTIFIED if complete else DecodeStatus.CODEWORD_FOUND
        return DecodeResult(status, self.point, self.value, stats)


def _finish_lp_result(code: LinearCode, llr: np.ndarray, sol: LpSolution,
                      stats: DecodeStats, t0: float) -> DecodeResult:
    """ML_CERTIFIED if the optimum sol is an integral codeword, else
    FRACTIONAL_FAILURE."""
    incumbent = _Incumbent(code, llr)
    return incumbent.result(incumbent.offer(sol), sol, stats, t0)


def _search_from_root(code: LinearCode, llr, formulation: str,
                      search=None) -> DecodeResult:
    """The shared scaffold of the LP search decoders.

    Solves the root relaxation and returns ML_CERTIFIED when its optimum is
    an integral codeword.  Otherwise `search(form, root, incumbent, stats)`
    offers its candidates to the incumbent and returns True if it covered
    the whole code; the result is the incumbent (ML_CERTIFIED after a
    complete search, else CODEWORD_FOUND) or, with none, the root
    pseudocodeword as FRACTIONAL_FAILURE.  Solver trouble anywhere gives
    SOLVER_ERROR.
    """
    t0 = time.perf_counter()
    llr = np.asarray(llr, dtype=float)
    stats = DecodeStats()
    incumbent = _Incumbent(code, llr)
    try:
        form, root = _root(code, llr, formulation, stats)
        stats.final_rows = len(form.lp.rows)
        complete = incumbent.offer(root)
        if not complete and search is not None:
            complete = search(form, root, incumbent, stats)
    except LpSolverError:
        return _solver_error(stats, t0)
    return incumbent.result(complete, root, stats, t0)


def lp_decode(code: LinearCode, llr, formulation: str = "fs") -> DecodeResult:
    """Bare LP decoding: solve one relaxation, certify if integral."""
    return _search_from_root(code, llr, formulation)


def adaptive_lp_decode(code: LinearCode, llr, drop_inactive: bool = False,
                       max_iterations: int | None = None) -> DecodeResult:
    """Separation-based LP decoding starting from the bare box LP.

    Each iteration adds the most violated forbidden-set inequality of every
    check and re-solves; it stops when no check is violated, at which point
    the value equals the full forbidden-set LP optimum.  With
    `drop_inactive`, rows that are not tight are discarded each iteration
    and separation skips checks that already have a tight row, keeping at
    most one row per check in the problem (at the price of more
    iterations).
    """
    t0 = time.perf_counter()
    llr = np.asarray(llr, dtype=float)
    n, h = code.n, code.H
    stats = DecodeStats()
    if max_iterations is None:
        max_iterations = n if not drop_inactive else 10 * n + 20
    try:
        sol = stats.tally(solve(make_problem(n, llr, [])))
        current: list[tuple[int, FsInequality]] = []
        while True:
            x = sol.x[:n]
            skip: set[int] = set()
            if drop_inactive:
                kept = []
                for ci, ineq in current:
                    if ci not in skip and abs(ineq.violation(x)) <= FEAS_TOL:
                        kept.append((ci, ineq))
                        skip.add(ci)
                current = kept
            new = []
            for i, support in enumerate(h.layout.supports):
                if support and i not in skip:
                    cut = most_violated_fs_cut(support, x)
                    if cut is not None:
                        new.append((i, cut))
            if not new:
                break
            current.extend(new)
            if drop_inactive:
                sol = solve(make_problem(
                    n, llr, [ineq.as_lp_row() for _, ineq in current]))
            else:
                sol = add_rows_resolve(sol, [ineq.as_lp_row() for _, ineq in new])
            stats.tally(sol)
            stats.cuts_added += len(new)
            stats.iterations += 1
            if stats.iterations > max_iterations:
                return _solver_error(stats, t0)
            if not sol.optimal:
                return _solver_error(stats, t0)
    except LpSolverError:
        return _solver_error(stats, t0)
    stats.final_rows = len(current)
    return _finish_lp_result(code, llr, sol, stats, t0)


_SEARCHERS = {
    "adaptation": lambda h, x, seed: matrix_adaptation_cut_search(h, x),
    "cycle": lambda h, x, seed: rpc_cycle_cut_search(h, x, rng_seed=seed),
}


def cutting_plane_decode(code: LinearCode, llr, searchers=("adaptation",),
                         base: str = "parity_relax", max_rounds: int = 100,
                         rng_seed: int = 0) -> DecodeResult:
    """Generic cutting-plane loop over a base relaxation.

    Every round first separates the original rows, then runs the given
    redundant-parity-check searchers in order until one yields cuts; all
    cuts are valid for the codeword polytope, so an integral codeword
    optimum is the ML word.  Searchers are names ("adaptation", "cycle")
    or callables (H, x, seed) -> [FsInequality].
    """
    t0 = time.perf_counter()
    llr = np.asarray(llr, dtype=float)
    stats = DecodeStats()
    chain = [_SEARCHERS[s] if isinstance(s, str) else s for s in searchers]
    seen: set[tuple] = set()
    try:
        form, sol = _root(code, llr, base, stats)
        for _ in range(max_rounds):
            if not sol.optimal:
                return _solver_error(stats, t0)
            x = sol.x[:code.n]
            if _certified(code, x):
                break
            cuts = [c for c in row_fs_cuts(code.H, x)
                    if (c.support, c.odd_subset) not in seen]
            if not cuts:
                for searcher in chain:
                    cuts = [c for c in searcher(code.H, x, rng_seed + stats.iterations)
                            if (c.support, c.odd_subset) not in seen]
                    if cuts:
                        break
            if not cuts:
                break
            for c in cuts:
                seen.add((c.support, c.odd_subset))
            sol = stats.tally(add_rows_resolve(sol, [c.as_lp_row() for c in cuts]))
            stats.cuts_added += len(cuts)
            stats.iterations += 1
    except LpSolverError:
        return _solver_error(stats, t0)
    stats.final_rows = len(form.lp.rows) + stats.cuts_added
    return _finish_lp_result(code, llr, sol, stats, t0)


def fractional_distance(code: LinearCode, formulation: str = "fs") -> float:
    """Minimum weight of a nonzero vertex of the relaxation polytope.

    Minimizes the bit-sum over every face that excludes the origin (rows
    with nonzero right-hand side, plus the upper box faces); the smallest
    optimum over those faces is the fractional distance.  With the
    cascade formulation only full-support degree-3 rows are used.
    """
    form, base = _root(code, np.ones(code.n), formulation, DecodeStats())
    best = math.inf
    for row, tag in zip(form.lp.rows, form.row_tags):
        if tag[0] != "fs" or row.rhs <= 0:
            continue
        if formulation == "cascade" and (len(tag[2]) != 3 or len(tag[3]) != 3):
            continue
        faced = add_rows_resolve(base, [(row.coeffs, ">=", row.rhs)])
        if faced.optimal:
            best = min(best, faced.value)
    if formulation != "cascade":
        for j in range(code.n):
            faced = fix_variable_resolve(base, j, 1.0)
            if faced.optimal:
                best = min(best, faced.value)
    return float(best)


def facet_guessing_decode(code: LinearCode, llr, mode: str = "exhaustive",
                          num_faces: int | None = None,
                          rng_seed: int = 0) -> DecodeResult:
    """Re-optimize on faces not active at a failed LP optimum.

    Candidate faces are the forbidden-set rows and box faces that the
    pseudocodeword does not touch; each face LP that comes back integral
    proposes a codeword, and the cheapest proposal wins (without an ML
    certificate).  It keeps the full forbidden-set root, since the faces it
    enumerates are that description's rows.
    """
    if mode not in ("exhaustive", "random"):
        raise ValueError("mode must be 'exhaustive' or 'random'")

    def search(form, root, incumbent, stats):
        x = root.x[:code.n]
        active = set(root.active_rows)
        faces = [([(row.coeffs, ">=", row.rhs)], None)
                 for ri, row in enumerate(form.lp.rows) if ri not in active]
        for j in range(code.n):
            if x[j] > FEAS_TOL:
                faces.append((None, (j, 0.0)))
            if x[j] < 1.0 - FEAS_TOL:
                faces.append((None, (j, 1.0)))
        if mode == "random" and num_faces is not None and num_faces < len(faces):
            rng = np.random.default_rng(rng_seed)
            idx = rng.choice(len(faces), size=num_faces, replace=False)
            faces = [faces[int(i)] for i in sorted(idx)]
        for rows, pin in faces:
            cand = stats.tally(add_rows_resolve(root, rows) if pin is None
                               else fix_variable_resolve(root, *pin))
            if cand.optimal:
                incumbent.offer(cand)
        return False

    return _search_from_root(code, llr, "fs", search)


def bit_guessing_decode(code: LinearCode, llr, c: float = 1.0,
                        rng_seed: int = 0) -> DecodeResult:
    """Fix ceil(c log2 n) random bits every possible way and keep the best
    integral re-solve."""
    if c < 1:
        raise ValueError("c must be at least 1")

    def search(form, root, incumbent, stats):
        k = min(code.n, math.ceil(c * math.log2(max(code.n, 2))))
        rng = np.random.default_rng(rng_seed)
        positions = sorted(int(j) for j in rng.choice(code.n, size=k, replace=False))
        for bits in product((0.0, 1.0), repeat=k):
            cand = stats.tally(fix_variable_resolve(root, positions, bits))
            if cand.optimal:
                incumbent.offer(cand)
        return False

    return _search_from_root(code, llr, "fs", search)


def _least_certain(x, count: int) -> list[int]:
    """Up to `count` fractional coordinates, closest to 1/2 first (lowest
    index among ties)."""
    frac = [j for j in range(len(x)) if INTEGRALITY_TOL < x[j] < 1 - INTEGRALITY_TOL]
    return sorted(frac, key=lambda j: (abs(x[j] - 0.5), j))[:count]


def branch_and_bound_decode(code: LinearCode, llr, formulation: str = "fs",
                            max_nodes: int = 100_000,
                            max_depth: int | None = None) -> DecodeResult:
    """Depth-first LP branch & bound; exact ML when the tree is exhausted.

    Branches on the fractional variable closest to 1/2 (on the lowest
    unfixed one at an integral non-codeword) with the 0-child explored
    first; nodes are pruned at incumbent value minus COST_TOL.
    """
    n = code.n

    def search(form, root, incumbent, stats):
        exhausted = True
        # stack entries: (parent solution, var, value, depth, fixed set)
        stack: list[tuple] = []

        def branch(sol: LpSolution, depth: int, fixed: set[int]):
            nonlocal exhausted
            x = sol.x[:n]
            if is_integral(x) and len(fixed) >= n:
                return
            if max_depth is not None and depth >= max_depth:
                exhausted = False
                return
            # pinned bits are integral, so a fractional bit is never fixed
            frac = _least_certain(x, 1)
            j = frac[0] if frac else min(set(range(n)) - fixed)
            child_fixed = fixed | {j}
            stack.append((sol, j, 1.0, depth + 1, child_fixed))
            stack.append((sol, j, 0.0, depth + 1, child_fixed))

        branch(root, 0, set())
        while stack:
            if stats.branch_nodes >= max_nodes:
                return False
            parent, j, v, depth, fixed = stack.pop()
            if incumbent.prunes(parent.value):
                continue
            child = stats.tally(fix_variable_resolve(parent, j, v))
            stats.branch_nodes += 1
            if (child.optimal and not incumbent.offer(child)
                    and not incumbent.prunes(child.value)):
                branch(child, depth, fixed)
        return exhausted

    return _search_from_root(code, llr, formulation, search)


def variable_depth_decode(code: LinearCode, llr, depth: int = 8) -> DecodeResult:
    """Breadth-first search of bounded depth over the least certain bits;
    solves at most 2^(depth+1) - 1 LPs."""
    if depth < 1:
        raise ValueError("depth must be positive")

    def search(form, root, incumbent, stats):
        level = [root]
        for t in _least_certain(root.x[:code.n], depth):
            nxt = []
            for sol in level:
                if incumbent.prunes(sol.value):
                    continue
                for v in (0.0, 1.0):
                    child = stats.tally(fix_variable_resolve(sol, t, v))
                    stats.branch_nodes += 1
                    if (child.optimal and not incumbent.offer(child)
                            and not incumbent.prunes(child.value)):
                        nxt.append(child)
            level = nxt
        return False

    return _search_from_root(code, llr, "fs", search)


def constant_depth_decode(code: LinearCode, llr, depth: int = 8,
                          subset_size: int = 2) -> DecodeResult:
    """Iterate fixed-size subsets of the least certain bits; for each
    subset all 2^m assignments are solved and the first subset whose best
    solution is integral wins.  Worst case C(depth, m) 2^m + 1 LPs."""
    if not 1 <= subset_size <= depth:
        raise ValueError("need 1 <= subset_size <= depth")

    def search(form, root, incumbent, stats):
        targets = _least_certain(root.x[:code.n], depth)
        for positions in combinations(targets, min(subset_size, len(targets))):
            best = None
            for bits in product((0.0, 1.0), repeat=len(positions)):
                cand = stats.tally(fix_variable_resolve(root, positions, bits))
                if cand.optimal and (best is None or cand.value < best.value):
                    best = cand
            if best is not None and incumbent.offer(best):
                break
        return False

    return _search_from_root(code, llr, "fs", search)


def neighborhood_search(code: LinearCode, llr, exchange_depth: int = 1,
                        max_moves: int | None = None) -> np.ndarray:
    """Hard-decision repair: solve the syndrome on the least reliable
    positions, then steepest-descent exchanges of one (or two) error
    positions until locally optimal.  Always returns a codeword;
    `max_moves=0` returns the repair start point itself."""
    if exchange_depth not in (1, 2):
        raise ValueError("exchange_depth must be 1 or 2")
    llr = np.asarray(llr, dtype=float)
    n, h = code.n, code.H
    y = hard_decision(llr)
    s = syndrome(h, y)
    reliab = np.abs(llr)
    order = sorted(range(n), key=lambda j: (reliab[j], j))
    # GF(2) Jordan elimination of [H | s] with columns tried least reliable
    # first; pivot columns become the basic (solved) error positions.
    aug = [h.rows[i] | (int(s[i]) << n) for i in range(h.m)]
    pivot_cols = _gauss_jordan(aug, order)
    r = len(pivot_cols)
    if any((word >> n) & 1 for word in aug[r:]):
        raise ValueError("inconsistent syndrome system: rank-deficient input")
    pivots = set(pivot_cols)
    free_cols = [j for j in order if j not in pivots]
    # basic pattern and per-free-column flip masks over the pivot rows
    basic = np.array([(aug[t] >> n) & 1 for t in range(r)], dtype=bool)
    flip = {f: np.array([(aug[t] >> f) & 1 for t in range(r)], dtype=bool)
            for f in free_cols}
    wb = reliab[pivot_cols] if r else np.zeros(0)
    e_free = {f: 0 for f in free_cols}

    def try_move(cols):
        mask = basic.copy()
        delta = 0.0
        for f in cols:
            mask ^= flip[f]
            delta += reliab[f] * (1 - 2 * e_free[f])
        delta += float(wb @ mask) - float(wb @ basic)
        return delta, mask

    moves_done = 0
    improved = True
    while improved and (max_moves is None or moves_done < max_moves):
        improved = False
        best_delta, best_cols, best_mask = -_TIE_EPS, None, None
        singles = [(f,) for f in free_cols]
        moves = singles if exchange_depth == 1 else \
            singles + [c for c in combinations(free_cols, 2)]
        for cols in moves:
            delta, mask = try_move(cols)
            if delta < best_delta:
                best_delta, best_cols, best_mask = delta, cols, mask
        if best_cols is not None:
            for f in best_cols:
                e_free[f] ^= 1
            basic = best_mask
            improved = True
            moves_done += 1
    e = np.zeros(n, dtype=np.uint8)
    for f, b in e_free.items():
        e[f] = b
    for t, col in enumerate(pivot_cols):
        e[col] = int(basic[t])
    return (y ^ e).astype(np.uint8)


def _message_passing(code: LinearCode, llr, max_iterations: int,
                     use_min_sum: bool) -> DecodeResult:
    """Flooding on the padded check-major layout, a few whole-array ops per
    iteration, bit-identical to applying each check's rule in turn.  Padding
    carries c2v = 0 into the dummy column n: an edgeless check sends nothing."""
    t0 = time.perf_counter()
    llr = np.asarray(llr, dtype=float)
    n = code.n
    stats = DecodeStats()
    cols, mask = code.H.layout.cols, code.H.layout.mask
    positions = np.arange(cols.shape[1])
    c2v = np.zeros(cols.shape)
    totals = np.append(llr + 0.0, 0.0)  # llr plus the sums of c2v = 0
    for it in range(1, max_iterations + 1):
        stats.iterations = it
        v2c = np.clip(totals[cols] - c2v, -50.0, 50.0)
        if use_min_sum:
            # sign parity, then the smallest magnitude goes to every edge but
            # its own, which gets the second smallest (+inf past degree 1)
            signs = np.where(mask & (v2c < 0), -1.0, 1.0)
            mags = np.where(mask, np.abs(v2c), np.inf)
            low = mags.argmin(axis=1)[:, None]
            m1 = np.take_along_axis(mags, low, axis=1)
            np.put_along_axis(mags, low, np.inf, axis=1)
            m2 = mags.min(axis=1, keepdims=True)
            out = signs.prod(axis=1, keepdims=True) * signs * np.where(
                positions == low, m2, m1)
        else:
            # exclusive prefix and suffix products, padding with 1.0
            t = np.where(mask, np.tanh(v2c / 2.0), 1.0)
            ones = np.ones((len(t), 1))
            front = np.cumprod(np.hstack([ones, t[:, :-1]]), axis=1)
            back = np.cumprod(np.hstack([ones, t[:, :0:-1]]), axis=1)[:, ::-1]
            out = 2.0 * np.arctanh(np.clip(front * back, -0.9999999999, 0.9999999999))
        c2v = np.where(mask, np.clip(out, -50.0, 50.0), 0.0)
        totals = np.bincount(cols.ravel(), weights=c2v.ravel(), minlength=n + 1)
        totals[:n] += llr
        bits = (totals[:n] < 0).astype(np.uint8)
        if not syndrome(code.H, bits).any():
            stats.wall_time = time.perf_counter() - t0
            return DecodeResult(DecodeStatus.CODEWORD_FOUND, bits,
                                float(llr @ bits), stats)
    stats.wall_time = time.perf_counter() - t0
    probs = 1.0 / (1.0 + np.exp(np.clip(totals[:n], -50, 50)))
    return DecodeResult(DecodeStatus.FRACTIONAL_FAILURE, probs,
                        float(llr @ probs), stats)


def min_sum_decode(code: LinearCode, llr, max_iterations: int = 50) -> DecodeResult:
    """Min-sum flooding; stops early on a zero-syndrome hard decision.
    The output is never ML-certified."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")
    return _message_passing(code, llr, max_iterations, use_min_sum=True)


def sum_product_decode(code: LinearCode, llr, max_iterations: int = 50) -> DecodeResult:
    """Sum-product flooding with the tanh rule; stops early on a
    zero-syndrome hard decision."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")
    return _message_passing(code, llr, max_iterations, use_min_sum=False)


def make_decoder(name: str, config: DecoderConfig | None = None):
    """Decoder registry for the harness and CLI; returns f(code, llr)."""
    cfg = config or DecoderConfig()
    table = {
        "lp": lambda c, l: lp_decode(c, l, cfg.formulation),
        "adaptive_lp": lambda c, l: adaptive_lp_decode(c, l, drop_inactive=False),
        "adaptive_lp_drop": lambda c, l: adaptive_lp_decode(c, l, drop_inactive=True),
        "cutting_plane": lambda c, l: cutting_plane_decode(
            c, l, cfg.searchers, cfg.base, cfg.max_rounds, cfg.seed),
        "branch_and_bound": lambda c, l: branch_and_bound_decode(
            c, l, cfg.formulation, cfg.max_nodes, cfg.max_depth),
        "variable_depth": lambda c, l: variable_depth_decode(c, l, cfg.depth),
        "constant_depth": lambda c, l: constant_depth_decode(
            c, l, cfg.depth, cfg.subset_size),
        "facet_guessing": lambda c, l: facet_guessing_decode(
            c, l, "exhaustive" if cfg.num_faces is None else "random",
            cfg.num_faces, cfg.seed),
        "bit_guessing": lambda c, l: bit_guessing_decode(c, l, cfg.guess_scale, cfg.seed),
        "min_sum": lambda c, l: min_sum_decode(c, l, cfg.max_iterations),
        "sum_product": lambda c, l: sum_product_decode(c, l, cfg.max_iterations),
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown decoder {name!r}; options: {sorted(table)}")
