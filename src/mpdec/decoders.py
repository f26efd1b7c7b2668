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
from functools import partial
from itertools import combinations, product

import numpy as np

from .channels import checked_llrs, hard_decision
# most_violated_fs_cut is unused here but stays importable by this name,
# where perfbench traces it.
from .formulations import (FORMULATIONS, Formulation, FsCuts, _least_certain,
                           build_formulation, matrix_adaptation_cut_search,
                           most_violated_fs_cut, row_fs_cuts, rpc_cycle_cut_search)
from .gf2 import LinearCode, _gauss_jordan, syndrome
from .simplex import (_TIE_EPS, COST_TOL, FEAS_TOL, LpSolution, LpSolverError,
                      add_rows_resolve, fix_variable_resolve, is_integral, make_problem,
                      remove_rows, solve)

_FS_ROOT_ROWS = 1 << 11  # the largest fs LP branch & bound builds


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
                     "subset_size", "max_depth", "num_faces", "seed"):
            value = getattr(self, name)
            if value is None and name in ("max_depth", "num_faces"):
                continue
            least = 0 if name == "seed" else 1
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")
        if self.subset_size > self.depth:
            raise ValueError(f"subset_size must not exceed depth, got "
                             f"{self.subset_size} > {self.depth}")
        scale = self.guess_scale
        if (isinstance(scale, bool) or not isinstance(scale, (int, float))
                or not 1 <= scale < math.inf):
            raise ValueError(f"guess_scale must be a finite number of at least 1, "
                             f"got {scale!r}")
        for name in ("formulation", "base"):
            if getattr(self, name) not in FORMULATIONS:
                raise ValueError(f"{name} must be one of {FORMULATIONS}, "
                                 f"got {getattr(self, name)!r}")
        for s in self.searchers:
            _searcher(s)


def _decode(n: int, llr, body) -> DecodeResult:
    """The frame of every decode: check the n LLRs (`checked_llrs`), run
    body(llr, stats) -> (status, point, value), give SOLVER_ERROR if it
    raises LpSolverError, and stamp the wall time."""
    t0 = time.perf_counter()
    llr, stats = checked_llrs(llr, n), DecodeStats()
    try:
        status, point, value = body(llr, stats)
    except LpSolverError:
        status, point, value = DecodeStatus.SOLVER_ERROR, None, math.nan
    stats.wall_time = time.perf_counter() - t0
    return DecodeResult(status, point, value, stats)


def _certified(code: LinearCode, x) -> bool:
    """x is an integral codeword, so as an LP optimum it is the ML word."""
    if not is_integral(x):
        return False
    bits = np.round(np.asarray(x, dtype=float)).astype(np.uint8)
    return not syndrome(code.H, bits).any()


def _separate_until_clean(sol: LpSolution, stats: DecodeStats, code: LinearCode,
                          max_rounds: float = math.inf, searchers=(), seed: int = 0,
                          drop: bool = False) -> LpSolution:
    """The one separation loop: add the most violated forbidden-set row of
    every check, or at a clean non-codeword the cuts of the first of the
    `searchers` (H, x, seed + iterations) -> cuts that yields any, and warm
    re-solve (one iteration), then with `drop` remove the rows it added whose
    logicals are basic (`remove_rows`).  Returns the last solution: once
    nothing is added, after `max_rounds` re-solves, or when one is not optimal.

    Cuts from the separation arrays (`FsCuts`, which `row_fs_cuts` and the
    built-in searchers return) reach `add_rows_resolve` as one `Rows` block
    made from those arrays; other cut lists as their `as_lp_row`s, which it
    parses."""
    start, first = stats.iterations, sol.state.m
    while sol.optimal and stats.iterations - start < max_rounds:
        x = sol.x[:code.n]
        cuts = row_fs_cuts(code.H, x)
        if not cuts and searchers and not _certified(code, x):
            for searcher in searchers:
                cuts = searcher(code.H, x, seed + stats.iterations)
                if cuts:
                    break
        if not cuts:
            break
        rows = (cuts.lp_rows(len(sol.x)) if isinstance(cuts, FsCuts)
                else [c.as_lp_row() for c in cuts])
        sol = stats.tally(add_rows_resolve(sol, rows))
        if drop and sol.optimal:
            n, basis = sol.state.nstruct, sol.state.basis
            sol = remove_rows(sol, basis[basis >= n + first] - n)
        stats.cuts_added += len(cuts)
        stats.iterations += 1
    return sol


def _root(code: LinearCode, llr, formulation: str | None, stats: DecodeStats,
          separate=None) -> tuple[Formulation | None, LpSolution]:
    """Build and solve the root relaxation, the box LP when `formulation`
    is None (form None), then apply `separate(sol, stats)` if given;
    LpSolverError unless the result is optimal."""
    if formulation is None:
        form, sol = None, stats.tally(solve(make_problem(code.n, llr, [])))
    else:
        form = build_formulation(code, formulation, llr)
        sol = stats.tally(solve(form.lp))
    if separate is not None:
        sol = separate(sol, stats)
    if not sol.optimal:
        raise LpSolverError("root relaxation not optimal")
    stats.final_rows = sol.num_rows
    return form, sol


class _Incumbent:
    """The best integral codeword a search has met.

    Its value is the codeword's exact cost llr @ point, not the LP value of
    the solve that found it.  A candidate wins when that cost is lower by
    more than COST_TOL, or ties within COST_TOL and is lexicographically
    smaller: the brute-force oracle's convention.  Searches prune only nodes
    that cannot win.  Branch & bound (every node solved to the optimum of
    its relaxation) returns the oracle's codeword among ties, the other
    searches the smallest tied codeword they met, and a decoder that does
    not search whichever tied vertex its last solve ended at.
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

    def prunes(self, value: float, floor=None) -> bool:
        """No codeword costing at least value (and bitwise at least the 0/1
        word floor) can win."""
        return value > self.value + COST_TOL or (
            floor is not None and value >= self.value - COST_TOL
            and tuple(floor) >= tuple(self.point))

    def result(self, complete: bool, relaxed: LpSolution):
        """The incumbent (ML_CERTIFIED if the search was complete, else
        CODEWORD_FOUND), or without one the relaxed optimum as
        FRACTIONAL_FAILURE, as (status, point, value)."""
        if self.point is None:
            return (DecodeStatus.FRACTIONAL_FAILURE, relaxed.x[:self.code.n].copy(),
                    relaxed.value)
        status = DecodeStatus.ML_CERTIFIED if complete else DecodeStatus.CODEWORD_FOUND
        return status, self.point, self.value


def _search_from_root(code: LinearCode, formulation: str | None, llr,
                      stats: DecodeStats, search=None, separate=None):
    """The `_decode` body of the LP decoders.

    Solves the root relaxation (`_root`); an integral codeword optimum is
    ML_CERTIFIED, unless branch & bound (`search` and `separate` both
    given) goes on to look for tied smaller codewords.  Otherwise
    `search(form, root, incumbent, stats)` offers candidates to the
    incumbent and returns True if it covered the whole code; the result is
    the incumbent (ML_CERTIFIED after a complete search, else
    CODEWORD_FOUND) or the root pseudocodeword as FRACTIONAL_FAILURE.
    """
    incumbent = _Incumbent(code, llr)
    form, root = _root(code, llr, formulation, stats, separate)
    complete = incumbent.offer(root)
    if search is not None and (separate is not None or not complete):
        complete = search(form, root, incumbent, stats)
    return incumbent.result(complete, root)


def lp_decode(code: LinearCode, llr, formulation: str = "fs") -> DecodeResult:
    """Bare LP decoding: solve one relaxation, certify if integral."""
    return _decode(code.n, llr, partial(_search_from_root, code, formulation))


def adaptive_lp_decode(code: LinearCode, llr,
                       drop_inactive: bool = False) -> DecodeResult:
    """Separation-based LP decoding starting from the bare box LP.

    Each iteration adds the most violated forbidden-set inequality of every
    check and re-solves; it stops when no check is violated, at which point
    the value equals the full forbidden-set LP optimum, within n iterations
    (Taghavi & Siegel 2008; more is a SOLVER_ERROR).  `drop_inactive` drops
    the rows whose logicals are basic after each re-solve, in 10n + 20 rounds.
    """
    cap = 10 * code.n + 20 if drop_inactive else code.n

    def separate(sol, stats):
        sol = _separate_until_clean(sol, stats, code, max_rounds=cap + 1, drop=drop_inactive)
        if stats.iterations > cap:
            if sol.optimal:
                stats.final_rows = sol.num_rows
            raise LpSolverError(f"adaptive LP took more than {cap} rounds")
        return sol

    return _decode(code.n, llr, partial(_search_from_root, code, None, separate=separate))


_SEARCHERS = {
    "adaptation": lambda h, x, seed: matrix_adaptation_cut_search(h, x),
    "cycle": lambda h, x, seed: rpc_cycle_cut_search(h, x, rng_seed=seed),
}


def _searcher(s):
    """A searcher given by name or as a callable; ValueError for any other."""
    if callable(s):
        return s
    if s not in _SEARCHERS:
        raise ValueError(f"searchers must name searchers from "
                         f"{tuple(_SEARCHERS)} or be callables, got {s!r}")
    return _SEARCHERS[s]


def cutting_plane_decode(code: LinearCode, llr, searchers=("adaptation",),
                         base: str = "parity_relax", max_rounds: int = 100,
                         rng_seed: int = 0) -> DecodeResult:
    """The separation loop for at most `max_rounds` re-solves over a base
    relaxation built in full, with redundant-parity-check `searchers`: names
    ("adaptation", "cycle") or callables (H, x, seed) -> violated
    [FsInequality].  All cuts are valid for the codeword polytope, so an
    integral codeword optimum is the ML word.
    """
    chain = [_searcher(s) for s in searchers]
    return _decode(code.n, llr, partial(_search_from_root, code, base, separate=partial(
        _separate_until_clean, code=code, max_rounds=max_rounds, searchers=chain,
        seed=rng_seed)))


def fractional_distance(code: LinearCode, formulation: str = "fs") -> float:
    """Minimum weight of a nonzero vertex of the relaxation polytope.

    Minimizes the bit-sum over every face that excludes the origin (the
    forbidden-set rows with nonzero right-hand side, plus the upper box
    faces); the smallest optimum over those faces is the fractional
    distance.  With the cascade formulation only full-support degree-3 rows
    are used.  Only "fs" and "cascade" tag those rows, so other formulations
    raise ValueError.
    """
    if formulation not in ("fs", "cascade"):
        raise ValueError(f"fractional_distance needs the fs or cascade formulation, "
                         f"got {formulation!r}")
    form, base = _root(code, np.ones(code.n), formulation, DecodeStats())
    best = math.inf
    for i, tag in enumerate(form.row_tags):
        # the row ("fs", check, N, S) has right-hand side |S| - 1, S odd
        if tag[0] == "fs" and len(tag[3]) > 1 and (formulation == "fs" or len(tag[2]) == 3):
            faced = add_rows_resolve(base, form.lp.rows.face(i))
            if faced.optimal:
                best = min(best, faced.value)
    if formulation != "cascade":
        for j in range(code.n):
            faced = fix_variable_resolve(base, j, 1.0)
            if faced.optimal:
                best = min(best, faced.value)
    return float(best)


def facet_guessing_decode(code: LinearCode, llr, num_faces: int | None = None,
                          rng_seed: int = 0) -> DecodeResult:
    """Re-optimize on faces not active at a failed LP optimum.

    Candidate faces are the forbidden-set rows and box faces that the
    pseudocodeword does not touch; each face LP that comes back integral
    proposes a codeword, and the cheapest proposal wins (without an ML
    certificate).  It keeps the full forbidden-set root, since the faces it
    enumerates are that description's rows.  With `num_faces` given and
    smaller than the number of candidate faces, that many are sampled
    (seeded by `rng_seed`); otherwise every face is tried.
    """

    def search(form, root, incumbent, stats):
        x = root.x[:code.n]
        rows = form.lp.rows
        # every fs row is a <= row; (row, None) is the face of one the root
        # does not touch, (None, (j, v)) pins bit j to v
        loose = np.abs(rows.a @ root.x - rows.hi) > FEAS_TOL
        faces = [(i, None) for i in np.flatnonzero(loose).tolist()]
        for j in range(code.n):
            if x[j] > FEAS_TOL:
                faces.append((None, (j, 0.0)))
            if x[j] < 1.0 - FEAS_TOL:
                faces.append((None, (j, 1.0)))
        if num_faces is not None and num_faces < len(faces):
            rng = np.random.default_rng(rng_seed)
            idx = rng.choice(len(faces), size=num_faces, replace=False)
            faces = [faces[int(i)] for i in sorted(idx)]
        for i, pin in faces:
            cand = stats.tally(add_rows_resolve(root, rows.face(i)) if pin is None
                               else fix_variable_resolve(root, *pin))
            if cand.optimal:
                incumbent.offer(cand)
        return False

    return _decode(code.n, llr, partial(_search_from_root, code, "fs", search=search))


def bit_guessing_decode(code: LinearCode, llr, c: float = 1.0,
                        rng_seed: int = 0) -> DecodeResult:
    """Fix ceil(c log2 n) random bits every possible way and keep the best
    integral re-solve."""
    if not 1 <= c < math.inf:
        raise ValueError("c must be a finite number of at least 1")

    def search(form, root, incumbent, stats):
        k = min(code.n, math.ceil(c * math.log2(max(code.n, 2))))
        rng = np.random.default_rng(rng_seed)
        positions = sorted(int(j) for j in rng.choice(code.n, size=k, replace=False))
        for bits in product((0.0, 1.0), repeat=k):
            cand = stats.tally(fix_variable_resolve(root, positions, bits))
            if cand.optimal:
                incumbent.offer(cand)
        return False

    return _decode(code.n, llr, partial(_search_from_root, code, "fs", search=search))


def branch_and_bound_decode(code: LinearCode, llr, formulation: str = "fs",
                            max_nodes: int = 100_000,
                            max_depth: int | None = None) -> DecodeResult:
    """Depth-first LP branch & bound; exact ML when the tree is exhausted.

    The root is the full `formulation`, but for an "fs" LP of more than
    `_FS_ROOT_ROWS` rows (2^(d-1) a check of degree d): the box LP.  Each
    child pins a bit on its parent's LP; only from a box or non-fs root does
    every node run the separation loop.  A fractional node branches on the
    bit closest to 1/2, a codeword node on its lowest unpinned 1, 0-child
    first, and only nodes that cannot win are pruned, so a certificate is
    the oracle's codeword among ties whichever tied vertex a solve ends at.
    """
    n = code.n
    rows = sum(1 << (r.bit_count() - 1) for r in code.H.rows if r)
    kind = None if formulation == "fs" and rows > _FS_ROOT_ROWS else formulation
    separate = partial(_separate_until_clean, code=code,
                       max_rounds=0 if kind == "fs" else math.inf)

    def search(form, root, incumbent, stats):
        exhausted = True
        # (solution, bit, value, depth, pins): the node pinning bit to value
        # on solution, or the root; pins is -1 on each free bit
        stack = [(root, None, None, 0, np.full(n, -1, dtype=np.int8))]
        while stack:
            sol, j, v, depth, pins = stack.pop()
            # every codeword below is bitwise at least its pinned 1s
            floor = (pins > 0).astype(np.uint8)
            if incumbent.prunes(sol.value, floor):
                continue
            if j is not None:
                if stats.branch_nodes >= max_nodes:
                    return False
                sol = separate(stats.tally(fix_variable_resolve(sol, j, v)), stats)
                stats.branch_nodes += 1
                if not sol.optimal or incumbent.prunes(sol.value, floor):
                    continue
                incumbent.offer(sol)
            x = sol.x[:n]
            # a pinned bit is integral, and a clean integral point a codeword
            free = _least_certain(x)[:1] or np.flatnonzero((x > 0.5) & (pins < 0)).tolist()
            if free and max_depth is not None and depth >= max_depth:
                exhausted = False
            elif free:
                for value in (1, 0):
                    child = pins.copy()
                    child[free[0]] = value
                    stack.append((sol, free[0], float(value), depth + 1, child))
        return exhausted

    return _decode(code.n, llr, partial(_search_from_root, code, kind,
                                        search=search, separate=separate))


def variable_depth_decode(code: LinearCode, llr, depth: int = 8) -> DecodeResult:
    """Breadth-first search of bounded depth over the least certain bits;
    solves at most 2^(depth+1) - 1 LPs."""
    if depth < 1:
        raise ValueError("depth must be positive")

    def search(form, root, incumbent, stats):
        level = [root]
        for t in _least_certain(root.x[:code.n])[:depth]:
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

    return _decode(code.n, llr, partial(_search_from_root, code, "fs", search=search))


def constant_depth_decode(code: LinearCode, llr, depth: int = 8,
                          subset_size: int = 2) -> DecodeResult:
    """Iterate fixed-size subsets of the least certain bits; for each
    subset all 2^m assignments are solved and the first subset whose best
    solution is integral wins.  Worst case C(depth, m) 2^m + 1 LPs."""
    if not 1 <= subset_size <= depth:
        raise ValueError("need 1 <= subset_size <= depth")

    def search(form, root, incumbent, stats):
        targets = _least_certain(root.x[:code.n])[:depth]
        for positions in combinations(targets, min(subset_size, len(targets))):
            best = None
            for bits in product((0.0, 1.0), repeat=len(positions)):
                cand = stats.tally(fix_variable_resolve(root, positions, bits))
                if cand.optimal and (best is None or cand.value < best.value):
                    best = cand
            if best is not None and incumbent.offer(best):
                break
        return False

    return _decode(code.n, llr, partial(_search_from_root, code, "fs", search=search))


def neighborhood_search(code: LinearCode, llr, exchange_depth: int = 1,
                        max_moves: int | None = None) -> np.ndarray:
    """Hard-decision repair: solve the syndrome on the least reliable
    positions, then steepest-descent exchanges of one (or two) error
    positions until locally optimal.  Always returns a codeword;
    `max_moves=0` returns the repair start point itself."""
    if exchange_depth not in (1, 2):
        raise ValueError("exchange_depth must be 1 or 2")
    llr = checked_llrs(llr, code.n)
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


def _message_passing(code: LinearCode, max_iterations: int, use_min_sum: bool,
                     llr, stats: DecodeStats):
    """Flooding, as a `_decode` body, on the padded check-major layout: a few
    whole-array ops per iteration, bit-identical to applying each check's
    rule in turn.  Padding carries c2v = 0 into the dummy column n: an
    edgeless check sends nothing."""
    n = code.n
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
            return DecodeStatus.CODEWORD_FOUND, bits, float(llr @ bits)
    probs = 1.0 / (1.0 + np.exp(np.clip(totals[:n], -50, 50)))
    return DecodeStatus.FRACTIONAL_FAILURE, probs, float(llr @ probs)


def min_sum_decode(code: LinearCode, llr, max_iterations: int = 50) -> DecodeResult:
    """Min-sum flooding; stops early on a zero-syndrome hard decision.
    The output is never ML-certified."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")
    return _decode(code.n, llr, partial(_message_passing, code, max_iterations, True))


def sum_product_decode(code: LinearCode, llr, max_iterations: int = 50) -> DecodeResult:
    """Sum-product flooding with the tanh rule; stops early on a
    zero-syndrome hard decision."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")
    return _decode(code.n, llr, partial(_message_passing, code, max_iterations, False))


_DECODERS = {
    "lp": lambda cfg, c, l: lp_decode(c, l, cfg.formulation),
    "adaptive_lp": lambda cfg, c, l: adaptive_lp_decode(c, l, drop_inactive=False),
    "adaptive_lp_drop": lambda cfg, c, l: adaptive_lp_decode(c, l, drop_inactive=True),
    "cutting_plane": lambda cfg, c, l: cutting_plane_decode(
        c, l, cfg.searchers, cfg.base, cfg.max_rounds, cfg.seed),
    "branch_and_bound": lambda cfg, c, l: branch_and_bound_decode(
        c, l, cfg.formulation, cfg.max_nodes, cfg.max_depth),
    "variable_depth": lambda cfg, c, l: variable_depth_decode(c, l, cfg.depth),
    "constant_depth": lambda cfg, c, l: constant_depth_decode(
        c, l, cfg.depth, cfg.subset_size),
    "facet_guessing": lambda cfg, c, l: facet_guessing_decode(
        c, l, cfg.num_faces, cfg.seed),
    "bit_guessing": lambda cfg, c, l: bit_guessing_decode(
        c, l, cfg.guess_scale, cfg.seed),
    "min_sum": lambda cfg, c, l: min_sum_decode(c, l, cfg.max_iterations),
    "sum_product": lambda cfg, c, l: sum_product_decode(c, l, cfg.max_iterations),
}
DECODERS = tuple(sorted(_DECODERS))


def make_decoder(name: str, config: DecoderConfig | None = None):
    """Decoder registry for the harness and CLI; returns f(code, llr)."""
    if name not in _DECODERS:
        raise ValueError(f"unknown decoder {name!r}; options: {list(DECODERS)}")
    return partial(_DECODERS[name], config or DecoderConfig())
