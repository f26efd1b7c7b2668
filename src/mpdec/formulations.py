"""LP relaxations of ML decoding and cut-generation procedures.

Builders translate a parity-check matrix into one of the interchangeable
descriptions of the fundamental polytope ("fs", "config", "count",
"cascade", "edge") or into the weaker integer-parity relaxation
("parity_relax").  Cut searches produce violated forbidden-set
inequalities, either from the original rows or from redundant parity
checks (GF(2) row combinations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress

import numpy as np

from .gf2 import (BinaryMatrix, LinearCode, _gauss_jordan, padded_supports,
                  set_bits)
from .simplex import LpProblem, LpRow, make_problem

MAX_CHECK_DEGREE = 25
FRAC_TOL = 1e-6
CUT_TOL = 1e-6

FORMULATIONS = ("fs", "config", "count", "cascade", "edge", "parity_relax")


@dataclass(frozen=True)
class FsInequality:
    """Forbidden-set inequality sum_S x - sum_{N\\S} x <= |S| - 1.

    `support` is the variable neighborhood of one parity check (original
    or redundant); `odd_subset` is the forbidden odd-cardinality pattern.
    `check` is the row of H whose support it is, when separation was run
    on the rows of H; it takes no part in equality or hashing.
    """

    support: tuple[int, ...]
    odd_subset: tuple[int, ...]
    check: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.odd_subset) % 2 == 0:
            raise ValueError("subset must have odd cardinality")
        if not set(self.odd_subset) <= set(self.support):
            raise ValueError("subset must lie inside the support")

    @property
    def rhs(self) -> int:
        return len(self.odd_subset) - 1

    def as_lp_row(self) -> LpRow:
        s = set(self.odd_subset)
        coeffs = tuple((j, 1.0 if j in s else -1.0) for j in self.support)
        return LpRow(coeffs, "<=", float(self.rhs))

    def violation(self, x) -> float:
        s = set(self.odd_subset)
        signs = [1.0 if j in s else -1.0 for j in self.support]
        x = np.asarray(x, dtype=float)
        return float(np.dot(signs, x[list(self.support)])) - self.rhs


def _subsets(support, parity: int) -> list[tuple[int, ...]]:
    """Every subset of the support whose size has the given parity, smallest
    first (for parity 0 the empty set leads)."""
    return [s for r in range(parity, len(support) + 1, 2)
            for s in combinations(support, r)]


def fs_inequalities(support) -> list[FsInequality]:
    """All 2^(|N|-1) forbidden-set inequalities of one check neighborhood."""
    support = tuple(sorted(support))
    if not support:
        raise ValueError("empty support")
    return [FsInequality(support, subset) for subset in _subsets(support, 1)]


@dataclass(frozen=True)
class Formulation:
    """An LpProblem plus the mapping from LP columns back to code bits.

    Columns 0..n-1 are always the codeword bits; `row_tags` records, per
    LP row, what it encodes (e.g. ("fs", check, support, subset)).
    """

    kind: str
    lp: LpProblem
    n: int
    row_tags: tuple[tuple, ...]

    @property
    def x_cols(self) -> tuple[int, ...]:
        return tuple(range(self.n))


def _guard_degree(code: LinearCode):
    worst = max((r.bit_count() for r in code.H.rows), default=0)
    if worst > MAX_CHECK_DEGREE:
        raise ValueError(
            f"check degree {worst} exceeds {MAX_CHECK_DEGREE}; "
            "use the cascade formulation for dense codes")


def build_fs_lp(code: LinearCode, objective) -> Formulation:
    """Forbidden-set description: one inequality per odd subset per check."""
    _guard_degree(code)
    rows, tags = [], []
    for i, support in enumerate(code.H.layout.supports):
        if not support:
            continue
        for ineq in fs_inequalities(support):
            rows.append(ineq.as_lp_row())
            tags.append(("fs", i, ineq.support, ineq.odd_subset))
    lp = make_problem(code.n, objective, rows)
    return Formulation("fs", lp, code.n, tuple(tags))


def build_config_lp(code: LinearCode, objective) -> Formulation:
    """Even-configuration description with one indicator per local codeword."""
    _guard_degree(code)
    cols = code.n
    w_index: dict[tuple[int, tuple[int, ...]], int] = {}
    rows, tags = [], []
    for i, support in enumerate(code.H.layout.supports):
        if not support:
            continue
        evens = _subsets(support, 0)
        for s in evens:
            w_index[(i, s)] = cols
            cols += 1
        rows.append(LpRow(tuple((w_index[(i, s)], 1.0) for s in evens), "=", 1.0))
        tags.append(("config_sum", i))
        for j in support:
            coeffs = [(j, 1.0)]
            coeffs += [(w_index[(i, s)], -1.0) for s in evens if j in s]
            rows.append(LpRow(tuple(coeffs), "=", 0.0))
            tags.append(("config_link", i, j))
    obj = list(objective) + [0.0] * (cols - code.n)
    lp = make_problem(cols, obj, rows)
    return Formulation("config", lp, code.n, tuple(tags))


def build_count_lp(code: LinearCode, objective) -> Formulation:
    """Ones-count parity description (polynomial size in the check degree)."""
    cols = code.n
    rows, tags = [], []
    p_index, q_index = {}, {}
    for i, support in enumerate(code.H.layout.supports):
        if not support:
            continue
        ks = list(range(0, len(support) + 1, 2))
        for k in ks:
            p_index[(i, k)] = cols
            cols += 1
        for j in support:
            for k in ks:
                q_index[(j, i, k)] = cols
                cols += 1
        for j in support:
            coeffs = [(j, 1.0)] + [(q_index[(j, i, k)], -1.0) for k in ks]
            rows.append(LpRow(tuple(coeffs), "=", 0.0))
            tags.append(("count_link", i, j))
        rows.append(LpRow(tuple((p_index[(i, k)], 1.0) for k in ks), "=", 1.0))
        tags.append(("count_sum", i))
        for k in ks:
            coeffs = [(q_index[(j, i, k)], 1.0) for j in support]
            coeffs.append((p_index[(i, k)], -float(k)))
            rows.append(LpRow(tuple(coeffs), "=", 0.0))
            tags.append(("count_match", i, k))
        for j in support:
            for k in ks:
                rows.append(LpRow(((q_index[(j, i, k)], 1.0),
                                   (p_index[(i, k)], -1.0)), "<=", 0.0))
                tags.append(("count_cap", j, i, k))
    obj = list(objective) + [0.0] * (cols - code.n)
    lp = make_problem(cols, obj, rows)
    return Formulation("count", lp, code.n, tuple(tags))


def decompose_checks(code: LinearCode) -> tuple[LinearCode, dict[int, tuple[int, int]]]:
    """Split every check of degree >= 4 into a chain of degree-3 checks.

    A degree-d check over (s_0..s_{d-1}) becomes d-2 checks linked by d-3
    auxiliary partial-sum variables.  Returns the widened code and a map
    aux_column -> (original_check, prefix_length) with the invariant
    aux = s_0 + ... + s_{prefix_length-1} (mod 2).
    """
    n = code.n
    new_rows: list[int] = []
    aux_map: dict[int, tuple[int, int]] = {}
    next_col = n
    for i, support in enumerate(code.H.layout.supports):
        d = len(support)
        if d <= 3:
            new_rows.append(code.H.rows[i])
            continue
        aux = list(range(next_col, next_col + d - 3))
        for t, a in enumerate(aux):
            aux_map[a] = (i, t + 2)
        next_col += d - 3
        chain = [(support[0], support[1], aux[0])]
        for t in range(1, d - 3):
            chain.append((aux[t - 1], support[t + 1], aux[t]))
        chain.append((aux[-1], support[d - 2], support[d - 1]))
        new_rows.extend(sum(1 << j for j in members) for members in chain)
    return LinearCode(BinaryMatrix(max(next_col, n), tuple(new_rows))), aux_map


def build_cascade_lp(code: LinearCode, objective) -> Formulation:
    """Decompose to degree <= 3, then the forbidden-set rows of the result.

    Degree-2 checks collapse to an equality between their two variables;
    auxiliaries get zero objective weight.
    """
    decomposed, _ = decompose_checks(code)
    rows, tags = [], []
    for k, support in enumerate(decomposed.H.layout.supports):
        if not support:
            continue
        if len(support) == 2:
            a, b = support
            rows.append(LpRow(((a, 1.0), (b, -1.0)), "=", 0.0))
            tags.append(("eq2", k, support))
            continue
        for ineq in fs_inequalities(support):
            rows.append(ineq.as_lp_row())
            tags.append(("fs", k, ineq.support, ineq.odd_subset))
    obj = list(objective) + [0.0] * (decomposed.n - code.n)
    lp = make_problem(decomposed.n, obj, rows)
    return Formulation("cascade", lp, code.n, tuple(tags))


def build_edge_lp(code: LinearCode, objective) -> Formulation:
    """Per-edge consistency description: every Tanner node becomes a local
    code (checks keep their even configurations, columns become all-or-
    nothing repetition codes) linked by equality rows."""
    _guard_degree(code)
    tg = code.tanner
    cols = code.n
    u_index, v_index, w_index, alpha_index = {}, {}, {}, {}
    for j in range(code.n):
        for i in (None,) + tg.var_neighbors[j]:
            u_index[(j, i)] = cols
            cols += 1
        for s in ("empty", "full"):
            alpha_index[(j, s)] = cols
            cols += 1
    for i in range(code.m):
        for j in tg.check_neighbors[i]:
            v_index[(i, j)] = cols
            cols += 1
    rows, tags = [], []
    for j in range(code.n):
        rows.append(LpRow(((j, 1.0), (u_index[(j, None)], -1.0)), "=", 0.0))
        tags.append(("edge_x", j))
        for i in (None,) + tg.var_neighbors[j]:
            rows.append(LpRow(((u_index[(j, i)], 1.0),
                               (alpha_index[(j, "full")], -1.0)), "=", 0.0))
            tags.append(("edge_rep", j, i))
        rows.append(LpRow(((alpha_index[(j, "empty")], 1.0),
                           (alpha_index[(j, "full")], 1.0)), "=", 1.0))
        tags.append(("edge_rep_sum", j))
        for i in tg.var_neighbors[j]:
            rows.append(LpRow(((u_index[(j, i)], 1.0),
                               (v_index[(i, j)], -1.0)), "=", 0.0))
            tags.append(("edge_uv", i, j))
    for i, support in enumerate(code.H.layout.supports):
        if not support:
            continue
        evens = _subsets(support, 0)
        for s in evens:
            w_index[(i, s)] = cols
            cols += 1
        rows.append(LpRow(tuple((w_index[(i, s)], 1.0) for s in evens), "=", 1.0))
        tags.append(("edge_cfg_sum", i))
        for j in support:
            coeffs = [(v_index[(i, j)], 1.0)]
            coeffs += [(w_index[(i, s)], -1.0) for s in evens if j in s]
            rows.append(LpRow(tuple(coeffs), "=", 0.0))
            tags.append(("edge_cfg", i, j))
    obj = list(objective) + [0.0] * (cols - code.n)
    lp = make_problem(cols, obj, rows)
    return Formulation("edge", lp, code.n, tuple(tags))


def build_parity_relax_lp(code: LinearCode, objective) -> Formulation:
    """Relaxation of the integer parity model Hx = 2z with continuous z."""
    cols = code.n
    rows, tags = [], []
    lower = [0.0] * code.n
    upper = [1.0] * code.n
    for i, support in enumerate(code.H.layout.supports):
        if not support:
            continue
        z = cols
        cols += 1
        lower.append(0.0)
        upper.append(float(len(support) // 2))
        rows.append(LpRow(tuple((j, 1.0) for j in support) + ((z, -2.0),), "=", 0.0))
        tags.append(("parity", i))
    obj = list(objective) + [0.0] * (cols - code.n)
    lp = make_problem(cols, obj, rows, lower, upper)
    return Formulation("parity_relax", lp, code.n, tuple(tags))


_BUILDERS = {
    "fs": build_fs_lp,
    "config": build_config_lp,
    "count": build_count_lp,
    "cascade": build_cascade_lp,
    "edge": build_edge_lp,
    "parity_relax": build_parity_relax_lp,
}


def build_formulation(code: LinearCode, kind: str, objective) -> Formulation:
    """The `kind` relaxation of the code under a length-n objective.

    The rows are built and validated once per (code, kind), on the first
    call, and kept in `code.lp_cache`; later calls only swap in the objective,
    padded with zeros over the auxiliary columns as every builder pads it.
    """
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown formulation {kind!r}; options: {FORMULATIONS}")
    objective = np.asarray(objective, dtype=float)
    if objective.shape != (code.n,):
        raise ValueError("objective length mismatch")
    cached = code.lp_cache.get(kind)
    if cached is None:
        cached = code.lp_cache[kind] = builder(code, np.zeros(code.n))
    padded = np.zeros(cached.lp.num_vars)
    padded[:code.n] = objective
    return Formulation(kind, cached.lp.with_objective(padded), code.n, cached.row_tags)


# -- separation ----------------------------------------------------------------


def separate_fs_cuts(cols, mask, x, tol: float = CUT_TOL,
                     checks=None) -> list[FsInequality]:
    """The most violated forbidden-set inequality of every support at once.

    Row r of `cols` holds one support, ascending, where `mask` is True (the
    shape of `BinaryMatrix.layout`); padding may hold any index.
    Thresholding x at 1/2 gives each row's maximizing subset; if it is
    even, toggling the entry nearest 1/2 (the least (|x_j - 1/2|, j)) is
    optimal among odd subsets.  Violations are summed in support order.
    Returns the cuts violated by more than `tol`, in row order; row r's
    cut records `checks[r]` as its check when `checks` is given.
    """
    vals = np.asarray(x, dtype=float).take(cols, mode="clip")
    odd = mask & (vals > 0.5)
    even = (odd.sum(axis=1) % 2 == 0).nonzero()[0]
    toggle = np.where(mask, np.abs(vals - 0.5), np.inf).argmin(axis=1)
    odd[even, toggle[even]] ^= True
    lhs = np.where(mask, np.where(odd, vals, -vals), 0.0).cumsum(axis=1)[:, -1]
    hit = ((lhs - (odd.sum(axis=1) - 1) > tol) & mask.any(axis=1)).nonzero()[0]
    return [FsInequality(tuple(compress(row, real)), tuple(compress(row, chosen)),
                         None if checks is None else int(checks[r]))
            for r, row, real, chosen in zip(hit.tolist(), cols[hit].tolist(),
                                            mask[hit].tolist(), odd[hit].tolist())]


def most_violated_fs_cut(support, x, tol: float = CUT_TOL) -> FsInequality | None:
    """Most violated forbidden-set inequality of one check at the point x,
    or None if nothing is violated by more than `tol`."""
    cols = np.array([sorted(support)], dtype=np.intp)
    if not cols.size:
        return None
    cuts = separate_fs_cuts(cols, np.ones(cols.shape, dtype=bool), x, tol)
    return cuts[0] if cuts else None


def row_fs_cuts(h: BinaryMatrix, x, tol: float = CUT_TOL) -> list[FsInequality]:
    """Per-row separation: the most violated FS inequality of every check,
    in check order, each recording its check."""
    return separate_fs_cuts(h.layout.cols, h.layout.mask, x, tol, range(h.m))


def _separate_words(h: BinaryMatrix, words, x) -> list[FsInequality]:
    """Separate the distinct nonzero dual codewords among `words` (int
    bitsets) as one batch, in first-seen order."""
    words = list(dict.fromkeys(w for w in words if w))
    return separate_fs_cuts(*padded_supports(words, h.n), x)


def rpc_from_rows(h: BinaryMatrix, row_indices) -> tuple[int, ...]:
    """Support of the GF(2) sum of the chosen rows (a dual codeword)."""
    row_indices = tuple(row_indices)
    if not row_indices:
        raise ValueError("need at least one row")
    word = 0
    for i in row_indices:
        word ^= h.rows[i]
    if word == 0:
        raise ValueError("rows cancel: the combination is the zero dual codeword")
    return set_bits(word)


def _fractional_indices(x, tol: float = FRAC_TOL) -> list[int]:
    x = np.asarray(x, dtype=float)
    return [int(j) for j in np.flatnonzero((x > tol) & (x < 1.0 - tol))]


def rpc_cycle_cut_search(h: BinaryMatrix, x, rng_seed: int = 0,
                         max_tries: int | None = None) -> list[FsInequality]:
    """Random-walk cycle search for violated redundant-parity-check cuts.

    The Tanner graph is pruned to the fractional variables and their
    checks; random non-backtracking walks stop at the first repeated node,
    the checks along the closed part are XOR-summed into a redundant
    parity check.  The distinct checks found are separated as one batch,
    in the order they were first found.
    """
    x = np.asarray(x, dtype=float)
    frac = _fractional_indices(x)
    if not frac:
        return []
    frac_set = set(frac)
    var_adj = {j: [] for j in frac}
    check_adj: dict[int, list[int]] = {}
    for i, support in enumerate(h.layout.supports):
        members = [j for j in support if j in frac_set]
        if len(members) >= 2:
            check_adj[i] = members
            for j in members:
                var_adj[j].append(i)
    if not check_adj:
        return []
    if max_tries is None:
        max_tries = 10 * len(frac)
    rng = np.random.default_rng(rng_seed)
    starts = [j for j in frac if var_adj[j]]
    if not starts:
        return []
    found: list[int] = []
    for _ in range(max_tries):
        node = ("v", starts[int(rng.integers(len(starts)))])
        path = [node]
        seen = {node: 0}
        prev = None
        while True:
            kind, idx = node
            nbrs = ([("c", i) for i in var_adj[idx]] if kind == "v"
                    else [("v", j) for j in check_adj[idx]])
            nbrs = [nb for nb in nbrs if nb != prev]
            if not nbrs:
                break
            nxt = nbrs[int(rng.integers(len(nbrs)))]
            if nxt in seen:
                cycle = path[seen[nxt]:]
                checks = [i for (kind2, i) in cycle if kind2 == "c"]
                if checks:
                    word = 0
                    for i in checks:
                        word ^= h.rows[i]
                    found.append(word)
                break
            prev = node
            node = nxt
            seen[node] = len(path)
            path.append(node)
    return _separate_words(h, found, x)


def matrix_adaptation_cut_search(h: BinaryMatrix, x) -> list[FsInequality]:
    """Pivot unit vectors into the fractional columns, then separate rows.

    Columns are processed most-fractional-first (ascending |x_j - 1/2|);
    the distinct nonzero rows of the adapted matrix are dual codewords and
    are separated as one batch, in row order.
    """
    x = np.asarray(x, dtype=float)
    frac = _fractional_indices(x)
    if not frac:
        return []
    rows = list(h.rows)
    _gauss_jordan(rows, sorted(frac, key=lambda j: (abs(x[j] - 0.5), j)))
    return _separate_words(h, rows, x)


def has_lonely_fractional_neighbor(supports, x, tol: float = FRAC_TOL) -> bool:
    """True if some check sees exactly one fractional variable (a state
    that cannot occur at a vertex of the fundamental polytope)."""
    x = np.asarray(x, dtype=float)
    frac = set(_fractional_indices(x, tol))
    for support in supports:
        if sum(1 for j in support if j in frac) == 1:
            return True
    return False
