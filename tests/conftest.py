"""Shared fixtures: reference codes and random code generators."""

from __future__ import annotations

import numpy as np
import pytest

from mpdec.gf2 import BinaryMatrix, LinearCode, pack_bits

# (8,4) code with four weight-4 checks; girth 4, handy fractional behavior.
H84_ARRAY = [
    [1, 1, 1, 0, 1, 0, 0, 0],
    [1, 1, 0, 1, 0, 1, 0, 0],
    [1, 0, 1, 1, 0, 0, 1, 0],
    [0, 1, 1, 1, 0, 0, 0, 1],
]

# systematic-free (7,4) Hamming parity-check matrix
HAMMING_ARRAY = [
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]


@pytest.fixture(scope="session")
def code84() -> LinearCode:
    return LinearCode(BinaryMatrix.from_array(H84_ARRAY))


@pytest.fixture(scope="session")
def hamming() -> LinearCode:
    return LinearCode(BinaryMatrix.from_array(HAMMING_ARRAY))


def random_sparse_code(rng, n, m, w_min=2, w_max=4) -> LinearCode:
    """Random sparse parity-check matrix with row weights in [w_min, w_max]."""
    rows = []
    for _ in range(m):
        w = int(rng.integers(w_min, w_max + 1))
        support = rng.choice(n, size=min(w, n), replace=False)
        rows.append(pack_bits(1 if j in set(support.tolist()) else 0
                              for j in range(n)))
    return LinearCode(BinaryMatrix(n, tuple(rows)))


def random_forest_code(rng, n_lo=8, n_hi=16) -> LinearCode:
    """Random code whose Tanner graph is a forest: every check joins
    variables from previously disconnected components."""
    n = int(rng.integers(n_lo, n_hi + 1))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rows = []
    for _ in range(int(rng.integers(2, max(3, n // 3) + 1))):
        deg = int(rng.integers(2, 4))
        chosen, roots = [], set()
        for v in rng.permutation(n):
            r = find(int(v))
            if r not in roots:
                roots.add(r)
                chosen.append(int(v))
                if len(chosen) == deg:
                    break
        if len(chosen) < 2:
            break
        rows.append(sum(1 << j for j in chosen))
        base = find(chosen[0])
        for v in chosen[1:]:
            parent[find(v)] = base
    if not rows:
        rows = [0b11]
    return LinearCode(BinaryMatrix(n, tuple(rows)))


def fractional_instance(code, rng, decode, tries=2000):
    """Search for an objective whose bare LP optimum is fractional."""
    from mpdec.decoders import DecodeStatus
    for _ in range(tries):
        lam = rng.standard_normal(code.n)
        res = decode(code, lam)
        if res.status is DecodeStatus.FRACTIONAL_FAILURE:
            return lam, res
    raise AssertionError("no fractional instance found")


# -- the per-support separation the batch routine replaced ----------------------
# Kept verbatim as the reference that `formulations.separate_fs_cuts` and its
# callers must reproduce cut for cut and in the same order.


def reference_most_violated_fs_cut(support, x, tol=1e-6):
    from mpdec.formulations import FsInequality
    support = tuple(support)
    if not support:
        return None
    x = np.asarray(x, dtype=float)
    subset = {j for j in support if x[j] > 0.5}
    if len(subset) % 2 == 0:
        toggle = min(support, key=lambda j: (abs(x[j] - 0.5), j))
        subset.symmetric_difference_update({toggle})
    ineq = FsInequality(tuple(sorted(support)), tuple(sorted(subset)))
    lhs = sum(x[j] if j in subset else -x[j] for j in ineq.support)
    return ineq if float(lhs - ineq.rhs) > tol else None


def reference_row_fs_cuts(h, x, tol=1e-6):
    from mpdec.formulations import FsInequality
    cuts = []
    for i, support in enumerate(h.layout.supports):
        cut = reference_most_violated_fs_cut(support, x, tol) if support else None
        if cut is not None:
            cuts.append(FsInequality(cut.support, cut.odd_subset, i))
    return cuts


def reference_separate_words(h, words, x):
    from mpdec.gf2 import set_bits
    cuts = {}
    for word in words:
        if word:
            cut = reference_most_violated_fs_cut(set_bits(word), x)
            if cut is not None:
                cuts[(cut.support, cut.odd_subset)] = cut
    return list(cuts.values())


def reference_adaptive_lp(code, llr, drop_inactive=False):
    """Adaptive LP decoding's separation loop as it ran on the per-support
    routine; returns the last LP solution and (cuts, pivots, iterations)."""
    from mpdec.simplex import FEAS_TOL, add_rows_resolve, make_problem, solve
    n, supports = code.n, code.H.layout.supports
    sol = solve(make_problem(n, llr, []))
    pivots, cuts, iterations = sol.pivots, 0, 0
    current = []
    while True:
        x = sol.x[:n]
        skip = set()
        if drop_inactive:
            kept = []
            for ci, ineq in current:
                odd = set(ineq.odd_subset)
                lhs = sum(x[j] if j in odd else -x[j] for j in ineq.support)
                if ci not in skip and abs(float(lhs - ineq.rhs)) <= FEAS_TOL:
                    kept.append((ci, ineq))
                    skip.add(ci)
            current = kept
        new = []
        for i, support in enumerate(supports):
            if support and i not in skip:
                cut = reference_most_violated_fs_cut(support, x)
                if cut is not None:
                    new.append((i, cut))
        if not new:
            return sol, (cuts, pivots, iterations)
        current.extend(new)
        if drop_inactive:
            sol = solve(make_problem(n, llr, [c.as_lp_row() for _, c in current]))
        else:
            sol = add_rows_resolve(sol, [c.as_lp_row() for _, c in new])
        pivots += sol.pivots
        cuts += len(new)
        iterations += 1
