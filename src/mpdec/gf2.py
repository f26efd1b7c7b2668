"""GF(2) linear algebra, code model, Tanner graphs, and brute-force oracles.

Matrices are stored bit-packed: each row is a Python int bitset with the
LSB holding column 0, so row operations are single XORs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math
from typing import NamedTuple

import numpy as np

from .simplex import COST_TOL


def pack_bits(bits) -> int:
    """Pack an iterable of 0/1 values into an int bitset (LSB = index 0)."""
    word = 0
    for i, b in enumerate(bits):
        if b:
            word |= 1 << i
    return word


def unpack_bits(word: int, n: int) -> np.ndarray:
    """Unpack an int bitset into a length-n uint8 vector."""
    return np.array([(word >> j) & 1 for j in range(n)], dtype=np.uint8)


def set_bits(word: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of an int bitset."""
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return tuple(out)


def padded_supports(words, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The supports of n-bit int bitsets as an (r, w) index array, each row
    ascending and padded with the dummy column n, plus the (r, w) mask of its
    real entries; w is the largest weight, at least 1."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(b"".join(w.to_bytes(nbytes, "little") for w in words),
                           dtype=np.uint8).reshape(-1, nbytes)
    bits = np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(bool)
    width = max(int(bits.sum(axis=1).max(initial=0)), 1)
    cols = np.sort(np.where(bits, np.arange(n, dtype=np.intp), n), axis=1)
    cols = np.ascontiguousarray(cols[:, :width])
    return cols, cols < n


class CheckLayout(NamedTuple):
    """Check-major Tanner adjacency of an (m, n) parity-check matrix."""

    supports: tuple[tuple[int, ...], ...]  # the columns of each row, ascending
    cols: np.ndarray  # (m, w) supports padded with the dummy column n; w >= 1
    mask: np.ndarray  # (m, w) True on the real entries; both arrays read-only


@dataclass(frozen=True)
class BinaryMatrix:
    """Bit-packed binary matrix; `rows[i]` holds row i with LSB = column 0."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one column")
        mask = (1 << self.n) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row bits out of range")

    @property
    def m(self) -> int:
        return len(self.rows)

    @classmethod
    def from_array(cls, a) -> "BinaryMatrix":
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls(a.shape[1], tuple(pack_bits(row % 2) for row in a))

    def to_array(self) -> np.ndarray:
        return np.array([[(r >> j) & 1 for j in range(self.n)] for r in self.rows],
                        dtype=np.uint8)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    @cached_property
    def layout(self) -> CheckLayout:
        """The check-major layout, built on first use."""
        cols, mask = padded_supports(self.rows, self.n)
        cols.flags.writeable = mask.flags.writeable = False
        return CheckLayout(tuple(map(set_bits, self.rows)), cols, mask)

    def row_support(self, i: int) -> tuple[int, ...]:
        return self.layout.supports[i]

    def column_support(self, j: int) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.rows) if (r >> j) & 1)


def _gauss_jordan(rows: list[int], cols) -> list[int]:
    """Gauss-Jordan elimination over GF(2), in place on bit-packed rows.

    Pivots are tried in the given column order; returns the pivot columns,
    and row t of the result is the unit row of pivot column t.
    """
    pivots: list[int] = []
    for col in cols:
        pr = len(pivots)
        if pr >= len(rows):
            break
        sel = -1
        for i in range(pr, len(rows)):
            if (rows[i] >> col) & 1:
                sel = i
                break
        if sel < 0:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        for i in range(len(rows)):
            if i != pr and (rows[i] >> col) & 1:
                rows[i] ^= rows[pr]
        pivots.append(col)
    return pivots


def rref(mat: BinaryMatrix) -> tuple[BinaryMatrix, tuple[int, ...]]:
    """Reduced row echelon form over GF(2).

    Returns the reduced matrix and the pivot column indices.  Pivot columns
    of the result are unit columns, so the operation is idempotent.
    """
    rows = list(mat.rows)
    pivots = _gauss_jordan(rows, range(mat.n))
    return BinaryMatrix(mat.n, tuple(rows)), tuple(pivots)


def rank(mat: BinaryMatrix) -> int:
    return len(rref(mat)[1])


def syndrome(h: BinaryMatrix, x) -> np.ndarray:
    """Parity of H x over GF(2); raises on length mismatch."""
    x = np.asarray(x)
    if x.shape != (h.n,):
        raise ValueError(f"expected a length-{h.n} vector, got shape {x.shape}")
    padded = np.zeros(h.n + 1, dtype=np.int64)
    padded[:h.n] = x  # truncates toward zero, as int() does
    return (padded[h.layout.cols].sum(axis=1) & 1).astype(np.uint8)


@dataclass(frozen=True)
class LinearCode:
    """Binary linear code given by a parity-check matrix.

    The dimension is n - rank(H); redundant rows are allowed (m may exceed
    n - k).  A generator matrix can be supplied or is derived on demand.
    """

    H: BinaryMatrix
    G: BinaryMatrix | None = None

    def __post_init__(self):
        if self.G is not None:
            if self.G.n != self.H.n:
                raise ValueError("G and H disagree on block length")
            for g in self.G.rows:
                for h in self.H.rows:
                    if (g & h).bit_count() & 1:
                        raise ValueError("G is not orthogonal to H")

    @property
    def n(self) -> int:
        return self.H.n

    @property
    def m(self) -> int:
        return self.H.m

    @cached_property
    def k(self) -> int:
        return self.n - rank(self.H)

    @cached_property
    def generator_rows(self) -> tuple[int, ...]:
        """A basis of the code as packed words (from the nullspace of H)."""
        if self.G is not None:
            red, piv = rref(self.G)
            return tuple(r for r in red.rows if r)
        red, pivots = rref(self.H)
        pivot_of_col = {c: i for i, c in enumerate(pivots)}
        free = [j for j in range(self.n) if j not in pivot_of_col]
        basis = []
        for f in free:
            word = 1 << f
            for c, i in pivot_of_col.items():
                if (red.rows[i] >> f) & 1:
                    word |= 1 << c
            basis.append(word)
        return tuple(basis)

    @cached_property
    def tanner(self) -> "TannerGraph":
        return TannerGraph.from_matrix(self.H)

    @cached_property
    def lp_cache(self) -> dict:
        """Per-code memo of LP row blocks, filled on first use by
        `formulations.build_formulation`, so nothing is shared across codes."""
        return {}


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite check/variable adjacency of a parity-check matrix."""

    check_neighbors: tuple[tuple[int, ...], ...]
    var_neighbors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_matrix(cls, h: BinaryMatrix) -> "TannerGraph":
        """One pass over the row supports; each variable's checks ascend."""
        variables: list[list[int]] = [[] for _ in range(h.n)]
        for i, support in enumerate(h.layout.supports):
            for j in support:
                variables[j].append(i)
        return cls(h.layout.supports, tuple(map(tuple, variables)))


def girth(graph: TannerGraph) -> float:
    """Length of the shortest cycle in the Tanner graph, or math.inf.

    BFS from every vertex; the first non-tree edge closing at depths
    (d, d') yields a cycle of length d + d' + 1 (even here, the graph
    being bipartite).
    """
    m = len(graph.check_neighbors)
    n = len(graph.var_neighbors)
    adj = [[m + j for j in nb] for nb in graph.check_neighbors]
    adj += [list(nb) for nb in graph.var_neighbors]
    best = math.inf
    total = m + n
    for root in range(total):
        dist = [-1] * total
        parent = [-1] * total
        dist[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            if dist[u] * 2 >= best:
                break
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v and parent[v] != u:
                    cyc = dist[u] + dist[v] + 1
                    if cyc < best:
                        best = cyc
    return best


def enumerate_codewords(code: LinearCode) -> np.ndarray:
    """All 2^k codewords as a (2^k, n) uint8 array (k <= 24 guard)."""
    k = code.k
    if k > 24:
        raise ValueError(f"dimension {k} too large to enumerate")
    gens = code.generator_rows
    if not gens:
        return np.zeros((1, code.n), dtype=np.uint8)
    g = np.array([unpack_bits(w, code.n) for w in gens], dtype=np.uint8)
    masks = ((np.arange(1 << k, dtype=np.uint32)[:, None] >> np.arange(k)) & 1)
    return (masks.astype(np.uint8) @ g) % 2


def min_distance_bruteforce(code: LinearCode) -> int:
    """Minimum Hamming weight over nonzero codewords, by Gray-code walk."""
    gens = code.generator_rows
    k = len(gens)
    if k == 0:
        raise ValueError("code has no nonzero codeword; distance undefined")
    if k > 24:
        raise ValueError(f"dimension {k} too large to enumerate")
    word = 0
    best = code.n + 1
    for i in range(1, 1 << k):
        word ^= gens[(i & -i).bit_length() - 1]
        w = word.bit_count()
        if w < best:
            best = w
    return best


def _lex_key(word: int, n: int) -> tuple:
    return tuple((word >> j) & 1 for j in range(n))


def ml_bruteforce(code: LinearCode, llr) -> tuple[np.ndarray, float]:
    """Exact ML decoding by enumeration: the codeword minimizing llr . x.

    Codewords whose values lie within COST_TOL of the minimum tie, and the
    lexicographically smallest of them wins (the rule of the LP searches'
    incumbent), so the oracle is deterministic.
    """
    llr = np.asarray(llr, dtype=float)
    if llr.shape != (code.n,):
        raise ValueError("llr length mismatch")
    if code.k > 24:
        raise ValueError(f"dimension {code.k} too large to enumerate")
    if code.k <= 16:
        cw = _codeword_cache(code)
        vals = cw @ llr
        best = np.flatnonzero(vals <= vals.min() + COST_TOL)
        i = min(best, key=lambda b: tuple(cw[b]))
        return cw[i].copy(), float(vals[i])
    low = min(val for _, val in _gray_values(code, llr))
    best_word, best_val = min(((w, v) for w, v in _gray_values(code, llr)
                               if v <= low + COST_TOL),
                              key=lambda wv: _lex_key(wv[0], code.n))
    return unpack_bits(best_word, code.n), float(best_val)


def _gray_values(code: LinearCode, llr: np.ndarray):
    """Every codeword as (word, llr . word), in Gray-code order from the
    zero word, each value updated from the last."""
    gens = code.generator_rows
    word = 0
    val = 0.0
    yield word, val
    for i in range(1, 1 << len(gens)):
        g = gens[(i & -i).bit_length() - 1]
        sign = word & g
        word ^= g
        # incremental objective: bits newly set add, bits cleared subtract
        for j in set_bits(g):
            val += -llr[j] if (sign >> j) & 1 else llr[j]
        yield word, val


_CODEWORD_CACHE: dict[tuple, np.ndarray] = {}


def _codeword_cache(code: LinearCode) -> np.ndarray:
    key = (code.n, code.H.rows)
    cw = _CODEWORD_CACHE.get(key)
    if cw is None:
        cw = enumerate_codewords(code).astype(np.float64)
        if len(_CODEWORD_CACHE) > 64:
            _CODEWORD_CACHE.clear()
        _CODEWORD_CACHE[key] = cw
    return cw


def random_regular_ldpc(n: int, d_v: int, d_c: int, seed: int) -> LinearCode:
    """Random (d_v, d_c)-regular code by socket matching.

    Permutes variable sockets against check sockets and rejects matchings
    with parallel edges, retrying up to 1000 times.  Deterministic per seed.
    """
    if d_v < 1 or d_c < 1:
        raise ValueError("degrees must be positive")
    if (n * d_v) % d_c:
        raise ValueError(f"infeasible degree pair: {n}*{d_v} not divisible by {d_c}")
    m = n * d_v // d_c
    rng = np.random.default_rng(seed)
    var_sockets = np.repeat(np.arange(n), d_v)
    check_of_socket = np.repeat(np.arange(m), d_c)
    for _ in range(1000):
        perm = rng.permutation(n * d_v)
        edges = set(zip(check_of_socket.tolist(), var_sockets[perm].tolist()))
        if len(edges) == n * d_v:
            rows = [0] * m
            for ci, vj in edges:
                rows[ci] |= 1 << vj
            return LinearCode(BinaryMatrix(n, tuple(rows)))
    raise RuntimeError("no simple regular graph found in 1000 attempts")


def spc_product_code(dims) -> LinearCode:
    """Product of single parity-check codes of the given lengths.

    Bits live on a len(dims)-dimensional grid; one parity check per axis
    line, so (3,3) yields 9 bits and 3+3 checks.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise ValueError("each dimension must be at least 2")
    n = int(np.prod(dims))
    rows = []
    for axis, d in enumerate(dims):
        other_dims = [dd for a, dd in enumerate(dims) if a != axis]
        for combo in np.ndindex(*other_dims):
            word = 0
            for t in range(d):
                idx = list(combo)
                idx.insert(axis, t)
                word |= 1 << int(np.ravel_multi_index(idx, dims))
            rows.append(word)
    return LinearCode(BinaryMatrix(n, tuple(rows)))


def save_alist(code: LinearCode) -> str:
    """Serialize a code's parity-check matrix in alist text format."""
    h = code.H
    tg = TannerGraph.from_matrix(h)
    col_deg = [len(nb) for nb in tg.var_neighbors]
    row_deg = [len(nb) for nb in tg.check_neighbors]
    lines = [f"{h.n} {h.m}",
             f"{max(col_deg, default=0)} {max(row_deg, default=0)}",
             " ".join(map(str, col_deg)),
             " ".join(map(str, row_deg))]
    for nb in tg.var_neighbors:
        lines.append(" ".join(str(i + 1) for i in nb) if nb else "0")
    for nb in tg.check_neighbors:
        lines.append(" ".join(str(j + 1) for j in nb) if nb else "0")
    return "\n".join(lines) + "\n"


def load_alist(text: str) -> LinearCode:
    """Parse alist text into a LinearCode; validates the header and lists."""
    tokens_by_line = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(tokens_by_line) < 4:
        raise ValueError("alist truncated: need header, degree bounds, degree lists")
    try:
        n, m = (int(t) for t in tokens_by_line[0])
        max_col, max_row = (int(t) for t in tokens_by_line[1])
        col_deg = [int(t) for t in tokens_by_line[2]]
        row_deg = [int(t) for t in tokens_by_line[3]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed alist header: {exc}") from exc
    if n < 1 or m < 1:
        raise ValueError("alist header: dimensions must be positive")
    if len(col_deg) != n or len(row_deg) != m:
        raise ValueError("alist degree list length mismatch")
    if max(col_deg, default=0) > max_col or max(row_deg, default=0) > max_row:
        raise ValueError("alist degree exceeds declared maximum")
    body = tokens_by_line[4:]
    if len(body) < n + m:
        raise ValueError("alist truncated: missing neighbor lists")
    rows = [0] * m
    for j in range(n):
        nbrs = [int(t) for t in body[j] if int(t) != 0]
        if len(nbrs) != col_deg[j]:
            raise ValueError(f"column {j}: degree list inconsistent with neighbors")
        for i in nbrs:
            if not 1 <= i <= m:
                raise ValueError(f"column {j}: check index {i} out of range")
            rows[i - 1] |= 1 << j
    h = BinaryMatrix(n, tuple(rows))
    for i, support in enumerate(h.layout.supports):
        nbrs = sorted(int(t) for t in body[n + i] if int(t) != 0)
        if len(nbrs) != row_deg[i]:
            raise ValueError(f"row {i}: degree list inconsistent with neighbors")
        if nbrs != [j + 1 for j in support]:
            raise ValueError(f"row {i}: row/column neighbor lists disagree")
    return LinearCode(h)
