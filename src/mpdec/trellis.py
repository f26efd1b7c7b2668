"""Trellis construction, Viterbi, the turbo flow LP, and its Lagrangian.

A convolutional encoder is a finite state machine consuming one input bit
per step and emitting parity bits.  Codewords are the start-to-end paths
of the time-unfolded trellis; both encoders are required to start and end
in state 0 (so the accumulator, for instance, admits exactly the
even-weight information words).  The turbo template is the rate-1/3-style
partition (systematic, parity a, parity b) with only encoder a
contributing the systematic bits to the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import checked_llrs
from .decoders import DecodeResult, DecodeStatus, _decode
from .gf2 import least_cost_word
from .simplex import LpProblem, LpRow, LpSolverError, is_integral, make_problem, solve


@dataclass(frozen=True)
class FsmSpec:
    """Deterministic, total transition table (state, bit) -> (state, outputs).

    `_steps` holds the validated table as a dict for `step`.
    """

    num_states: int
    table: tuple[tuple[int, int, int, tuple[int, ...]], ...]
    _steps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = {}
        for s, u, s2, out in self.table:
            if not (0 <= s < self.num_states and 0 <= s2 < self.num_states):
                raise ValueError("state out of range")
            if u not in (0, 1):
                raise ValueError("input must be a bit")
            if (s, u) in seen:
                raise ValueError(f"duplicate transition for ({s}, {u})")
            seen[(s, u)] = (s2, out)
        for s in range(self.num_states):
            for u in (0, 1):
                if (s, u) not in seen:
                    raise ValueError(f"missing transition for ({s}, {u})")
        object.__setattr__(self, "_steps", seen)

    def step(self, state: int, bit: int) -> tuple[int, tuple[int, ...]]:
        return self._steps[(state, bit)]


def accumulator_fsm() -> FsmSpec:
    """Two-state accumulator: next = state xor input, parity = next state."""
    return FsmSpec(2, ((0, 0, 0, (0,)), (0, 1, 1, (1,)),
                       (1, 0, 1, (1,)), (1, 1, 0, (0,))))


def four_state_fsm() -> FsmSpec:
    """Recursive rate-1/2 encoder with feedback 1+D+D^2 and output 1+D^2.

    State is (d1, d2) packed as 2*d1 + d2 with d1 the most recent feedback
    bit; parity = a xor d2 where a = u xor d1 xor d2.
    """
    table = []
    for state in range(4):
        d1, d2 = state >> 1, state & 1
        for u in (0, 1):
            a = u ^ d1 ^ d2
            parity = a ^ d2
            table.append((state, u, (a << 1) | d1, (parity,)))
    return FsmSpec(4, tuple(table))


def fsm_to_text(fsm: FsmSpec) -> str:
    lines = [f"states={fsm.num_states}"]
    for s, u, s2, out in sorted(fsm.table):
        lines.append(f"{s} {u} -> {s2} {''.join(map(str, out))}")
    return "\n".join(lines) + "\n"


def parse_fsm_text(text: str) -> FsmSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("states="):
        raise ValueError("first line must be states=N")
    num_states = int(lines[0].split("=", 1)[1])
    table = []
    for ln in lines[1:]:
        left, right = ln.split("->")
        s, u = (int(t) for t in left.split())
        parts = right.split()
        s2 = int(parts[0])
        out = tuple(int(ch) for ch in parts[1]) if len(parts) > 1 else ()
        table.append((s, u, s2, out))
    return FsmSpec(num_states, tuple(table))


@dataclass(frozen=True)
class TrellisEdge:
    edge_id: int
    frm: int
    to: int
    input_bit: int
    output_bits: tuple[int, ...]


@dataclass(frozen=True)
class Trellis:
    """k segments of edges; every surviving edge lies on a 0 -> 0 path."""

    k: int
    num_states: int
    segments: tuple[tuple[TrellisEdge, ...], ...]

    @property
    def num_edges(self) -> int:
        return sum(len(seg) for seg in self.segments)

    def edges(self):
        for seg in self.segments:
            yield from seg


def build_trellis(fsm: FsmSpec, k: int) -> Trellis:
    """Unfold the state diagram over k steps, pruned to edges that are both
    reachable from state 0 and co-reachable from state 0 at step k."""
    if k < 1:
        raise ValueError("k must be positive")
    reach = [set() for _ in range(k + 1)]
    reach[0].add(0)
    for t in range(k):
        for s in reach[t]:
            for u in (0, 1):
                s2, _ = fsm.step(s, u)
                reach[t + 1].add(s2)
    co = [set() for _ in range(k + 1)]
    co[k].add(0)
    back: dict[int, list[tuple[int, int]]] = {}
    for s, u, s2, _ in fsm.table:
        back.setdefault(s2, []).append((s, u))
    for t in range(k - 1, -1, -1):
        for s2 in co[t + 1]:
            for s, _ in back.get(s2, ()):
                co[t].add(s)
    if 0 not in co[0]:
        raise ValueError("no path from the start state to the terminal state")
    segments = []
    eid = 0
    for t in range(k):
        seg = []
        for s in sorted(reach[t] & co[t]):
            for u in (0, 1):
                s2, out = fsm.step(s, u)
                if s2 in (reach[t + 1] & co[t + 1]):
                    seg.append(TrellisEdge(eid, s, s2, u, out))
                    eid += 1
        if not seg:
            raise ValueError("no path from the start state to the terminal state")
        segments.append(tuple(seg))
    return Trellis(k, fsm.num_states, tuple(segments))


def viterbi(trellis: Trellis, edge_costs) -> tuple[tuple[int, ...], float]:
    """Minimum-cost start-to-end path; ties broken by the smallest
    edge-id sequence.  Costs are indexed by edge_id."""
    costs = np.asarray(edge_costs, dtype=float)
    if not np.all(np.isfinite(costs)):
        raise ValueError("edge costs must be finite")
    best: dict[int, tuple[float, tuple[int, ...]]] = {
        trellis.segments[0][0].frm: (0.0, ())}
    for seg in trellis.segments:
        nxt: dict[int, tuple[float, tuple[int, ...]]] = {}
        for e in seg:
            if e.frm not in best:
                continue
            c, path = best[e.frm]
            cand = (c + costs[e.edge_id], path + (e.edge_id,))
            if e.to not in nxt or cand < nxt[e.to]:
                nxt[e.to] = cand
        best = nxt
    cost, path = min(best.values())
    return path, float(cost)


@dataclass(frozen=True)
class TurboSpec:
    """Two copies of one constituent encoder linked by an interleaver.

    Encoder b consumes the permuted information word u[pi(0)], ..,
    u[pi(k-1)]; the codeword is (u, parity_a, parity_b) of length 3k.
    """

    fsm: FsmSpec
    interleaver: tuple[int, ...]
    k: int

    def __post_init__(self):
        if sorted(self.interleaver) != list(range(self.k)):
            raise ValueError("interleaver must be a permutation of 0..k-1")


def encode_turbo(spec: TurboSpec, u) -> np.ndarray | None:
    """Codeword for an information word, or None if an encoder fails to
    terminate in state 0."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape != (spec.k,):
        raise ValueError("information length mismatch")

    def run(bits):
        state = 0
        parity = []
        for b in bits:
            state, out = spec.fsm.step(state, int(b))
            parity.append(out[0])
        return (parity, state)

    pa, end_a = run(u)
    pb, end_b = run([u[spec.interleaver[j]] for j in range(spec.k)])
    if end_a != 0 or end_b != 0:
        return None
    return np.concatenate([u, np.array(pa, dtype=np.uint8),
                           np.array(pb, dtype=np.uint8)])


def turbo_ml_bruteforce(spec: TurboSpec, llr) -> tuple[np.ndarray, float]:
    """Exact turbo ML by enumerating the 2^k information words (k <= 20).

    The terminating words' codewords go through `ml_bruteforce`'s tie rule
    (`gf2.least_cost_word`), each cost its own llr . x.
    """
    if spec.k > 20:
        raise ValueError("k too large to enumerate")
    llr = checked_llrs(llr, 3 * spec.k)
    words = np.empty((1 << spec.k, 3 * spec.k), dtype=np.uint8)
    costs = np.empty(1 << spec.k)
    count = 0
    for word in range(1 << spec.k):
        x = encode_turbo(spec, [(word >> j) & 1 for j in range(spec.k)])
        if x is not None:
            words[count], costs[count] = x, llr @ x
            count += 1
    if not count:
        raise ValueError("no terminating information word")
    return least_cost_word(words[:count], costs[:count])


def _flow_rows(trellis: Trellis, col_of_edge) -> list[LpRow]:
    """Unit source/sink rows plus conservation at every interior state."""
    rows = [LpRow(tuple((col_of_edge[e.edge_id], 1.0) for e in seg), "=", 1.0)
            for seg in (trellis.segments[0], trellis.segments[-1])]
    for into, out_of in zip(trellis.segments, trellis.segments[1:]):
        for s in sorted({e.to for e in into} | {e.frm for e in out_of}):
            coeffs = [(col_of_edge[e.edge_id], 1.0) for e in out_of if e.frm == s]
            coeffs += [(col_of_edge[e.edge_id], -1.0) for e in into if e.to == s]
            rows.append(LpRow(tuple(coeffs), "=", 0.0))
    return rows


def trellis_flow_lp(trellis: Trellis, edge_costs) -> LpProblem:
    """Min-cost unit-flow LP of a single trellis (integral by network
    structure)."""
    costs = np.asarray(edge_costs, dtype=float)
    col_of_edge = {e.edge_id: i for i, e in enumerate(trellis.edges())}
    obj = costs[[e.edge_id for e in trellis.edges()]]
    return make_problem(trellis.num_edges, obj, _flow_rows(trellis, col_of_edge))


def build_turbo_lp(spec: TurboSpec, llr):
    """Flow LP of both encoders' trellis coupled through the codeword variables.

    Columns: x_s (k), x_a (k), x_b (k), then encoder a's and encoder b's flow
    blocks over the one trellis returned twice (`ta is tb`).  The systematic
    bits are tied to encoder a's input edges directly and to encoder b's
    through the interleaver.
    """
    k = spec.k
    llr = checked_llrs(llr, 3 * k)
    t = build_trellis(spec.fsm, k)
    col_a = {e.edge_id: 3 * k + i for i, e in enumerate(t.edges())}
    col_b = {eid: col + t.num_edges for eid, col in col_a.items()}
    rows = _flow_rows(t, col_a) + _flow_rows(t, col_b)
    for j, seg in enumerate(t.segments):
        parity = [e.edge_id for e in seg if e.output_bits[0]]
        inputs = [e.edge_id for e in seg if e.input_bit]
        for x_col, col, edges in ((k + j, col_a, parity), (2 * k + j, col_b, parity),
                                  (j, col_a, inputs), (spec.interleaver[j], col_b, inputs)):
            rows.append(LpRow(((x_col, 1.0),) + tuple((col[eid], -1.0) for eid in edges),
                              "=", 0.0))
    obj = np.concatenate([llr, np.zeros(2 * t.num_edges)])
    lp = make_problem(3 * k + 2 * t.num_edges, obj, rows)
    return lp, (t, t, col_a, col_b)


def turbo_lp_decode(spec: TurboSpec, llr) -> DecodeResult:
    """LP decoding of the coupled flow relaxation; an integral flow is the
    ML codeword."""

    def body(llr, stats):
        sol = stats.tally(solve(build_turbo_lp(spec, llr)[0]))
        if not sol.optimal:
            raise LpSolverError("turbo flow LP not optimal")
        x = sol.x[:3 * spec.k]
        if is_integral(sol.x):
            codeword = np.round(x).astype(np.uint8)
            return DecodeStatus.ML_CERTIFIED, codeword, float(llr @ codeword)
        return DecodeStatus.FRACTIONAL_FAILURE, x.copy(), sol.value

    return _decode(3 * spec.k, llr, body)


def turbo_lagrangian_decode(spec: TurboSpec, llr, max_iterations: int = 50
                            ) -> tuple[float, np.ndarray | None]:
    """Subgradient ascent on the dual of the interleaver coupling.

    Each iteration solves two independent shortest-path problems with
    multiplier-adjusted edge costs (classic step size a/(1+t) with
    a = max |llr|).  Returns the best dual lower bound on the flow-LP
    value and, whenever the two paths agree on the systematic bits, the
    best induced codeword.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")
    k = spec.k
    llr = checked_llrs(llr, 3 * k)
    lam_s, lam_a, lam_b = llr[:k], llr[k:2 * k], llr[2 * k:]
    t = build_trellis(spec.fsm, k)
    # per-edge arrays, indexed by edge_id (build_trellis numbers edges in order)
    seg = np.repeat(np.arange(k), [len(edges) for edges in t.segments])
    bit = np.array([e.input_bit for e in t.edges()], dtype=np.uint8)
    parity = np.array([e.output_bits[0] for e in t.edges()], dtype=np.uint8)
    base_a = lam_a[seg] * parity + lam_s[seg] * bit
    base_b = lam_b[seg] * parity
    pi = np.array(spec.interleaver)
    ones = bit == 1
    # an input edge of segment t carries multiplier mu[inv_pi[t]] in a, mu[t] in b
    mu_of_a = np.argsort(pi)[seg[ones]]
    mu_of_b = seg[ones]
    mu = np.zeros(k)
    step0 = float(np.max(np.abs(llr))) or 1.0
    best_lb = -math.inf
    best_cw, best_val = None, math.inf
    for it in range(max_iterations):
        cost_a = base_a.copy()
        cost_b = base_b.copy()
        cost_a[ones] += mu[mu_of_a]
        cost_b[ones] -= mu[mu_of_b]
        path_a, va = viterbi(t, cost_a)
        path_b, vb = viterbi(t, cost_b)
        best_lb = max(best_lb, va + vb)
        ua = bit[list(path_a)]
        ub = bit[list(path_b)]
        g = ua[pi].astype(float) - ub
        if not g.any():
            x = np.concatenate([ua, parity[list(path_a)], parity[list(path_b)]])
            val = float(llr @ x)
            if val < best_val:
                best_val, best_cw = val, x
        mu = mu + (step0 / (1.0 + it)) * g
    return best_lb, best_cw
