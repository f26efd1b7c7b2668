"""Flooding message passing against its per-check definition.

`_reference_message_passing` is the per-check loop that defined
`min_sum_decode` and `sum_product_decode` before they ran on the padded
check-major layout.  The decoders must reproduce it bit for bit: the same
status, iteration count, output point and value.
"""

import numpy as np
import pytest

from mpdec.decoders import DecodeStatus, min_sum_decode, sum_product_decode
from mpdec.gf2 import BinaryMatrix, LinearCode, random_regular_ldpc, syndrome

from conftest import random_sparse_code


def _reference_message_passing(code: LinearCode, llr, max_iterations: int,
                               use_min_sum: bool):
    """Returns (status, iterations, point, value) of the per-check loop."""
    llr = np.asarray(llr, dtype=float)
    n = code.n
    edges_i, edges_j = [], []
    for i, r in enumerate(code.H.rows):
        for j in range(n):
            if (r >> j) & 1:
                edges_i.append(i)
                edges_j.append(j)
    edges_i = np.array(edges_i, dtype=int)
    edges_j = np.array(edges_j, dtype=int)
    check_slices = [np.flatnonzero(edges_i == i) for i in range(code.m)]
    c2v = np.zeros(len(edges_i))
    posterior = llr.copy()
    for it in range(1, max_iterations + 1):
        totals = llr + np.bincount(edges_j, weights=c2v, minlength=n)
        v2c = np.clip(totals[edges_j] - c2v, -50.0, 50.0)
        for idx in check_slices:
            mu = v2c[idx]
            if use_min_sum:
                if len(mu) == 1:
                    c2v[idx] = 50.0
                    continue
                signs = np.where(mu < 0, -1.0, 1.0)
                sign_all = np.prod(signs)
                mags = np.abs(mu)
                o = np.argsort(mags)
                m1, m2 = mags[o[0]], mags[o[1]]
                out = sign_all * signs * np.where(np.arange(len(mu)) == o[0], m2, m1)
            else:
                t = np.tanh(mu / 2.0)
                d = len(t)
                front = np.ones(d)
                back = np.ones(d)
                for a in range(1, d):
                    front[a] = front[a - 1] * t[a - 1]
                for a in range(d - 2, -1, -1):
                    back[a] = back[a + 1] * t[a + 1]
                prod_excl = np.clip(front * back, -0.9999999999, 0.9999999999)
                out = 2.0 * np.arctanh(prod_excl)
            c2v[idx] = np.clip(out, -50.0, 50.0)
        posterior = llr + np.bincount(edges_j, weights=c2v, minlength=n)
        bits = (posterior < 0).astype(np.uint8)
        if not syndrome(code.H, bits).any():
            return DecodeStatus.CODEWORD_FOUND, it, bits, float(llr @ bits)
    probs = 1.0 / (1.0 + np.exp(np.clip(posterior, -50, 50)))
    return DecodeStatus.FRACTIONAL_FAILURE, max_iterations, probs, float(llr @ probs)


RULES = [(min_sum_decode, True), (sum_product_decode, False)]


def _assert_same(code, llr, max_iterations):
    for decode, use_min_sum in RULES:
        res = decode(code, llr, max_iterations)
        status, iterations, point, value = _reference_message_passing(
            code, llr, max_iterations, use_min_sum)
        assert res.status is status
        assert res.stats.iterations == iterations
        assert res.point.dtype == point.dtype
        assert np.array_equal(res.point, point)
        assert res.value == value


def _noisy_llr(rng, n, sigma):
    y = 1.0 + sigma * rng.standard_normal(n)
    return 2.0 * y / sigma ** 2


@pytest.mark.parametrize("max_iterations", [1, 50])
def test_regular_code_matches_reference(max_iterations):
    code = random_regular_ldpc(60, 3, 6, seed=5)
    rng = np.random.default_rng(31)
    for _ in range(25):
        _assert_same(code, _noisy_llr(rng, code.n, 0.8), max_iterations)


@pytest.mark.parametrize("max_iterations", [1, 20])
def test_irregular_codes_with_degree_one_rows_match_reference(max_iterations):
    rng = np.random.default_rng(32)
    degree_one = 0
    for _ in range(30):
        code = random_sparse_code(rng, int(rng.integers(6, 25)),
                                  int(rng.integers(3, 12)), w_min=1, w_max=7)
        degree_one += sum(r.bit_count() == 1 for r in code.H.rows)
        for _ in range(4):
            _assert_same(code, _noisy_llr(rng, code.n, 0.9), max_iterations)
    assert degree_one > 0


def test_zero_llr_and_ties_match_reference():
    code = random_regular_ldpc(24, 3, 6, seed=2)
    rng = np.random.default_rng(33)
    _assert_same(code, np.zeros(code.n), 5)
    for _ in range(10):
        _assert_same(code, rng.choice([-1.0, 0.0, 1.0, 2.0], size=code.n), 10)


def test_all_zero_check_row_sends_no_messages():
    h = BinaryMatrix.from_array([[1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 0, 0]])
    stripped = LinearCode(BinaryMatrix(4, h.rows[:2]))
    rng = np.random.default_rng(34)
    for llr in [np.array([0.5, -0.2, 0.3, -1.0]), *rng.standard_normal((20, 4))]:
        for decode, use_min_sum in RULES:
            res = decode(LinearCode(h), llr, 10)
            status, iterations, point, value = _reference_message_passing(
                stripped, llr, 10, use_min_sum)
            assert res.status is status
            assert res.stats.iterations == iterations
            assert np.array_equal(res.point, point)
            assert res.value == value


def test_degree_one_check_sends_fixed_message():
    # the lone check pins bit 0 with +50 every iteration, whatever it hears
    code = LinearCode(BinaryMatrix.from_array([[1, 0, 0], [1, 1, 1]]))
    res = min_sum_decode(code, np.array([-40.0, 1.0, 1.0]), 1)
    assert res.status is DecodeStatus.CODEWORD_FOUND
    assert res.codeword().tolist() == [0, 0, 0]
