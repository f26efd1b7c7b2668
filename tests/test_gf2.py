"""GF(2) core: elimination, oracles, constructors, alist round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdec.gf2 import (BinaryMatrix, LinearCode, TannerGraph,
                       enumerate_codewords, girth, load_alist,
                       min_distance_bruteforce, ml_bruteforce, pack_bits,
                       random_regular_ldpc, rank, rref, save_alist,
                       set_bits, spc_product_code, syndrome, unpack_bits)

from conftest import H84_ARRAY, random_sparse_code


binary_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=6).map(
        lambda rows: BinaryMatrix(n, tuple(rows))))


def test_pack_unpack_roundtrip():
    bits = [1, 0, 1, 1, 0, 0, 1]
    assert list(unpack_bits(pack_bits(bits), 7)) == bits


def test_rref_identity():
    eye = BinaryMatrix.from_array(np.eye(3, dtype=int))
    red, piv = rref(eye)
    assert red == eye and piv == (0, 1, 2)


def test_rref_zero():
    z = BinaryMatrix.from_array(np.zeros((2, 4), dtype=int))
    red, piv = rref(z)
    assert red == z and piv == ()


def test_rref_rank_of_84(code84):
    _, piv = rref(code84.H)
    assert len(piv) == 4
    assert code84.k == 4


@given(binary_matrices)
@settings(max_examples=100, deadline=None)
def test_rref_idempotent(mat):
    red, piv = rref(mat)
    red2, piv2 = rref(red)
    assert red == red2 and piv == piv2


@given(binary_matrices)
@settings(max_examples=60, deadline=None)
def test_rref_preserves_row_space(mat):
    red, _ = rref(mat)
    # identical row spaces <=> identical reduced forms
    nonzero = tuple(sorted(r for r in red.rows if r))
    again = tuple(sorted(r for r in rref(BinaryMatrix(mat.n, nonzero or (0,)))[0].rows if r))
    assert nonzero == again


def test_syndrome_zero_vector(code84):
    assert not syndrome(code84.H, np.zeros(8, dtype=int)).any()


def test_syndrome_spc_even_weight():
    h = BinaryMatrix(3, (0b111,))
    assert syndrome(h, [1, 1, 0]).tolist() == [0]


def test_syndrome_unit_vector_gives_column(code84):
    e1 = np.zeros(8, dtype=int)
    e1[0] = 1
    assert syndrome(code84.H, e1).tolist() == [1, 1, 1, 0]


def test_syndrome_length_mismatch(code84):
    with pytest.raises(ValueError):
        syndrome(code84.H, [0, 1])
    with pytest.raises(ValueError):
        syndrome(code84.H, np.zeros((2, 8), dtype=np.uint8))


def _packed_syndrome(h, x):
    # the bit-packed definition: parity of popcount(row & x) with x_j = int(x_j) mod 2
    word = pack_bits(int(b) % 2 for b in x)
    return np.array([(r & word).bit_count() & 1 for r in h.rows], dtype=np.uint8)


def test_syndrome_matches_packed_definition():
    rng = np.random.default_rng(12)
    mats = [random_regular_ldpc(24, 3, 6, seed=3).H,
            BinaryMatrix(5, (0b10011, 0, 0b00001, 0b11111)),
            BinaryMatrix(3, ())]
    for h in mats:
        for _ in range(20):
            ints = rng.integers(-5, 6, size=h.n)
            for x in (ints, ints.astype(np.int8), (ints % 2).astype(np.uint8),
                      (ints % 2).astype(bool), (ints % 2).astype(float),
                      (ints % 2).tolist()):
                got = syndrome(h, x)
                assert got.dtype == np.uint8
                assert got.tolist() == _packed_syndrome(h, np.asarray(x)).tolist()


@given(st.integers(0, 2 ** 300))
def test_set_bits_ascending(word):
    assert set_bits(word) == tuple(j for j in range(word.bit_length()) if (word >> j) & 1)


def test_check_layout_is_lazy_and_padded():
    h = BinaryMatrix.from_array([[1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 0, 0]])
    assert "layout" not in vars(h)
    assert [h.row_support(i) for i in range(h.m)] == [(0, 1), (1, 2, 3), ()]
    assert h.layout.cols.tolist() == [[0, 1, 4], [1, 2, 3], [4, 4, 4]]
    assert h.layout.mask.tolist() == [[True, True, False], [True, True, True],
                                      [False, False, False]]
    assert not h.layout.cols.flags.writeable
    assert TannerGraph.from_matrix(h).check_neighbors == h.layout.supports
    assert TannerGraph.from_matrix(h).var_neighbors == ((0,), (0, 1), (1,), (1,))


def test_check_layout_of_multibyte_rows():
    # rows wider than one byte, an empty row and a lone bit: the padded
    # arrays must list each row's bits in order, and stay contiguous
    rng = np.random.default_rng(99)
    for code in (random_regular_ldpc(24, 3, 6, 1), random_sparse_code(rng, 15, 9, 1, 6),
                 LinearCode(BinaryMatrix(19, (0, (1 << 18) | 0b101101, 0, 0b1)))):
        h = code.H
        layout = h.layout
        assert layout.supports == tuple(
            tuple(j for j in range(h.n) if (r >> j) & 1) for r in h.rows)
        for support, cols, mask in zip(layout.supports, layout.cols, layout.mask):
            assert tuple(cols[mask]) == support and not mask[len(support):].any()
            assert (cols[~mask] == h.n).all()
        assert layout.cols.shape[1] == max(1, max(map(len, layout.supports)))
        assert layout.cols.flags.c_contiguous and layout.mask.flags.c_contiguous


def test_enumerate_spc3():
    code = LinearCode(BinaryMatrix(3, (0b111,)))
    words = {tuple(w) for w in enumerate_codewords(code)}
    assert words == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_enumerate_hamming(hamming):
    words = enumerate_codewords(hamming)
    assert len(words) == 16
    assert any(np.all(w == 1) for w in words)
    for w in words:
        assert not syndrome(hamming.H, w).any()


def test_enumerate_dimension_zero():
    code = LinearCode(BinaryMatrix.from_array(np.eye(3, dtype=int)))
    words = enumerate_codewords(code)
    assert words.shape == (1, 3) and not words.any()


def test_min_distance_examples(hamming):
    assert min_distance_bruteforce(LinearCode(BinaryMatrix(3, (0b111,)))) == 2
    assert min_distance_bruteforce(hamming) == 3
    assert min_distance_bruteforce(spc_product_code((3, 3))) == 4


def test_min_distance_zero_dim_raises():
    code = LinearCode(BinaryMatrix.from_array(np.eye(2, dtype=int)))
    with pytest.raises(ValueError):
        min_distance_bruteforce(code)


def test_min_distance_matches_pairwise():
    rng = np.random.default_rng(5)
    from conftest import random_sparse_code
    for _ in range(10):
        code = random_sparse_code(rng, int(rng.integers(6, 11)), 4)
        if code.k == 0 or code.k > 10:
            continue
        words = enumerate_codewords(code)
        pair = min(int(np.sum(a != b)) for i, a in enumerate(words)
                   for b in words[i + 1:])
        assert min_distance_bruteforce(code) == pair


def test_ml_bruteforce_all_positive(code84):
    cw, val = ml_bruteforce(code84, np.ones(8))
    assert not cw.any() and val == 0.0


def test_ml_bruteforce_spc():
    code = LinearCode(BinaryMatrix(3, (0b111,)))
    cw, val = ml_bruteforce(code, [-1.0, -1.0, 1.0])
    assert cw.tolist() == [1, 1, 0] and val == -2.0


def test_ml_bruteforce_all_ones(hamming):
    cw, val = ml_bruteforce(hamming, -np.ones(7))
    assert np.all(cw == 1) and val == -7.0


def test_ml_bruteforce_tie_lexicographic():
    code = LinearCode(BinaryMatrix(4, (pack_bits([1, 1, 0, 0]),
                                       pack_bits([0, 0, 1, 1]))))
    cw, val = ml_bruteforce(code, [-1.0, -1.0, -1.0, -1.0])
    assert val == -4.0 and cw.tolist() == [1, 1, 1, 1]
    # all four codewords tie at zero: the lexicographically smallest wins
    cw, val = ml_bruteforce(code, [-1.0, 1.0, 1.0, -1.0])
    assert val == 0.0 and cw.tolist() == [0, 0, 0, 0]


def test_random_regular_small():
    code = random_regular_ldpc(8, 1, 2, seed=1)
    assert code.H.m == 4
    assert all(r.bit_count() == 2 for r in code.H.rows)


def test_random_regular_3_4():
    code = random_regular_ldpc(60, 3, 4, seed=2)
    assert code.H.m == 45
    assert all(r.bit_count() == 4 for r in code.H.rows)
    cols = code.H.to_array().sum(axis=0)
    assert set(cols.tolist()) == {3}


def test_random_regular_deterministic():
    a = random_regular_ldpc(24, 3, 4, seed=9)
    b = random_regular_ldpc(24, 3, 4, seed=9)
    assert a.H == b.H


def test_random_regular_infeasible():
    with pytest.raises(ValueError):
        random_regular_ldpc(7, 3, 4, seed=0)


def test_spc_product_grid():
    code = spc_product_code((3, 3))
    assert code.n == 9 and code.H.m == 6
    assert code.k == 4


def test_spc_product_large_blocklength():
    code = spc_product_code((4, 4, 4, 4, 4))
    assert code.n == 1024
    assert code.H.m == 5 * 256


def test_spc_product_5_5_distance():
    assert min_distance_bruteforce(spc_product_code((5, 5))) == 4


def test_girth_tree():
    tg = TannerGraph(((0, 1), (2, 3)), ((0,), (0,), (1,), (1,)))
    assert girth(tg) == math.inf


def test_girth_four():
    h = BinaryMatrix.from_array([[1, 1, 0], [1, 1, 1]])
    assert girth(TannerGraph.from_matrix(h)) == 4


def test_girth_84(code84):
    assert girth(code84.tanner) == 4


def test_alist_84(code84):
    text = save_alist(code84)
    lines = text.splitlines()
    assert lines[0] == "8 4"
    assert lines[1] == "3 4"
    again = load_alist(text)
    assert again.H == code84.H


def test_alist_roundtrip_random():
    code = random_regular_ldpc(20, 3, 4, seed=4)
    assert load_alist(save_alist(code)).H == code.H


def test_alist_truncated():
    with pytest.raises(ValueError):
        load_alist("8 4\n3 4\n")


def test_alist_bad_degree():
    code = random_regular_ldpc(8, 1, 2, seed=1)
    text = save_alist(code)
    lines = text.splitlines()
    lines[2] = " ".join(["2"] * 8)  # wrong column degrees
    with pytest.raises(ValueError):
        load_alist("\n".join(lines))


def test_alist_out_of_range_index():
    bad = "2 1\n1 2\n1 1\n2\n1\n9\n1 2\n"
    with pytest.raises(ValueError):
        load_alist(bad)


@given(binary_matrices)
@settings(max_examples=60, deadline=None)
def test_alist_roundtrip_property(mat):
    code = LinearCode(mat)
    assert load_alist(save_alist(code)).H == mat


def test_generated_codewords_have_zero_syndrome():
    rng = np.random.default_rng(11)
    for seed in range(5):
        code = random_regular_ldpc(16, 2, 4, seed=seed)
        for w in enumerate_codewords(code):
            assert not syndrome(code.H, w).any()
        assert rank(code.H) + code.k == code.n


def _irregular_codes():
    rng = np.random.default_rng(71)
    codes = [random_regular_ldpc(24, 3, 6, seed=2), random_regular_ldpc(20, 2, 4, seed=5),
             LinearCode(BinaryMatrix(5, (0b00011, 0, 0b11100, 0b00001)))]
    for _ in range(6):
        n = int(rng.integers(3, 12))
        rows = tuple(int(r) for r in rng.integers(0, 2 ** n, size=int(rng.integers(1, 8))))
        codes.append(LinearCode(BinaryMatrix(n, rows)))
    return codes


def test_tanner_graph_matches_column_scan():
    # the old definition: every column's checks by scanning all rows
    for code in _irregular_codes():
        h = code.H
        tg = TannerGraph.from_matrix(h)
        assert tg.var_neighbors == tuple(h.column_support(j) for j in range(h.n))
        assert tg.check_neighbors == tuple(
            tuple(j for j in range(h.n) if (r >> j) & 1) for r in h.rows)


def test_alist_roundtrip_irregular():
    for code in _irregular_codes():
        if code.H.m:
            assert load_alist(save_alist(code)).H == code.H


@pytest.mark.parametrize("text, message", [
    ("8 4\n3 4\n", "alist truncated: need header, degree bounds, degree lists"),
    ("2 x\n1 1\n1 1\n2\n", "malformed alist header: invalid literal for int() "
                           "with base 10: 'x'"),
    ("0 1\n1 1\n0\n1\n", "alist header: dimensions must be positive"),
    ("2 1\n1 2\n1\n2\n", "alist degree list length mismatch"),
    ("2 1\n1 1\n1 1\n2\n", "alist degree exceeds declared maximum"),
    ("2 1\n1 2\n1 1\n2\n1\n", "alist truncated: missing neighbor lists"),
    ("2 1\n1 2\n1 1\n2\n1 1\n1\n1 2\n", "column 0: degree list inconsistent with neighbors"),
    ("2 1\n1 2\n1 1\n2\n1\n9\n1 2\n", "column 1: check index 9 out of range"),
    ("2 1\n1 2\n1 1\n2\n1\n1\n1\n", "row 0: degree list inconsistent with neighbors"),
    ("3 1\n1 2\n1 1 0\n2\n1\n1\n0\n1 3\n", "row 0: row/column neighbor lists disagree"),
])
def test_alist_error_messages(text, message):
    with pytest.raises(ValueError) as info:
        load_alist(text)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [17, 18])
def test_ml_bruteforce_ties_within_cost_tol(n):
    # n=17 enumerates through the codeword table (k=16), n=18 through the
    # Gray-code walk (k=17); both count a word within COST_TOL of the
    # minimum as tied, so the lexicographically smaller zero word wins
    code = LinearCode(BinaryMatrix(n, ((1 << n) - 1,)))
    lam = np.ones(n)
    lam[0], lam[1] = -1.0, 1.0 - 3e-10
    cw, val = ml_bruteforce(code, lam)
    assert not cw.any() and val == 0.0
    lam[1] = 1.0 - 3e-9
    cw, val = ml_bruteforce(code, lam)
    assert cw.tolist() == [1, 1] + [0] * (n - 2)
    assert val == pytest.approx(-3e-9, abs=1e-15)
