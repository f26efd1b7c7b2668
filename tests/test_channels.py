"""Channel models and LLR computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdec.channels import (Biawgn, Bsc, ebn0_db_to_sigma, hard_decision, llr,
                            transmit, trial_rng)


def test_bsc_llr_closed_form():
    lam = llr(np.array([0.0, 1.0]), Bsc(0.1))
    assert lam[0] == pytest.approx(math.log(9), abs=1e-12)
    assert lam[1] == pytest.approx(-math.log(9), abs=1e-12)


def test_biawgn_llr_closed_form():
    lam = llr(np.array([0.5]), Biawgn(1.0))
    assert lam[0] == pytest.approx(1.0, abs=1e-12)


def test_bsc_constant_magnitude():
    lam = llr(np.array([0, 1, 1, 0, 0]), Bsc(0.2))
    assert np.allclose(np.abs(lam), abs(lam[0]))


def test_hard_decision_cases():
    assert hard_decision([2.2, -2.2, 0.0]).tolist() == [0, 1, 0]
    assert not hard_decision(np.ones(5)).any()


def test_invalid_channels():
    with pytest.raises(ValueError):
        Bsc(0.0)
    with pytest.raises(ValueError):
        Bsc(0.5)
    with pytest.raises(ValueError):
        Biawgn(0.0)


@pytest.mark.parametrize("sigma", [math.inf, math.nan, -1.0])
def test_biawgn_rejects_sigma_that_is_not_positive_and_finite(sigma):
    # an infinite sigma was accepted, and its llr() returned nan
    with pytest.raises(ValueError, match="sigma"):
        Biawgn(sigma)


@pytest.mark.parametrize("ebn0_db", [-math.inf, -1e4, 1e4])
def test_ebn0_out_of_range_is_a_value_error(ebn0_db):
    # -inf dB divided by zero; 1e4 dB overflowed
    with pytest.raises(ValueError, match="Eb/N0"):
        ebn0_db_to_sigma(ebn0_db, 0.5)


def test_transmit_deterministic():
    x = np.zeros(64, dtype=np.uint8)
    a = transmit(x, Bsc(0.3), 7)
    b = transmit(x, Bsc(0.3), 7)
    assert np.array_equal(a, b)
    ya = transmit(x, Biawgn(0.8), 7)
    yb = transmit(x, Biawgn(0.8), 7)
    assert np.array_equal(ya, yb)


def test_transmit_near_zero_flip_rate():
    x = np.zeros(10, dtype=np.uint8)
    flips = sum(transmit(x, Bsc(1e-9), seed).sum() for seed in range(50))
    assert flips == 0


def test_noiseless_bsc_round_trip():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, size=40).astype(np.uint8)
    y = transmit(x, Bsc(1e-9), 1)
    lam = llr(y, Bsc(1e-9))
    assert np.array_equal(hard_decision(lam), x)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_llr_sign_consistent_with_decision(values):
    y = np.array(values)
    lam = llr(y, Biawgn(0.9))
    bits = hard_decision(lam)
    assert np.all(bits[lam > 0] == 0)
    assert np.all(bits[lam < 0] == 1)


def test_ebn0_conversion():
    assert ebn0_db_to_sigma(0.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert ebn0_db_to_sigma(3.0, 0.5) < 1.0


def test_trial_rng_streams_independent_and_stable():
    a = trial_rng(1, 0, 0).random(4)
    b = trial_rng(1, 0, 1).random(4)
    a2 = trial_rng(1, 0, 0).random(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
