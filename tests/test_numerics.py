import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinlab.model import geometric_test_law
from pinlab.numerics import (
    DEFAULT_JET_ORDER,
    LOG_ZERO,
    ScaledJet,
    log_mean_exp,
    log_of_jet,
    log_sum_exp,
)
from pinlab.quenched import QuenchedSystem

finite_logs = st.floats(min_value=-600.0, max_value=600.0,
                        allow_nan=False, allow_infinity=False)


# -- log-domain scalars -------------------------------------------------------

def test_log_sum_exp_empty_is_zero_state():
    assert log_sum_exp([]) == LOG_ZERO


def test_log_sum_exp_all_zero_states():
    assert log_sum_exp([LOG_ZERO, LOG_ZERO, LOG_ZERO]) == LOG_ZERO


def test_log_sum_exp_rejects_nan():
    with pytest.raises(ValueError):
        log_sum_exp([0.0, math.nan])


def test_log_sum_exp_survives_extreme_scales():
    # naive exp would overflow at 1e4 and underflow at -1e4
    assert log_sum_exp([1e4, 1e4]) == pytest.approx(1e4 + math.log(2.0))
    assert log_sum_exp([-1e4, -1e4]) == pytest.approx(-1e4 + math.log(2.0))
    assert log_sum_exp([0.0, -800.0]) == pytest.approx(0.0)


@given(st.lists(finite_logs, min_size=1, max_size=12))
def test_log_sum_exp_matches_reference(vals):
    want = float(np.logaddexp.reduce(np.asarray(vals)))
    assert log_sum_exp(vals) == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1,
                max_size=10),
       st.floats(min_value=-500.0, max_value=500.0))
def test_log_sum_exp_shift_equivariance(vals, shift):
    shifted = [v + shift for v in vals]
    assert log_sum_exp(shifted) == pytest.approx(log_sum_exp(vals) + shift,
                                                 rel=1e-12, abs=1e-9)


def test_log_mean_exp():
    assert log_mean_exp([0.0, 0.0]) == pytest.approx(0.0)
    vals = [0.0, math.log(3.0)]
    assert log_mean_exp(vals) == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        log_mean_exp([])


# -- jets ---------------------------------------------------------------------

def test_jet_validation():
    with pytest.raises(ValueError):
        ScaledJet(math.nan, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ScaledJet(0.0, np.array([2.0, 0.0]))  # coeffs[0] must be 1
    with pytest.raises(ValueError):
        ScaledJet(0.0, np.array([1.0, math.nan]))


def test_zero_and_constant_jets():
    z = ScaledJet(LOG_ZERO, np.zeros(5))  # zero jet: coeffs[0] is free
    assert z.scale == LOG_ZERO and z.order == 4
    c = ScaledJet(2.5, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(log_of_jet(c), [2.5, 0.0, 0.0, 0.0, 0.0])


def test_log_of_jet_inverts_exp():
    # exp(1.2 - 0.7 x): scale 1.2, coefficients (-0.7)^k / k!
    k = np.arange(7)
    coeffs = (-0.7) ** k / np.array([math.factorial(i) for i in k])
    g = log_of_jet(ScaledJet(1.2, coeffs))
    want = np.zeros(7)
    want[0], want[1] = 1.2, -0.7
    np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12)


def test_log_of_jet_random_series():
    # coefficients of log(f) recovered by composing back with exp
    rng = np.random.default_rng(11)
    for _ in range(10):
        coeffs = np.concatenate(([1.0], rng.normal(0.0, 0.5, 6)))
        jet = ScaledJet(float(rng.normal()), coeffs)
        g = log_of_jet(jet)
        # exp of the series g[1:] term by term via the same recursion inverse
        f = np.zeros(7)
        f[0] = 1.0
        for k in range(1, 7):
            f[k] = sum(i * g[i] * f[k - i] for i in range(1, k + 1)) / k
        np.testing.assert_allclose(f, coeffs, rtol=1e-10, atol=1e-10)
        assert g[0] == jet.scale


def test_log_of_zero_jet_raises():
    with pytest.raises(ValueError):
        log_of_jet(ScaledJet(LOG_ZERO, np.zeros(DEFAULT_JET_ORDER + 1)))


def test_default_order_is_shared():
    sys_ = QuenchedSystem(geometric_test_law(4), 0.0, np.zeros(2), 2)
    assert sys_.jet_order == DEFAULT_JET_ORDER
    assert sys_.cumulants(DEFAULT_JET_ORDER).kappa.size == DEFAULT_JET_ORDER + 1
