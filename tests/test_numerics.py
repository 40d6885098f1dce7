import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinlab.model import geometric_test_law
from pinlab.numerics import (
    DEFAULT_JET_ORDER,
    LOG_ZERO,
    _log_series,
    log_mean_exp,
    log_of_jet,
)
from pinlab.oracle import log_sum_exp
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


@given(st.lists(st.one_of(finite_logs, st.just(LOG_ZERO)), min_size=1,
                max_size=12))
def test_log_mean_exp_is_the_estimators_expression(vals):
    # the bits of m + log mean exp(x - m), which estimate_f, estimate_mu
    # and C13 print, and within roundoff of log_sum_exp - log size; -inf
    # when every entry is -inf
    x = np.asarray(vals)
    m = float(np.max(x))
    if m == LOG_ZERO:
        assert log_mean_exp(x) == LOG_ZERO
    else:
        want = m + math.log(float(np.mean(np.exp(x - m))))
        assert log_mean_exp(x) == want
        assert log_mean_exp(x) == pytest.approx(
            log_sum_exp(vals) - math.log(x.size), rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        log_mean_exp([])


# -- jets ---------------------------------------------------------------------

def test_jet_validation():
    with pytest.raises(ValueError, match="NaN"):
        log_of_jet(math.nan, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="NaN"):
        log_of_jet(0.0, np.array([1.0, math.nan]))


def test_zero_and_constant_jets():
    with pytest.raises(ValueError, match="zero jet"):
        log_of_jet(LOG_ZERO, np.zeros(5))
    c = [1.0, 0.0, 0.0, 0.0, 0.0]
    np.testing.assert_array_equal(log_of_jet(2.5, c), [2.5, 0.0, 0.0, 0.0, 0.0])


def test_log_of_jet_inverts_exp():
    # exp(1.2 - 0.7 x): scale 1.2, coefficients (-0.7)^k / k!
    k = np.arange(7)
    coeffs = (-0.7) ** k / np.array([math.factorial(i) for i in k])
    g = log_of_jet(1.2, coeffs)
    want = np.zeros(7)
    want[0], want[1] = 1.2, -0.7
    np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12)


def test_log_of_jet_random_series():
    # coefficients of log(f) recovered by composing back with exp
    rng = np.random.default_rng(11)
    for _ in range(10):
        coeffs = np.concatenate(([1.0], rng.normal(0.0, 0.5, 6)))
        scale = float(rng.normal())
        g = log_of_jet(scale, coeffs)
        # exp of the series g[1:] term by term via the same recursion inverse
        f = np.zeros(7)
        f[0] = 1.0
        for k in range(1, 7):
            f[k] = sum(i * g[i] * f[k - i] for i in range(1, k + 1)) / k
        np.testing.assert_allclose(f, coeffs, rtol=1e-10, atol=1e-10)
        assert g[0] == scale
    # the row helper on several series at once equals log_of_jet row by row
    rows = np.concatenate((np.ones((5, 1)), rng.normal(0.0, 0.5, (5, 8))), 1)
    batched = _log_series(rows)
    for r in range(rows.shape[0]):
        g = log_of_jet(0.0, rows[r])
        assert batched[r].tobytes() == g.tobytes()


def test_log_of_zero_jet_raises():
    with pytest.raises(ValueError):
        log_of_jet(LOG_ZERO, np.zeros(DEFAULT_JET_ORDER + 1))


def test_default_order_is_shared():
    sys_ = QuenchedSystem(geometric_test_law(4), 0.0, np.zeros(2), 2)
    assert sys_.cumulants(DEFAULT_JET_ORDER).kappa.size == DEFAULT_JET_ORDER + 1
