import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab.config import RunConfig
from pinlab.model import (
    DISORDER_FAMILIES,
    EllSpec,
    InterArrivalLaw,
    _analytic_tail,
    _xi_worst,
    build_law,
    gaussian_disorder,
    geometric_test_law,
    law_from_log_table,
    law_from_table,
    rademacher_disorder,
    sample_disorder_block,
    shifted_exponential_disorder,
    uniform_disorder,
    zero_disorder,
)
from pinlab.numerics import LOG_ZERO
from pinlab.oracle import classify_hc, exp_abs_moment


# -- inter-arrival laws -------------------------------------------------------

def test_law_table_layout():
    law = build_law(1.5, None, 32)
    assert law.log_p.size == 33
    assert law.log_p[0] == LOG_ZERO
    assert np.all(np.isfinite(law.log_p[1:]))


def test_unnormalized_law_is_exact_power():
    law = build_law(2.0, EllSpec("constant", 0.7), 16, normalize=False)
    for t in (1, 2, 5, 16):
        assert math.exp(law.log_p[t]) == pytest.approx(0.7 / t ** 3.0,
                                                       rel=1e-14)
    assert law.tail_mass > 0.0  # analytic tail estimate is still recorded


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1.0, max_value=3.0),
       st.integers(min_value=4, max_value=64))
def test_power_ratio_survives_normalization(alpha, n_max):
    law = build_law(alpha, None, n_max)
    t = np.arange(1, n_max // 2 + 1)
    ratio = law.log_p[2 * t] - law.log_p[t]
    np.testing.assert_allclose(ratio, -(alpha + 1.0) * math.log(2.0),
                               rtol=1e-10, atol=1e-10)


def test_normalized_mass_accounting():
    law = build_law(1.0, None, 128)
    tabulated = float(np.sum(np.exp(law.log_p[1:])))
    assert tabulated + law.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert tabulated < 1.0


def test_tail_bound_past_float_range():
    # n_max^alpha and e^alpha past e^700 are taken in log domain: against
    # 40-digit values, and 0 where the bound is below the float range
    mp.mp.dps = 40
    assert _analytic_tail(EllSpec("constant", 1.0), 100.0, 8192) == 0.0
    want = 1 / (78 * mp.mpf(8192) ** 78)
    got = _analytic_tail(EllSpec("constant", 1.0), 78.0, 8192)
    assert got == pytest.approx(float(want), rel=1e-12)
    a, alpha = mp.mpf(1100), mp.mpf(701)
    want = (mp.e ** alpha * alpha ** -a * mp.gamma(a)
            * mp.gammainc(a, alpha * (1 + mp.log(2)), mp.inf,
                          regularized=True))
    got = _analytic_tail(EllSpec("log_power", 1.0, 1099.0), 701.0, 2)
    assert 1e30 < got == pytest.approx(float(want), rel=1e-11)
    assert _analytic_tail(EllSpec("log_power", 1.0, 0.5), 800.0, 8192) == 0.0
    with pytest.raises(ValueError, match="past float range"):
        _analytic_tail(EllSpec("log_power", 1.0, 1999.0), 720.0, 2)


def test_log_power_ell_shape():
    law = build_law(1.0, EllSpec("log_power", 2.0, 0.5), 32, normalize=False)
    t = 7
    want = 2.0 * (1.0 + math.log(t)) ** 0.5 / t ** 2.0
    assert math.exp(law.log_p[t]) == pytest.approx(want, rel=1e-12)


def _xi_worst_loop(log_p, n_max):
    """Reference: the worst-ratio scan with tau as a gathered index array."""
    worst = np.full(n_max // 2 + 1, -np.inf)
    for t in range(1, n_max // 2 + 1):
        taus = np.arange(t, n_max - t + 1)
        worst[t] = float(np.max(log_p[t + taus] - log_p[t] - log_p[taus]))
    return worst


def test_xi_scan_matches_gathered_loop():
    # the slices do the loop's arithmetic on the same operands, so every
    # worst ratio, and hence xi, keeps its bits
    rng = np.random.default_rng(23)
    laws = [build_law(1.0, None, 513), build_law(2.5, None, 8192),
            build_law(1.0, EllSpec("log_power", 2.0, 0.5), 1000),
            build_law(1.5, EllSpec("log_power", 0.5, -0.5), 777,
                      normalize=False),
            law_from_table(rng.uniform(0.01, 1.0, 600)),
            law_from_log_table(rng.normal(-8.0, 3.0, 1025))]
    for law in laws:
        for n_max in (2, 3, law.n_max - 1, law.n_max):
            got = _xi_worst(law.log_p, n_max)
            assert got.tobytes() == _xi_worst_loop(law.log_p, n_max).tobytes()


def test_law_validation():
    with pytest.raises(ValueError):
        build_law(0.99, None, 16)
    with pytest.raises(ValueError):
        build_law(1.0, None, 1)
    with pytest.raises(ValueError):
        EllSpec("cauchy", 1.0)
    with pytest.raises(ValueError):
        EllSpec("constant", 0.0)
    with pytest.raises(ValueError):
        EllSpec("log_power", 1.0, -1.0)


def test_table_law_roundtrip_and_validation():
    law = law_from_table([0.5, 0.25, 0.125])
    assert law.n_max == 3 and law.log_p[0] == LOG_ZERO
    assert np.exp(law.log_p[1:]) == pytest.approx([0.5, 0.25, 0.125])
    # the linear table is its log table, bit for bit
    log_law = law_from_log_table(np.log([0.5, 0.25, 0.125]))
    assert law.log_p.tobytes() == log_law.log_p.tobytes()
    assert law.xi == log_law.xi
    with pytest.raises(ValueError):
        law_from_table([0.5])
    with pytest.raises(ValueError):
        law_from_table([0.5, 0.0])
    with pytest.raises(ValueError):
        law_from_table([0.8, 0.5], normalized=True)


def test_log_table_reaches_depths_linear_tables_cannot():
    t = np.arange(1, 2001, dtype=float)
    law = law_from_log_table(-t * math.log(2.0))
    assert law.log_p[2000] == pytest.approx(-2000 * math.log(2.0))
    with pytest.raises(ValueError):
        law_from_log_table([0.0, -math.inf])


@pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
def test_law_with_a_non_finite_log_p_is_refused(bad):
    # the engines take p(t) > 0 on [1, n_max]: a law that breaks it is
    # refused where it is built, with the first bad t named; entry 0 (no
    # zero-length excursion) stays -inf
    lp = np.concatenate(([LOG_ZERO], -np.arange(1, 9, dtype=float)))
    lp[5] = bad
    with pytest.raises(ValueError, match=r"log p\(5\) = .* not finite"):
        InterArrivalLaw(8, lp, 1.0)


def test_every_law_factory_makes_a_finite_law():
    # every law a factory (or a config kind) makes passes the check,
    # geometric laws deep into underflow of p(t) in linear domain included
    laws = [build_law(1.0, None, 4096), build_law(1.5, None, 8192),
            build_law(3.0, EllSpec("log_power", 2.0, 0.5), 512, False),
            law_from_table([0.5, 0.25, 0.125]),
            law_from_log_table(-np.arange(1, 2001) * 0.7),
            geometric_test_law(4096)]
    models = ({"kind": "power", "alpha": 2.0, "n_max": 256},
              {"kind": "power", "ell_form": "log_power", "ell_beta": -0.5},
              {"kind": "geometric", "n_max": 1024},
              {"kind": "table", "table": [0.5, 0.25, 0.125]})
    laws += [RunConfig.from_dict({"model": model,
                                  "grids": {"n_values": [2]}}).law()
             for model in models]
    for law in laws:
        assert law.log_p[0] == LOG_ZERO
        assert np.isfinite(law.log_p[1:]).all()


def test_xi_beyond_float_range_is_rejected():
    # a +900 jump at p(2) makes p(2)/p(1)^2 about e^900: no float xi
    # bounds it, and the search must say so rather than double forever
    lp = -np.arange(1, 65, dtype=float) * math.log(2.0)
    lp[1] += 900.0
    with pytest.raises(ValueError, match=r"worst ratio .* is e\^900\b"):
        law_from_log_table(lp)


def test_xi_past_the_float_grid_ends():
    # p(3)/(p(1) p(2)) = 5e299 puts xi near 5e299, where adjacent floats
    # are far more than the 1e-3 grid apart: the bisection stops there
    law = law_from_table([0.5, 1e-300, 0.25])
    assert math.log(law.xi) == pytest.approx(690.08, abs=0.01)


def test_geometric_test_law():
    law = geometric_test_law(64)
    # a sub-probability: the tabulated mass is 1 - 2^-64
    assert float(np.sum(np.exp(law.log_p[1:]))) <= 1.0
    for t in (1, 2, 10):
        assert math.exp(law.log_p[t]) == pytest.approx(2.0 ** -t, rel=1e-14)
    # p(t+s) = xi * p(t) * p(s) holds with equality at xi = 1
    assert law.xi == pytest.approx(1.0, abs=2e-3)


def test_classify_hc():
    assert classify_hc(1.0, 1.0) == "finite"
    assert classify_hc(1.0, 0.4) == "minus_infinity"
    assert classify_hc(1.0, 0.5) == "undecided"
    with pytest.raises(ValueError):
        classify_hc(0.5, 1.0)
    with pytest.raises(ValueError):
        classify_hc(1.0, 0.0)


# -- disorder families --------------------------------------------------------

ALL_FAMILIES = (
    zero_disorder(),
    gaussian_disorder(0.8),
    uniform_disorder(1.2),
    rademacher_disorder(0.6),
    shifted_exponential_disorder(1.5),
)


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda d: d.family)
def test_family_moments_match_draws(law):
    rng = np.random.default_rng(42)
    x = law.draw(rng, 50_000)
    assert abs(x.mean()) < 0.02 * max(1.0, law.param)
    assert x.var() == pytest.approx(law.variance, rel=0.05, abs=1e-12)


def test_is_pure_only_for_zero():
    assert zero_disorder().is_pure
    assert not any(d.is_pure for d in ALL_FAMILIES[1:])


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda d: d.family)
def test_exp_abs_moment_closed_forms(law):
    eta = 0.5
    want = exp_abs_moment(law, eta)
    rng = np.random.default_rng(7)
    got = np.exp(eta * np.abs(law.draw(rng, 200_000))).mean()
    assert got == pytest.approx(want, rel=0.05)


def test_exp_abs_moment_boundary():
    law = shifted_exponential_disorder(2.0)  # varrho = 0.5
    assert exp_abs_moment(law, 0.5) == math.inf
    assert math.isfinite(exp_abs_moment(law, 0.49))
    assert exp_abs_moment(zero_disorder(), 3.0) == 1.0


def test_constructor_validation():
    for ctor in (gaussian_disorder, uniform_disorder, rademacher_disorder,
                 shifted_exponential_disorder):
        with pytest.raises(ValueError):
            ctor(0.0)


def test_family_registry():
    assert set(DISORDER_FAMILIES) == {"zero", "gaussian", "uniform_centered",
                                      "rademacher", "shifted_exponential"}
    for name, ctor in DISORDER_FAMILIES.items():
        assert ctor(1.0).family == name


# -- counter-mode disorder streams --------------------------------------------

def test_block_matches_single_draws():
    law = gaussian_disorder(1.0)
    block = sample_disorder_block(law, 17, 99, 0, 8)
    assert block.shape == (8, 17)
    for i in range(8):
        single = sample_disorder_block(law, 17, 99, i, 1)
        np.testing.assert_array_equal(block[i], single[0])


def test_block_boundaries_are_invisible():
    law = uniform_disorder(0.5)
    whole = sample_disorder_block(law, 9, 123, 0, 10)
    parts = np.vstack([sample_disorder_block(law, 9, 123, 0, 3),
                       sample_disorder_block(law, 9, 123, 3, 4),
                       sample_disorder_block(law, 9, 123, 7, 3)])
    np.testing.assert_array_equal(whole, parts)


def test_streams_are_keyed_not_sequential():
    law = gaussian_disorder(1.0)
    a = sample_disorder_block(law, 50, 1, 0, 1)[0]
    b = sample_disorder_block(law, 50, 1, 1, 1)[0]
    c = sample_disorder_block(law, 50, 2, 0, 1)[0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(a, sample_disorder_block(law, 50, 1, 0, 1)[0])


def test_seed_range_validation():
    law = gaussian_disorder(1.0)
    with pytest.raises(ValueError):
        sample_disorder_block(law, 4, 2 ** 64, 0, 1)
    with pytest.raises(ValueError):
        sample_disorder_block(law, 4, 0, -1, 1)


def test_block_sizes_validation():
    law = gaussian_disorder(1.0)
    with pytest.raises(ValueError, match="n >= 1"):
        sample_disorder_block(law, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="count >= 1"):
        sample_disorder_block(law, 4, 0, 0, 0)


@pytest.mark.parametrize("family", sorted(DISORDER_FAMILIES))
def test_block_rows_equal_fresh_generator_rows(family):
    # the block re-keys one Philox per row; each row must be the draw of a
    # new generator keyed (seed, index), for every family's draw path
    # (rademacher's integers reads the cached uint32 half), here from a
    # block that starts at a nonzero index
    law = DISORDER_FAMILIES[family](0.7)
    block = sample_disorder_block(law, 33, 2024, 5, 6)
    for i in range(6):
        key = np.array([2024, 5 + i], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        np.testing.assert_array_equal(block[i], law.draw(rng, 33))


@pytest.mark.parametrize("family", sorted(DISORDER_FAMILIES))
def test_shorter_draws_are_prefixes_of_longer_ones(family):
    # the draw at n is the first n charges of the draw at 8192, row by
    # row: pinlab compute runs one moment pass at its largest n and reads
    # the smaller n's chains as that pass's first columns
    law = DISORDER_FAMILIES[family](0.7)
    long = sample_disorder_block(law, 8192, 31, 4, 3)
    for n in (1, 17, 2048):
        short = sample_disorder_block(law, n, 31, 4, 3)
        assert short.tobytes() == np.ascontiguousarray(long[:, :n]).tobytes()
