"""Dynamic programs against the exhaustive-enumeration ground truth.

Every observable of QuenchedSystem has an independent brute-force twin in
the oracle module; these tests drive both over random small instances and
require agreement at near machine precision.
"""

import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab.model import build_law, geometric_test_law, zero_disorder
from pinlab.numerics import DEFAULT_JET_ORDER
from pinlab.oracle import (
    enumerate_avoidance,
    enumerate_contact_pmf,
    enumerate_contact_probabilities,
    enumerate_excursion_cdf,
    enumerate_joint_cumulant,
    enumerate_moment,
    enumerate_partition,
    two_replica_avoidance,
    two_replica_avoidance_lse,
    two_replica_profiles,
)
from pinlab.quenched import (
    QuenchedSystem,
    _forward,
    _jet_forward,
    _pair_forward,
    ks_to_standard_normal,
)
from support import random_instance

GEOM = geometric_test_law(64)


def _systems(seed, count, n_lo=1, n_hi=14, extreme=False):
    """Random instances; extreme ones sit at the edge of the supported
    range, h in [-40, 60] and charges up to |omega| = 800."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        law, h, omega, n = random_instance(rng, n_lo=n_lo, n_hi=n_hi)
        if extreme:
            h = float(rng.uniform(-40.0, 60.0))
            omega = rng.uniform(-800.0, 800.0, n)
        yield law, h, omega, n, QuenchedSystem(law, h, omega, n)


# -- partition functions ------------------------------------------------------

def test_log_z_matches_enumeration():
    for law, h, omega, n, sys_ in chain(_systems(10, 60),
                                        _systems(110, 30, extreme=True)):
        want = enumerate_partition(law, h, omega, n)
        assert sys_.log_z == pytest.approx(want, rel=1e-14, abs=1e-11)


def test_log_z_minus_strips_last_charge():
    for law, h, omega, n, sys_ in _systems(11, 20):
        assert sys_.log_z_minus == pytest.approx(
            sys_.log_z - h - omega[n - 1], abs=1e-12)


def test_prefix_and_suffix_assemble():
    for law, h, omega, n, sys_ in chain(_systems(12, 10, n_lo=2),
                                        _systems(112, 10, n_lo=2, extreme=True)):
        assert sys_.prefix_logZ[0] == 0.0
        assert sys_.prefix_logZ[n] == pytest.approx(sys_.log_z, abs=1e-12)
        # prefix at k is the partition of the chain cut at k
        for k in range(1, n):
            cut = QuenchedSystem(law, h, omega[:k], k)
            assert sys_.prefix_logZ[k] == pytest.approx(cut.log_z, abs=1e-11)
        suf = sys_.suffix_logZ()
        assert suf[n] == 0.0
        assert suf[0] == pytest.approx(sys_.log_z, rel=1e-14, abs=1e-11)
        # suffix at a is the partition of the chain started at a
        for a in range(n):
            want = enumerate_partition(law, h, omega[a:], n - a)
            assert suf[a] == pytest.approx(want, rel=1e-14, abs=1e-11)


def test_segment_table_matches_shifted_chains():
    for law, h, omega, n, sys_ in chain(_systems(13, 8, n_lo=3, n_hi=10),
                                        _systems(113, 8, n_lo=3, n_hi=10,
                                                 extreme=True)):
        seg = sys_.segment_partitions(window=n)
        for i in range(n):
            for j in range(i + 1, n + 1):
                sub = QuenchedSystem(law, h, omega[i:j], j - i)
                assert seg.log_z(i, j) == pytest.approx(sub.log_z, abs=1e-10)
                want = enumerate_partition(law, h, omega[i:j], j - i)
                assert seg.log_z(i, j) == pytest.approx(want, rel=1e-14,
                                                        abs=1e-10)


def test_degenerate_empty_chain():
    sys_ = QuenchedSystem(GEOM, 0.3, np.zeros(0), 0)
    assert sys_.log_z == 0.0
    assert sys_.log_z_minus == 0.0
    np.testing.assert_allclose(sys_.contact_law().pmf(), [1.0])
    assert sys_.max_excursion_cdf(1) == 1.0
    assert np.all(sys_.cumulants(3).kappa[1:] == 0.0)


def test_horizon_guard():
    with pytest.raises(ValueError):
        QuenchedSystem(geometric_test_law(8), 0.0, np.zeros(9), 9)


def test_non_finite_input_is_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="h = "):
            QuenchedSystem(GEOM, bad, np.zeros(4), 4)
        omega = np.zeros(6)
        omega[2] = bad
        with pytest.raises(ValueError, match="omega_3"):
            QuenchedSystem(GEOM, 0.5, omega, 6)
    # charges past n are never read, so they are not checked
    QuenchedSystem(GEOM, 0.5, np.array([0.0, 0.0, math.nan]), 2)


# -- the forward engine -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=48),
       st.one_of(st.none(), st.integers(min_value=1, max_value=48)),
       st.sampled_from(["C", "F", "window"]),
       st.integers(min_value=0, max_value=2 ** 32),
       st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
def test_forward_rows_match_single_row_runs(rows, n, band, layout, seed,
                                            jet_order):
    # a row's table is bit-identical whatever batch it is computed in; with
    # a jet order the engine is _jet_forward (log scales and coefficients)
    rng = np.random.default_rng(seed)
    if jet_order is not None:
        band = None
    if layout == "window":
        # overlapping rows as in the segment table, -inf past the end
        flat = rng.normal(0.0, 3.0, rows + n - 1)
        if band is None:
            flat[n:] = -math.inf
        b = np.lib.stride_tricks.sliding_window_view(flat, n)
    else:
        b = np.asarray(rng.normal(0.0, 3.0, (rows, n)), order=layout)

    def run(weights):
        if jet_order is None:
            return (_forward(GEOM.log_p, weights, band),)
        return _jet_forward(GEOM.log_p, weights, jet_order)

    batched = run(b)
    assert batched[0].shape == (rows, n + 1)
    for table in batched:
        assert not np.isnan(table).any()
    for r in range(rows):
        alone = run(np.ascontiguousarray(b[r:r + 1]))
        for table, single in zip(batched, alone):
            assert table[r].tobytes() == single[0].tobytes()


# -- contact observables ------------------------------------------------------

def test_contact_probabilities_match_oracle():
    for law, h, omega, n, sys_ in chain(_systems(20, 40, n_lo=2),
                                        _systems(120, 20, n_lo=2, extreme=True)):
        want = enumerate_contact_probabilities(law, h, omega, n)
        got = [sys_.contact_probability(a) for a in range(n + 1)]
        np.testing.assert_allclose(got, want, atol=1e-11)


def test_contact_moments_match_oracle():
    rng = np.random.default_rng(21)
    for law, h, omega, n, sys_ in _systems(21, 25, n_lo=3):
        k = int(rng.integers(1, 4))
        sites = sorted(rng.choice(np.arange(1, n), size=min(k, n - 1),
                                  replace=False).tolist())
        want = enumerate_moment(law, h, omega, n, sites)
        assert sys_.contact_moment(sites) == pytest.approx(want, abs=1e-11)


def test_covariance_and_ursell_match_oracle():
    rng = np.random.default_rng(22)
    for law, h, omega, n, sys_ in _systems(22, 20, n_lo=4, n_hi=10):
        a, b = sorted(rng.choice(np.arange(1, n), size=2, replace=False).tolist())
        want = enumerate_joint_cumulant(law, h, omega, n, [a, b])
        assert sys_.contact_covariance(a, b) == pytest.approx(want, abs=1e-11)
        assert sys_.ursell([a, b]) == pytest.approx(want, abs=1e-11)
        assert sys_.ursell([a]) == pytest.approx(
            sys_.contact_probability(a), abs=1e-12)


def test_ursell_high_orders_match_oracle():
    rng = np.random.default_rng(23)
    for law, h, omega, n, sys_ in _systems(23, 12, n_lo=5, n_hi=9):
        for r in (3, 4):
            sites = sorted(rng.choice(np.arange(1, n), size=min(r, n - 1),
                                      replace=False).tolist())
            want = enumerate_joint_cumulant(law, h, omega, n, sites)
            assert sys_.ursell(sites) == pytest.approx(want, abs=1e-10)


def test_ursell_order_cap():
    sys_ = QuenchedSystem(GEOM, 0.2, np.zeros(8), 8)
    with pytest.raises(ValueError):
        sys_.ursell([1, 2, 3, 4, 5])


# -- contact-number law -------------------------------------------------------

def test_contact_law_matches_oracle():
    for law, h, omega, n, sys_ in _systems(30, 30):
        want = enumerate_contact_pmf(law, h, omega, n)
        cl = sys_.contact_law()
        np.testing.assert_allclose(cl.pmf(), want, atol=1e-11)
        assert cl.pmf().sum() == pytest.approx(1.0, abs=1e-10)


def test_contact_law_summaries():
    for law, h, omega, n, sys_ in _systems(31, 10, n_lo=2):
        cl = sys_.contact_law()
        pmf = cl.pmf()
        l = np.arange(pmf.size)
        mean = float(l @ pmf)
        assert cl.mean() == pytest.approx(mean, abs=1e-12)
        assert cl.variance() == pytest.approx(float((l - mean) ** 2 @ pmf),
                                              abs=1e-12)
        # two-sided tails against direct mass counts
        u = 0.8 * math.sqrt(max(cl.variance(), 1e-12))
        direct = float(pmf[np.abs(l - mean) >= u].sum())
        assert cl.tail_two_sided(u) == pytest.approx(direct, abs=1e-12)
        assert cl.cdf_below(mean) == pytest.approx(float(pmf[l < mean].sum()),
                                                   abs=1e-12)


# -- derivatives in h ---------------------------------------------------------

def test_cumulants_match_contact_law_moments():
    for law, h, omega, n, sys_ in _systems(40, 20, n_lo=2, n_hi=12):
        kap = sys_.cumulants(4).kappa
        cl = sys_.contact_law()
        pmf = cl.pmf()
        l = np.arange(pmf.size, dtype=float)
        m1 = float(l @ pmf)
        c2 = float((l - m1) ** 2 @ pmf)
        c3 = float((l - m1) ** 3 @ pmf)
        c4 = float((l - m1) ** 4 @ pmf) - 3.0 * c2 ** 2
        assert kap[1] == pytest.approx(m1, rel=1e-10, abs=1e-10)
        assert kap[2] == pytest.approx(c2, rel=1e-10, abs=1e-10)
        assert kap[3] == pytest.approx(c3, rel=1e-8, abs=1e-9)
        assert kap[4] == pytest.approx(c4, rel=1e-8, abs=1e-8)


def test_cumulants_match_finite_differences():
    step = 1e-3
    for law, h, omega, n, sys_ in _systems(41, 10, n_lo=2, n_hi=12):
        kap = sys_.cumulants(3).kappa
        z = [QuenchedSystem(law, h + k * step, omega, n).log_z
             for k in (-2, -1, 0, 1, 2)]
        d1 = (z[3] - z[1]) / (2 * step)
        d2 = (z[3] - 2 * z[2] + z[1]) / step ** 2
        d3 = (z[4] - 2 * z[3] + 2 * z[1] - z[0]) / (2 * step ** 3)
        assert kap[1] == pytest.approx(d1, rel=1e-4, abs=1e-6)
        assert kap[2] == pytest.approx(d2, rel=1e-4, abs=1e-4)
        assert kap[3] == pytest.approx(d3, rel=1e-3, abs=1e-3)


def test_cumulant_order_guard():
    sys_ = QuenchedSystem(GEOM, 0.5, np.zeros(8), 8)
    with pytest.raises(ValueError, match="exceeds jet order"):
        sys_.cumulants(DEFAULT_JET_ORDER + 1)
    kap = sys_.cumulants(DEFAULT_JET_ORDER).kappa
    assert kap.size == DEFAULT_JET_ORDER + 1 and np.all(np.isfinite(kap))


# -- maximal excursion --------------------------------------------------------

def test_max_excursion_cdf_matches_oracle():
    for law, h, omega, n, sys_ in chain(_systems(50, 25, n_lo=2, n_hi=10),
                                        _systems(150, 25, n_lo=2, n_hi=16,
                                                 extreme=True)):
        want = enumerate_excursion_cdf(law, h, omega, n)
        got = [sys_.max_excursion_cdf(m) for m in range(1, n + 1)]
        np.testing.assert_allclose(got, want[1:], atol=1e-10)


def test_max_excursion_trivial_cases():
    sys_ = QuenchedSystem(GEOM, 0.0, np.zeros(2), 2)
    assert sys_.max_excursion_cdf(1) == pytest.approx(0.5, abs=1e-14)
    assert sys_.max_excursion_cdf(2) == 1.0
    assert sys_.max_excursion_cdf(7) == 1.0
    with pytest.raises(ValueError):
        sys_.max_excursion_cdf(0)


# -- two-replica avoidance ----------------------------------------------------

def test_avoidance_matches_pair_enumeration():
    for law, h, omega, n, sys_ in _systems(60, 25, n_lo=2, n_hi=12):
        j_top = min(n, 8)
        lin = two_replica_avoidance(sys_, j_top)
        log = np.exp(sys_.two_replica_avoidance_log(j_top))
        assert math.isnan(lin[0]) and math.isnan(log[0])
        for j in range(1, j_top + 1):
            want = enumerate_avoidance(law, h, omega, j)
            assert lin[j] == pytest.approx(want, abs=1e-11)
            assert log[j] == pytest.approx(want, abs=1e-11)
        assert np.all(lin[1:] >= -1e-15) and np.all(lin[1:] <= 1.0 + 1e-12)


def test_avoidance_routes_agree_far_below_linear_floor():
    # deep windows: the subtractive route loses eps-level mass, the pair
    # route keeps full relative precision; both exist down to ~1e-12
    sys_ = QuenchedSystem(geometric_test_law(128), 2.5, np.zeros(64), 64)
    lin = two_replica_avoidance(sys_, 24)
    log = sys_.two_replica_avoidance_log(24)
    for j in range(1, 25):
        if lin[j] > 1e-10:
            assert lin[j] == pytest.approx(math.exp(log[j]), rel=1e-6)
    assert log[24] < math.log(1e-8)  # genuinely deep decay reached


def test_shifted_avoidance_windows():
    rng = np.random.default_rng(61)
    law, h, omega, n = random_instance(rng, n_lo=10, n_hi=12)
    sys_ = QuenchedSystem(law, h, omega, n)
    for start in (1, 3):
        j_top = min(n - start, 6)
        prof = two_replica_profiles(sys_, j_top, np.array([start]))[0]
        log = sys_.two_replica_avoidance_log(j_top, start=start)
        for j in range(1, j_top + 1):
            want = enumerate_avoidance(law, h, omega[start:], j)
            assert prof[j] == pytest.approx(want, abs=1e-10)
            assert math.exp(log[j]) == pytest.approx(want, abs=1e-10)


def _assert_log_avoidance_close(got, want):
    # same finite pattern, then |delta log a_j| / max(1, |log a_j|) <= 1e-14
    assert math.isnan(got[0]) and math.isnan(want[0])
    fin = np.isfinite(want[1:])
    assert np.array_equal(np.isfinite(got[1:]), fin)
    assert np.array_equal(got[1:][~fin], want[1:][~fin])
    g, w = got[1:][fin], want[1:][fin]
    assert np.all(np.abs(g - w) <= 1e-14 * np.maximum(1.0, np.abs(w)))


def test_avoidance_matches_log_domain_reference():
    # the scaled linear-domain engine against the log-sum-exp recursion:
    # small windows (1..3 included) at every start, ordinary and extreme
    for law, h, omega, n, sys_ in chain(_systems(62, 30),
                                        _systems(162, 30, extreme=True)):
        for start in range(n):
            for window in {*range(1, min(3, n - start) + 1), n - start}:
                _assert_log_avoidance_close(
                    sys_.two_replica_avoidance_log(window, start),
                    two_replica_avoidance_lse(sys_, window, start))


def test_avoidance_matches_log_domain_reference_extreme_wide():
    # h at the ends of [-40, 60], |omega| up to 800, wide shifted windows:
    # log a_j reaches -1e4, far below the subtractive route's floor
    law = build_law(1.0, None, 512)
    rng = np.random.default_rng(63)
    for h, window, start in ((-40.0, 400, 37), (60.0, 160, 5), (3.0, 96, 0)):
        omega = rng.uniform(-800.0, 800.0, 440)
        sys_ = QuenchedSystem(law, h, omega, 440)
        got = sys_.two_replica_avoidance_log(window, start)
        _assert_log_avoidance_close(
            got, two_replica_avoidance_lse(sys_, window, start))
        assert got[window] < -1e3


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=48),
       st.floats(min_value=-40.0, max_value=60.0),
       st.floats(min_value=0.0, max_value=800.0),
       st.integers(min_value=0, max_value=2 ** 32))
def test_pair_forward_rows_match_single_row_runs(rows, window, h, spread,
                                                 seed):
    # a row's log a_j are bit-identical whatever batch they are computed in
    law = build_law(1.0, None, 64)
    rng = np.random.default_rng(seed)
    bw = h + rng.uniform(-spread, spread, (rows, window + 1))
    zseg = _forward(law.log_p, bw[:, 1:])
    batched = _pair_forward(law.log_p, bw, zseg)
    assert batched.shape == (rows, window + 1)
    assert np.isnan(batched[:, 0]).all()
    assert not np.isnan(batched[:, 1:]).any()
    for r in range(rows):
        alone = _pair_forward(law.log_p, bw[r:r + 1], zseg[r:r + 1])
        assert batched[r].tobytes() == alone[0].tobytes()


def test_avoidance_window_guard():
    sys_ = QuenchedSystem(GEOM, 0.0, np.zeros(4), 4)
    with pytest.raises(ValueError):
        two_replica_avoidance(sys_, 5)
    with pytest.raises(ValueError):
        sys_.two_replica_avoidance_log(3, start=2)
    with pytest.raises(ValueError):
        two_replica_avoidance_lse(sys_, 3, start=2)


# -- invariances --------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.integers(min_value=0, max_value=2 ** 32))
def test_shift_covariance(delta, seed):
    rng = np.random.default_rng(seed)
    law, h, omega, n = random_instance(rng, n_lo=2, n_hi=8)
    base = QuenchedSystem(law, h, omega, n)
    shifted = QuenchedSystem(law, h + delta, omega - delta, n)
    assert shifted.log_z == pytest.approx(base.log_z, abs=1e-10)
    np.testing.assert_allclose(shifted.contact_law().pmf(),
                               base.contact_law().pmf(), atol=1e-10)
    j = min(n, 5)
    np.testing.assert_allclose(two_replica_avoidance(shifted, j)[1:],
                               two_replica_avoidance(base, j)[1:], atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_monotone_in_h_and_omega(seed):
    rng = np.random.default_rng(seed)
    law, h, omega, n = random_instance(rng, n_lo=1, n_hi=8)
    base = QuenchedSystem(law, h, omega, n).log_z
    assert QuenchedSystem(law, h + 0.3, omega, n).log_z >= base - 1e-12
    bumped = omega.copy()
    bumped[int(rng.integers(0, n))] += 0.4
    assert QuenchedSystem(law, h, bumped, n).log_z >= base - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_thermal_variance_nonnegative(seed):
    rng = np.random.default_rng(seed)
    law, h, omega, n = random_instance(rng, n_lo=1, n_hi=10)
    sys_ = QuenchedSystem(law, h, omega, n)
    assert sys_.cumulants(2).kappa[2] >= -1e-10


# -- standardization helper ---------------------------------------------------

def test_ks_to_standard_normal_units():
    # binomial-like contact law of a long pure chain is near gaussian
    sys_ = QuenchedSystem(geometric_test_law(512), math.log(3.0),
                          np.zeros(512), 512)
    cl = sys_.contact_law()
    ks, mean, var = ks_to_standard_normal(cl)
    assert 0.0 < ks < 0.05
    assert mean == pytest.approx(cl.mean())
    assert var == pytest.approx(cl.variance())
    # degenerate law: KS distance saturates
    point = QuenchedSystem(GEOM, 0.0, np.zeros(1), 1).contact_law()
    assert ks_to_standard_normal(point)[0] == 1.0
