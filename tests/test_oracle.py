"""Internal consistency of the brute-force enumeration layer.

These tests use hand-derivable toy values and cross-checks between the
enumeration routines themselves, plus the test-only helper ``ursell``
of the oracle module against the enumerated joint cumulant, and the
numerics' ``log_mean_exp``; agreement of the dynamic programs with the
enumeration lives in test_quenched.py.
"""

import math

import numpy as np
import pytest

from pinlab.model import build_law, geometric_test_law, law_from_table
from pinlab.numerics import log_mean_exp
from pinlab.oracle import (
    ORACLE_MAX_N,
    build_path_set,
    enumerate_avoidance,
    enumerate_contact_pmf,
    enumerate_contact_probabilities,
    enumerate_excursion_cdf,
    enumerate_expectation,
    enumerate_joint_cumulant,
    enumerate_moment,
    enumerate_partition,
    pure_model_free_energy,
    ursell,
)
from pinlab.quenched import QuenchedSystem
from support import random_instance

GEOM = geometric_test_law(64)
ZERO2 = np.zeros(2)


def test_toy_two_site_partition():
    # Z_2 = p(1)^2 + p(2) = 1/4 + 1/4 at h = 0
    assert enumerate_partition(GEOM, 0.0, ZERO2, 2) == pytest.approx(
        math.log(0.5), abs=1e-14)


def test_path_set_shape_and_weights():
    ps = build_path_set(GEOM, 0.0, ZERO2, 2)
    assert ps.n == 2
    assert ps.log_weights.size == 2
    np.testing.assert_allclose(np.sort(ps.log_weights),
                               [math.log(0.25)] * 2, rtol=1e-14)
    w = ps.normalized_weights()
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(w, [0.5, 0.5], rtol=1e-14)


def test_toy_contact_statistics():
    np.testing.assert_allclose(
        enumerate_contact_probabilities(GEOM, 0.0, ZERO2, 2),
        [1.0, 0.5, 1.0], rtol=1e-14)
    pmf = enumerate_contact_pmf(GEOM, 0.0, ZERO2, 2)
    np.testing.assert_allclose(pmf, [0.0, 0.5, 0.5], rtol=1e-14)


def test_toy_excursion_cdf():
    cdf = enumerate_excursion_cdf(GEOM, 0.0, ZERO2, 2)
    assert cdf[1] == pytest.approx(0.5, abs=1e-14)
    assert cdf[2] == pytest.approx(1.0, abs=1e-14)


def test_single_site_chain_is_deterministic():
    ps = build_path_set(GEOM, 0.7, np.array([0.3]), 1)
    assert ps.log_weights.size == 1
    assert ps.counts[0] == 1 and ps.max_gaps[0] == 1
    assert enumerate_partition(GEOM, 0.7, np.array([0.3]), 1) == pytest.approx(
        math.log(0.5) + 1.0)


def _path_set_by_mask(law, h, omega, n):
    """(log_weights, counts, max_gaps, contact matrix) by one loop per
    mask over its set bits: the reference build_path_set must equal byte
    for byte."""
    logp = law.log_p
    size = 1 << (n - 1)
    lw = np.empty(size)
    counts = np.empty(size, dtype=np.int64)
    gaps = np.empty(size, dtype=np.int64)
    x = np.ones((size, n + 1))
    for mask in range(size):
        prev = 0
        total = 0.0
        cnt = 0
        gmax = 0
        m = mask
        site = 1
        while m:
            if m & 1:
                gap = site - prev
                total += logp[gap] + h + omega[site - 1]
                if gap > gmax:
                    gmax = gap
                prev = site
                cnt += 1
            else:
                x[mask, site] = 0.0
            m >>= 1
            site += 1
        x[mask, site:n] = 0.0
        gap = n - prev
        total += logp[gap] + h + omega[n - 1]
        if gap > gmax:
            gmax = gap
        lw[mask] = total
        counts[mask] = cnt + 1
        gaps[mask] = gmax
    return lw, counts, gaps, x


def test_path_set_matches_per_mask_loop():
    # each size the oracle takes with each law kind, charges from 0.01 to 100
    rng = np.random.default_rng(31)
    for k in range(3 * ORACLE_MAX_N):
        n = k % ORACLE_MAX_N + 1
        top = int(rng.integers(max(n, 2), 40))
        kind = k % 3
        if kind == 0:
            law = build_law(float(rng.uniform(1.0, 3.0)), None, top)
        elif kind == 1:
            law = geometric_test_law(top)
        else:
            table = rng.uniform(0.01, 1.0, top)
            law = law_from_table(table * rng.uniform(0.2, 0.999) / table.sum())
        h = float(rng.uniform(-3.0, 5.0))
        omega = 10.0 ** rng.uniform(-2.0, 2.0) * rng.normal(size=n)
        ps = build_path_set(law, h, omega, n)
        got = (ps.log_weights, ps.counts, ps.max_gaps, ps.contact_matrix())
        for a, b in zip(got, _path_set_by_mask(law, h, omega, n)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    assert not ps.contact_matrix().flags.writeable


def test_oracle_bounds():
    with pytest.raises(ValueError):
        build_path_set(GEOM, 0.0, np.zeros(20), 17)
    with pytest.raises(ValueError):
        build_path_set(GEOM, 0.0, ZERO2, 0)
    with pytest.raises(ValueError):
        build_path_set(GEOM, 0.0, np.zeros(1), 2)  # omega shorter than n


def test_expectation_routes_agree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        law, h, omega, n = random_instance(rng, n_lo=2, n_hi=9)
        probs = enumerate_contact_probabilities(law, h, omega, n)
        for a in (1, n - 1):
            via_func = enumerate_expectation(law, h, omega, n,
                                             lambda x, a=a: x[a])
            via_moment = enumerate_moment(law, h, omega, n, [a])
            assert via_func == pytest.approx(probs[a], abs=1e-13)
            assert via_moment == pytest.approx(probs[a], abs=1e-13)


def test_pmf_and_cdf_are_distributions():
    rng = np.random.default_rng(4)
    for _ in range(20):
        law, h, omega, n = random_instance(rng, n_lo=1, n_hi=10)
        pmf = enumerate_contact_pmf(law, h, omega, n)
        assert pmf[0] == 0.0
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        cdf = enumerate_excursion_cdf(law, h, omega, n)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[n] == pytest.approx(1.0, abs=1e-12)
        # mean contact number two ways
        mean_l = float(np.arange(n + 1) @ pmf)
        probs = enumerate_contact_probabilities(law, h, omega, n)
        assert mean_l == pytest.approx(probs[1:].sum(), abs=1e-12)


def test_joint_cumulant_low_orders():
    rng = np.random.default_rng(5)
    for _ in range(10):
        law, h, omega, n = random_instance(rng, n_lo=3, n_hi=8)
        a, b = 1, n - 1
        pa = enumerate_moment(law, h, omega, n, [a])
        pb = enumerate_moment(law, h, omega, n, [b])
        pab = enumerate_moment(law, h, omega, n, [a, b])
        assert enumerate_joint_cumulant(law, h, omega, n, [a]) == \
            pytest.approx(pa, abs=1e-13)
        assert enumerate_joint_cumulant(law, h, omega, n, [a, b]) == \
            pytest.approx(pab - pa * pb, abs=1e-12)


def test_ursell_high_orders_match_oracle():
    rng = np.random.default_rng(23)
    inst = np.random.default_rng(23)
    for _ in range(12):
        law, h, omega, n = random_instance(inst, n_lo=5, n_hi=9)
        sys_ = QuenchedSystem(law, h, omega, n)
        for r in (3, 4):
            sites = sorted(rng.choice(np.arange(1, n), size=min(r, n - 1),
                                      replace=False).tolist())
            want = enumerate_joint_cumulant(law, h, omega, n, sites)
            assert ursell(sys_, sites) == pytest.approx(want, abs=1e-10)


def test_ursell_order_cap():
    sys_ = QuenchedSystem(GEOM, 0.2, np.zeros(8), 8)
    with pytest.raises(ValueError):
        ursell(sys_, [1, 2, 3, 4, 5])


def test_log_mean_exp():
    assert log_mean_exp([0.0, 0.0]) == pytest.approx(0.0)
    vals = [0.0, math.log(3.0)]
    assert log_mean_exp(vals) == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        log_mean_exp([])


def test_avoidance_window():
    assert enumerate_avoidance(GEOM, 0.0, ZERO2, 1) == 1.0
    # j=2, h=0: single interior site with P[X_1] = 1/2 per replica
    assert enumerate_avoidance(GEOM, 0.0, ZERO2, 2) == pytest.approx(
        0.75, abs=1e-14)
    with pytest.raises(ValueError):
        enumerate_avoidance(GEOM, 0.0, np.zeros(13), 13)
    with pytest.raises(ValueError):
        enumerate_avoidance(GEOM, 0.0, ZERO2, 0)


def test_avoidance_matches_pair_expectation():
    # zeta-transform route vs direct O(4^j) pair sum
    rng = np.random.default_rng(6)
    for _ in range(10):
        law, h, omega, j = random_instance(rng, n_lo=2, n_hi=7)
        ps = build_path_set(law, h, omega, j)
        w = ps.normalized_weights()
        masks = np.arange(w.size)
        direct = 0.0
        for m1 in masks:
            disjoint = (masks & m1) == 0
            direct += w[m1] * float(w[disjoint].sum())
        assert enumerate_avoidance(law, h, omega, j) == pytest.approx(
            direct, abs=1e-12)


def test_pure_free_energy_geometric_closed_form():
    # e^h z/(2-z) = 1 gives f(h) = log((e^h + 1)/2)
    for h in (0.5, 1.0, math.log(3.0), 2.0):
        want = math.log((math.exp(h) + 1.0) / 2.0)
        assert pure_model_free_energy(GEOM, h) == pytest.approx(
            want, abs=1e-9)
    assert pure_model_free_energy(GEOM, math.log(3.0)) == pytest.approx(
        math.log(2.0), abs=1e-9)


def test_pure_free_energy_delocalized_is_zero():
    # far below h_c = 0 no root exists below 1
    assert pure_model_free_energy(GEOM, -3.0) == 0.0
