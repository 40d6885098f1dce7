"""Stated accuracy of the printed observables against 40-digit references.

Each test is one row of the README accuracy table: it computes the
observable with pinlab and with an mpmath recursion (or a closed form)
carried to 40 digits from the same float inputs, and asserts the bound
stated there.  The exact contact law is against the 40-digit count DP at
n = 128 (at n = 256 that reference takes 7.6 s); the budgeted law of the
KS distances is against the exact law in double precision at the sizes
it runs at, as 40 digits at n = 1024 would take minutes.  The sizes are
those the checks use, kept few so that the references take a few
seconds.
"""

import math

import mpmath as mp
import numpy as np

from pinlab.model import build_law, gaussian_disorder, geometric_test_law
from pinlab.numerics import normal_cdf
from pinlab.quenched import (KS_L1_BUDGET, QuenchedSystem, _forward,
                             ks_to_standard_normal)
from pinlab.theorems import _ks_error_bound
from support import (mp_contact_pmf, mp_cumulants, mp_log_prefix, mp_prefix,
                     mp_suffix)

DIGITS = 40


def _gaussian_system(h, n, seed):
    law = build_law(1.0, None, max(512, n))
    omega = gaussian_disorder(1.0).draw(np.random.default_rng(seed), n)
    return law, QuenchedSystem(law, h, omega, n)


def test_prefix_log_z_against_mpmath():
    # bound 1e-14 relative (to max(1, |log Z|)) over k = 0..512; 4.7e-16
    law, sys_ = _gaussian_system(3.0, 512, 5)
    with mp.workdps(DIGITS):
        ref = np.array([float(mp.log(z))
                        for z in mp_prefix(law.log_p, sys_.site_weight[1:])])
    rel = np.abs(sys_.prefix_logZ - ref) / np.maximum(1.0, np.abs(ref))
    assert rel.max() <= 1e-14


def test_geometric_log_z_matches_closed_form():
    # p(t) = 2^-t at h = log 3 without disorder: Z_n = (3/4) 2^n for
    # n >= 1; bound 1e-14 relative up to n = 4096; 3.0e-15 (log p spans
    # 4095 log 2 nats, so this law runs tilted by log 2, which flattens it)
    n = 4096
    sys_ = QuenchedSystem(geometric_test_law(n), math.log(3.0), None, n)
    with mp.workdps(DIGITS):
        want = np.array([float(mp.log(mp.mpf(3) / 4) + k * mp.log(2))
                         for k in range(1, n + 1)])
    rel = np.abs(sys_.prefix_logZ[1:] - want) / np.abs(want)
    assert rel.max() <= 1e-14


def test_max_excursion_cdf_against_mpmath():
    # P[M_n <= m] for m = 1..7, bound 5e-12 relative; 7.0e-13, at
    # (h = 3, n = 512, m = 5), where log Z is about 1300 and its roundoff
    # sets the error of the ratio
    worst = 0.0
    for h, n, seed in ((1.0, 64, 6), (1.0, 512, 7), (3.0, 512, 8)):
        law, sys_ = _gaussian_system(h, n, seed)
        b = sys_.site_weight[1:]
        with mp.workdps(DIGITS):
            z_n = mp_prefix(law.log_p, b)[n]
            for m in range(1, 8):
                want = mp_prefix(law.log_p, b, m)[n] / z_n
                got = sys_.max_excursion_cdf(m)
                worst = max(worst, float(abs(got - want) / want))
    assert worst <= 5e-12


def test_suffix_log_z_against_mpmath():
    # bound 1e-14 relative (to max(1, |log Z|)) over a = 0..512; 1.1e-15
    law, sys_ = _gaussian_system(3.0, 512, 9)
    with mp.workdps(DIGITS):
        ref = np.array([float(mp.log(v))
                        for v in mp_suffix(law.log_p, sys_.site_weight)])
    got = sys_.suffix_logZ()
    rel = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert rel.max() <= 1e-14


def test_contact_probability_against_mpmath():
    # E[X_a] = Z_{0,a} Z_{[a,n]} / Z_{0,n} at every interior site, bound
    # 5e-12 relative; 5.1e-13 at (h = 3, n = 512).  The float route is
    # exp(log Z_{0,a} + log Z_{[a,n]} - log Z), so the roundoff of log Z
    # (about 1300 there) sets the error
    worst = 0.0
    for h, n, seed in ((3.0, 512, 11), (1.0, 512, 12), (3.0, 256, 13)):
        law, sys_ = _gaussian_system(h, n, seed)
        with mp.workdps(DIGITS):
            pre = mp_prefix(law.log_p, sys_.site_weight[1:])
            suf = mp_suffix(law.log_p, sys_.site_weight)
            for a in range(1, n):
                want = pre[a] * suf[a] / pre[n]
                got = sys_.contact_probability(a)
                worst = max(worst, float(abs(got - want) / want))
    assert worst <= 5e-12


def test_segment_table_against_mpmath():
    # the width-64 segment table at n = 512 (C7's): bound 1e-14 relative
    # (to max(1, |log Z|)) over every segment [i, i+l] inside [0, n];
    # 9.5e-16.  Entries past n are -inf
    window = 64
    law, sys_ = _gaussian_system(3.0, 512, 10)
    n, w = sys_.n, sys_.site_weight
    seg = sys_.segment_partitions(window)
    with mp.workdps(DIGITS):
        p = [mp.mpf(0)] + [mp.exp(mp.mpf(float(x)))
                           for x in law.log_p[1:window + 1]]
        e = [mp.exp(mp.mpf(float(x))) for x in w]
        worst = 0.0
        for i in range(n):
            z = [mp.mpf(1)]
            for k in range(1, min(window, n - i) + 1):
                z.append(mp.fdot(z, p[k:0:-1]) * e[i + k])
            ref = np.array([float(mp.log(v)) for v in z])
            got = seg[i, :ref.size]
            worst = max(worst, float((np.abs(got - ref)
                                      / np.maximum(1.0, np.abs(ref))).max()))
            assert np.all(seg[i, ref.size:] == -math.inf)
    assert worst <= 1e-14


def test_banded_fallback_rows_against_mpmath():
    # bound 1e-14 relative (to max(1, |log Z|)) over k = 0..700; 2.8e-15,
    # and 1.9e-15 on the tilted rows.  The geometric law spans (B-1) log 2 nats on [1, B]: at n = 700 the
    # linear step certifies bands up to 606, and the wider ones run the
    # tilted law, one call per band, beside the untilted rows of the same
    # call.  Each row also has the bytes of its one-row run
    n, bands = 700, np.array([5, 600, 606, 607, 650, 700])
    log_p = geometric_test_law(n).log_p
    b = 1.0 + np.random.default_rng(46).normal(0.0, 1.0, (bands.size, n))
    z = _forward(log_p, b, bands)
    worst = 0.0
    for r, band in enumerate(bands):
        one = _forward(log_p, b[r:r + 1], bands[r:r + 1])[0]
        assert z[r].tobytes() == one.tobytes()
        want = mp_log_prefix(log_p, b[r], int(band))
        worst = max(worst, float((np.abs(z[r] - want)
                                  / np.maximum(1.0, np.abs(want))).max()))
    assert worst <= 1e-14, worst


def test_contact_law_against_mpmath():
    # the exact contact law (budget 0, the tail readers' C3 and C13) at
    # (h, n) = (1.5, 128), (3, 128) against the 40-digit count DP: bound
    # 1e-12 on the largest |d log P[L_n = l]| over l >= 1, all finite
    # in both (the smallest is about 1e-150; l = 0 is -inf), and on
    # |1 - sum_l P[L_n = l]|.  Measured: 3.4e-13 and 4.9e-14 at (1.5, 128),
    # 6.3e-13 and 2.3e-14 at (3, 128)
    for h, n, seed in ((1.5, 128, 25), (3.0, 128, 26)):
        law, sys_ = _gaussian_system(h, n, seed)
        got = sys_.contact_law()
        want = mp_contact_pmf(law.log_p, sys_.site_weight[1:], DIGITS)
        assert got.l1_bound == 0.0
        fin = np.isfinite(want)
        assert np.array_equal(np.isfinite(got.log_pmf), fin)
        assert np.abs(got.log_pmf[fin] - want[fin]).max() <= 1e-12
        assert abs(1.0 - got.pmf().sum()) <= 1e-12


def test_banded_contact_law_against_dense_loop():
    # The KS consumers' law at budget KS_L1_BUDGET at (h, n) = (1.5, 512),
    # (3, 1024) against the exact law, the same count DP at budget 0 (its
    # own accuracy is test_contact_law_against_mpmath's): the pmf within
    # l1_bound + 1e-12 in L1, the 1e-12 for the roundoff of the full sum
    # (a dense loop that summed each step in another order was 6.4e-13
    # apart on another n = 1024 sample), and the KS distance within
    # _ks_error_bound at that L1 distance.  Measured: l1_bound 2.8e-15
    # and 2.5e-15, L1 1.7e-16 and 3.2e-16, |dKS| 0 and 8.1e-15 against
    # bounds of 1.1e-9 and 8.2e-9
    for h, n, seed in ((1.5, 512, 14), (3.0, 1024, 15)):
        law, sys_ = _gaussian_system(h, n, seed)
        exact, banded = sys_.contact_law(), sys_.contact_law(KS_L1_BUDGET)
        assert exact.l1_bound == 0.0
        assert 0.0 < banded.l1_bound <= KS_L1_BUDGET
        l1 = banded.l1_bound + 1e-12
        assert np.abs(banded.pmf() - exact.pmf()).sum() <= l1
        ks, _, var = ks_to_standard_normal(banded)
        assert abs(ks - ks_to_standard_normal(exact)[0]) \
            <= _ks_error_bound(l1, n, var)


def test_cumulants_against_mpmath():
    # log Z and kappa_1..kappa_6 of QuenchedSystem.cumulants (the centred
    # moment rows, which sample_cumulants runs too) against the 40-digit
    # raw moment DP at (h, n) in {1.5, 3} x {256, 1024}, relative to
    # |kappa_r|.  Bounds and the worst of these four rows: log Z 1e-14
    # (4.5e-15), kappa_1 1e-14 (9.0e-16), kappa_2 1e-13 (4.0e-14), kappa_3
    # 2e-11 (8.1e-13), kappa_4 2e-9 (1.9e-10), kappa_5 2e-7 (3.8e-8) and
    # kappa_6 2e-5 (3.7e-6).  The worst row is (1.5, 1024), where the
    # centre c = 0.903 (the homogeneous chain's density) sits 46 contacts
    # from the mean: kappa_6 then comes from centred moments of about
    # 46^6, 1e8 times its size.  At (3, 256), C1's size, kappa_6 is within
    # 3.8e-11.  The order-8 Taylor jets miss kappa_4 on these rows by up
    # to 2.8e-4 and kappa_6 by 0.043 to 620
    bounds = np.array([1e-14, 1e-14, 1e-13, 2e-11, 2e-9, 2e-7, 2e-5])
    worst = np.zeros(bounds.size)
    for h, n, seed in ((1.5, 256, 16), (3.0, 256, 17), (1.5, 1024, 18),
                       (3.0, 1024, 19)):
        law, sys_ = _gaussian_system(h, n, seed)
        want = mp_cumulants(law.log_p, sys_.site_weight[1:], 6, DIGITS)
        got = sys_.cumulants(6).kappa
        worst = np.maximum(worst, np.abs(got - want) / np.abs(want))
    assert np.all(worst <= bounds), worst


def test_compute_log_z_against_mpmath():
    # the log Z that pinlab compute prints, kappa_0 of cumulants(4) (the
    # Y_0 row of its one moment pass), against the 40-digit prefix DP at
    # (h, n) in {1.5, 3} x {256, 1024}: bound 1e-14 relative; 4.1e-15, at
    # (1.5, 256), the prefix table's own error there
    worst = 0.0
    for h, n, seed in ((1.5, 256, 20), (3.0, 256, 21), (1.5, 1024, 22),
                       (3.0, 1024, 23)):
        law, sys_ = _gaussian_system(h, n, seed)
        want = mp_log_prefix(law.log_p, sys_.site_weight[1:], digits=DIGITS)[n]
        got = sys_.cumulants(4).kappa[0]
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-14, worst


def test_normal_cdf_against_mpmath():
    # numerics.normal_cdf, the Phi of both KS distances, against mpmath's
    # ncdf at 40 digits on z in [-38, 9] (a grid of step 0.01 and 2000
    # uniform points): bound 2.2e-16 absolute; 1.05e-16 (scipy's ndtr:
    # 1.15e-16)
    rng = np.random.default_rng(24)
    z = np.concatenate((np.linspace(-38.0, 9.0, 4701),
                        rng.uniform(-38.0, 9.0, 2000)))
    got = normal_cdf(z)
    with mp.workdps(DIGITS):
        err = max(abs(mp.mpf(float(g)) - mp.ncdf(mp.mpf(float(x))))
                  for g, x in zip(got, z))
    assert float(err) <= 2.2e-16, float(err)
