"""Stated accuracy of the printed observables against 40-digit references.

Each test is one row of the README accuracy table: it computes the
observable with pinlab and with an mpmath recursion (or a closed form)
carried to 40 digits from the same float inputs, and asserts the bound
stated there.  The exact contact law is against the 40-digit count DP at
n = 128 (at n = 256 that reference takes 7.6 s); the budgeted law of the
KS distances is against the exact law in double precision at the sizes
it runs at, as 40 digits at n = 1024 would take minutes; and the cells
of pinlab compute, up to n = 8192, and the excursion CDF at n = 4096 are
against DPs in long double (eps 1.08e-19).  The sizes are those the
checks use, kept few so that the references take a few seconds.
"""

import math

import mpmath as mp
import numpy as np

from pinlab.disorder_mc import McConfig, sample_cumulants, sample_log_z
from pinlab.model import (build_law, gaussian_disorder, geometric_test_law,
                          sample_disorder_block)
from pinlab.numerics import normal_cdf
from pinlab.quenched import (_FLUSH, _RESCALE, KS_L1_BUDGET, QuenchedSystem,
                             _certified, _forward, _moment_flush,
                             _segment_tables, ks_to_standard_normal, run_memo)
from pinlab.theorems import _ks_error_bound
from support import (ld_cumulants, ld_log_z, mp_contact_pmf, mp_cumulants,
                     mp_log_prefix, mp_pair_log_a, mp_prefix, mp_suffix)

DIGITS = 40


def _gaussian_system(h, n, seed):
    law = build_law(1.0, None, max(512, n))
    omega = gaussian_disorder(1.0).draw(np.random.default_rng(seed), n)
    return law, QuenchedSystem(law, h, omega, n)


def test_prefix_log_z_against_mpmath():
    # bound 1e-14 relative (to max(1, |log Z|)) over k = 0..512; 4.6e-16
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
    # P[M_n <= m] for m = 1..7, bound 5e-12 relative; 3.9e-13, at
    # (h = 1, n = 512, m = 1): the roundoff of the prefix table's log Z_n,
    # which every value of the capped recursion shares, sets it
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


def test_max_excursion_cdf_against_long_double():
    # P[M_n <= m] for m = 1..8 at C6's largest size, (h, n) = (3, 4096),
    # against Z_n^(m) / Z_n of the long-double DP.  Every value of the
    # capped recursion carries the error of the prefix table's log Z_n,
    # whose factors e^{pre[j] - pre[k]} telescope along each path: here
    # 7.4e-13, for a worst error of 9.5e-13 relative.  Bound 1e-12 on
    # what it adds to that; 2.1e-13
    law, sys_ = _gaussian_system(3.0, 4096, 22)
    b = sys_.site_weight[1:]
    full = ld_log_z(law.log_p, b)
    shared = abs(float(np.longdouble(sys_.log_z) - full))
    worst = 0.0
    for m in range(1, 9):
        want = float(np.exp(ld_log_z(law.log_p, b, m) - full))
        worst = max(worst, abs(sys_.max_excursion_cdf(m) - want) / want)
    assert worst <= shared + 1e-12, (worst, shared)


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
    # 5e-12 relative; 6.7e-13 at (h = 3, n = 512).  The float route is
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
    seg = _segment_tables(law.log_p, w[None, 1:], window)[0]
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


def test_pair_dp_log_a_against_mpmath():
    # log a_j of the two-replica avoidance (_pair_forward, C7's pair DP)
    # on windows of width 64 at offsets 0 and 96 of a chain at (h, n) =
    # (3, 256), against the 40-digit pair recursion: bound 1e-14 relative
    # (to max(1, |log a_j|)) over j = 1..64; 1.7e-15, where log a_64 is
    # about -164
    window = 64
    law, sys_ = _gaussian_system(3.0, 256, 27)
    worst = 0.0
    for start in (0, 96):
        got = sys_.two_replica_avoidance_log(window, start)[1:]
        want = mp_pair_log_a(
            law.log_p, sys_.site_weight[start:start + window + 1], DIGITS)
        worst = max(worst, float((np.abs(got - want)
                                  / np.maximum(1.0, np.abs(want))).max()))
    assert worst <= 1e-14, worst


def test_tilted_rows_against_mpmath():
    # bound 1e-14 relative (to max(1, |log Z|)) over every k; 8.8e-16 at
    # n = 600, 1.4e-15 at n = 900.  The geometric law spans (n-1) log 2
    # nats on [1, n]: the linear step certifies it up to n = 894, so
    # n = 600 runs untilted and n = 900 tilted by log 2.  Each row also
    # has the bytes of its one-row run
    log_p = geometric_test_law(900).log_p
    assert _certified(log_p, 894) and not _certified(log_p, 895)
    rng = np.random.default_rng(46)
    worst = {}
    for n in (600, 900):
        b = 1.0 + rng.normal(0.0, 1.0, (3, n))
        z = _forward(log_p, b)
        worst[n] = 0.0
        for r in range(3):
            one = _forward(log_p, b[r:r + 1])[0]
            assert z[r].tobytes() == one.tobytes()
            want = mp_log_prefix(log_p, b[r])
            rel = np.abs(z[r] - want) / np.maximum(1.0, np.abs(want))
            worst[n] = max(worst[n], float(rel.max()))
    assert max(worst.values()) <= 1e-14, worst


def test_contact_law_against_mpmath():
    # the exact contact law (budget 0, the tail readers' C3 and C13) at
    # (h, n) = (1.5, 128), (3, 128) against the 40-digit count DP: bound
    # 1e-12 on the largest |d log P[L_n = l]| over l >= 1, all finite
    # in both (the smallest is about 1e-150; l = 0 is -inf), and on
    # |1 - sum_l P[L_n = l]|.  Measured: 5.0e-14 and 8.9e-16 at (1.5, 128),
    # 2.3e-13 and 2.2e-16 at (3, 128)
    for h, n, seed in ((1.5, 128, 25), (3.0, 128, 26)):
        law, sys_ = _gaussian_system(h, n, seed)
        got = sys_.contact_law()
        want = mp_contact_pmf(law.log_p, sys_.site_weight[1:], DIGITS)
        assert got.l1_bound == 0.0
        fin = np.isfinite(want)
        assert np.array_equal(np.isfinite(got.log_pmf), fin)
        assert np.abs(got.log_pmf[fin] - want[fin]).max() <= 1e-12
        assert abs(1.0 - got.pmf().sum()) <= 1e-12


def test_exact_contact_law_conserves_mass():
    # each step of the count DP is normalised to sum to 1, so the roundoff
    # of the prefix table does not leak into the law's mass: bound 1e-14
    # on |1 - sum_l P[L_n = l]| at (h, n) = (3, 1024), (1.5, 1024).
    # Measured: 1.1e-15 and 2.9e-15 (6.8e-12 and 2.2e-11 with unnormalised
    # steps)
    for h, n, seed in ((3.0, 1024, 15), (1.5, 1024, 14)):
        _, sys_ = _gaussian_system(h, n, seed)
        mass = sys_.contact_law().pmf().sum()
        assert abs(1.0 - mass) <= 1e-14, (h, 1.0 - mass)


def test_banded_contact_law_against_dense_loop():
    # The KS consumers' law at budget KS_L1_BUDGET at (h, n) = (1.5, 512),
    # (3, 1024) against the exact law, the same count DP at budget 0 (its
    # own accuracy is test_contact_law_against_mpmath's): the pmf within
    # l1_bound + 1e-12 in L1, the 1e-12 for the roundoff of the full sum
    # (a dense loop that summed each step in another order was 6.4e-13
    # apart on another n = 1024 sample), and the KS distance within
    # _ks_error_bound at that L1 distance.  Measured: l1_bound 2.7e-15
    # and 2.5e-15, L1 3.2e-15 and 9.0e-16, |dKS| 7.6e-14 and 4.0e-14
    # against bounds of 1.1e-9 and 8.2e-9
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
    # (1.1e-15), kappa_1 1e-14 (2.6e-16), kappa_2 1e-13 (2.3e-14), kappa_3
    # 2e-11 (3.3e-12), kappa_4 2e-9 (3.3e-10), kappa_5 2e-7 (2.5e-8) and
    # kappa_6 2e-5 (1.3e-6).  The worst row is (1.5, 1024), where the
    # centre c = 0.903 (the homogeneous chain's density) sits 46 contacts
    # from the mean: kappa_6 then comes from centred moments of about
    # 46^6, 1e8 times its size.  At (3, 256), C1's size, kappa_6 is within
    # 3.5e-11.  The order-8 Taylor jets miss kappa_4 on these rows by up
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
    # (h, n) in {1.5, 3} x {256, 1024}: bound 1e-14 relative; 4.4e-16, at
    # (1.5, 256)
    worst = 0.0
    for h, n, seed in ((1.5, 256, 20), (3.0, 256, 21), (1.5, 1024, 22),
                       (3.0, 1024, 23)):
        law, sys_ = _gaussian_system(h, n, seed)
        want = mp_log_prefix(law.log_p, sys_.site_weight[1:], digits=DIGITS)[n]
        got = sys_.cumulants(4).kappa[0]
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-14, worst


def test_compute_cells_against_long_double():
    # log Z and kappa_1..kappa_4 of QuenchedSystem.cumulants(4), the bytes
    # pinlab compute prints, at its workload's cells (h in {1.5, 2.5, 3.5},
    # n in {2048, 4096, 8192}, master seed 7, sample 0) against the same
    # centred moment DP in long double, relative to |kappa_r|.  Bounds and
    # the worst cell, (1.5, 8192) for every r: log Z 1e-15 (2.2e-16),
    # kappa_1 2e-15 (3.8e-16), kappa_2 5e-12 (1.0e-12), kappa_3 3e-9
    # (6.4e-10), kappa_4 2e-6 (4.2e-7).  There the centre c n sits about
    # 340 contacts above the mean of L_n, so kappa_4 comes from centred
    # moments about 1e7 times its size; the reference's own roundoff is
    # about 1e-19 times that amplification
    bounds = np.array([1e-15, 2e-15, 5e-12, 3e-9, 2e-6])
    law = build_law(1.0, None, 8192)
    worst = np.zeros(bounds.size)
    for h in (1.5, 2.5, 3.5):
        for n in (2048, 4096, 8192):
            omega = sample_disorder_block(gaussian_disorder(1.0), n, 7, 0,
                                          1)[0]
            sys_ = QuenchedSystem(law, h, omega, n)
            want = ld_cumulants(law.log_p, sys_.site_weight[1:], 4,
                                law.contact_density(h))
            got = sys_.cumulants(4).kappa
            worst = np.maximum(worst, np.abs((got - want) / want))
    assert np.all(worst <= bounds), worst


def test_disorder_mc_log_z_against_mpmath():
    # the per-sample log Z of disorder_mc.sample_log_z (kappa_0 of the
    # order-2 moment rows), read inside a run memo from the grid columns
    # of one pass at n = 512, against the 40-digit prefix DP at (h, n) in
    # {1.5, 3.5} x {128, 512}, 6 samples each: bound 1e-14 relative (to
    # max(1, |log Z|)); 9.7e-16
    law = build_law(1.0, None, 512)
    cfg = McConfig(law, gaussian_disorder(1.0), (1.5, 3.5), (128, 512), 6,
                   25)
    block = sample_disorder_block(cfg.disorder, 512, cfg.master_seed, 0, 6)
    worst = 0.0
    with run_memo():
        for h in cfg.h_values:
            got = {n: sample_log_z(cfg, h, n)[0] for n in cfg.n_values}
            for i, omega in enumerate(block):
                # a shorter draw is a prefix of the longer one
                ref = mp_log_prefix(law.log_p, h + omega, digits=DIGITS)
                for n in cfg.n_values:
                    worst = max(worst, abs(got[n][i] - ref[n])
                                / max(1.0, abs(ref[n])))
    assert worst <= 1e-14, worst


def test_disorder_mc_cumulants_against_mpmath():
    # the per-sample kappa_1 and kappa_2 of disorder_mc.sample_cumulants
    # (the fused order-2 moment pass, grid columns of one pass at n = 512
    # inside a run memo), against the 40-digit raw moment DP at (h, n) in
    # {1.5, 3.5} x {128, 512}, 8 samples each, relative to |kappa_r|.  The
    # rows rescale (log Z passes e^_RESCALE), so the certified flush at
    # theta, far above _FLUSH, fires.  Bounds: kappa_1 1e-14 (2.6e-16),
    # kappa_2 1e-13 (2.6e-14; the per-sample passes before the fused
    # product and theta: 9.0e-16 and 4.4e-14)
    law = build_law(1.0, None, 512)
    assert _moment_flush(law.log_p, 2) > 1e200 * _FLUSH
    cfg = McConfig(law, gaussian_disorder(1.0), (1.5, 3.5), (128, 512), 8,
                   26)
    block = sample_disorder_block(cfg.disorder, 512, cfg.master_seed, 0, 8)
    worst = np.zeros(2)
    with run_memo():
        for h in cfg.h_values:
            got = {n: sample_cumulants(cfg, h, n, 2) for n in cfg.n_values}
            assert got[512][:, 0].min() > _RESCALE
            for i, omega in enumerate(block):
                for n in cfg.n_values:
                    want = mp_cumulants(law.log_p, h + omega[:n], 2, DIGITS)
                    worst = np.maximum(worst, np.abs(got[n][i, 1:] - want[1:])
                                       / np.abs(want[1:]))
    assert np.all(worst <= [1e-14, 1e-13]), worst


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
