import math

import numpy as np
import pytest

from pinlab.disorder_mc import (
    EstimateSeries,
    McConfig,
    centering_statistics,
    concentration_scan,
    correlation_decay_scan,
    estimate_f,
    estimate_mu,
    hc_bracket,
    ks_to_normal,
    linear_fit,
    sample_cumulants,
    sample_kappa1_path,
    sample_log_z,
    wilson_upper,
)
from pinlab.model import (
    build_law,
    gaussian_disorder,
    geometric_test_law,
    sample_disorder_block,
    uniform_disorder,
    zero_disorder,
)
from pinlab.numerics import DEFAULT_JET_ORDER
from pinlab.quenched import QuenchedSystem

LAW = build_law(1.0, None, 128)
GEOM = geometric_test_law(128)


def _cfg(**kw):
    base = dict(law=LAW, disorder=gaussian_disorder(1.0), h_values=(2.0,),
                n_values=(16, 32, 64), samples=40, master_seed=11)
    base.update(kw)
    return McConfig(**base)


# -- batched kernels vs the per-sample DP -------------------------------------

def test_batched_log_z_matches_per_sample_dp():
    cfg = _cfg(samples=12)
    log_z, log_zm = sample_log_z(cfg, 2.0, 24)
    block = sample_disorder_block(cfg.disorder, 24, cfg.master_seed, 0, 12)
    for i in range(12):
        sys_ = QuenchedSystem(LAW, 2.0, block[i], 24)
        assert log_z[i] == pytest.approx(sys_.log_z, abs=1e-10)
        assert log_zm[i] == pytest.approx(sys_.log_z_minus, abs=1e-10)


def test_batched_cumulants_match_per_sample_jets():
    cfg = _cfg(samples=8)
    kap = sample_cumulants(cfg, 1.5, 20, 4)
    block = sample_disorder_block(cfg.disorder, 20, cfg.master_seed, 0, 8)
    for i in range(8):
        sys_ = QuenchedSystem(LAW, 1.5, block[i], 20)
        assert kap[i, 0] == pytest.approx(sys_.log_z, abs=1e-10)
        want = sys_.cumulants(4).kappa
        np.testing.assert_allclose(kap[i, 1:], want[1:], rtol=1e-8, atol=1e-10)
    # at the single-system jet order both run one engine: equal bits
    kap = sample_cumulants(cfg, 1.5, 20, DEFAULT_JET_ORDER)
    for i in range(8):
        sys_ = QuenchedSystem(LAW, 1.5, block[i], 20)
        want = sys_.cumulants(DEFAULT_JET_ORDER).kappa
        assert kap[i].tobytes() == want.tobytes()


def test_kappa1_path_is_prefix_cumulant():
    cfg = _cfg(samples=4)
    path = sample_kappa1_path(cfg, 1.0, 12)
    block = sample_disorder_block(cfg.disorder, 12, cfg.master_seed, 0, 4)
    for i in range(4):
        assert path[i, 0] == 0.0
        for k in (3, 7, 12):
            sub = QuenchedSystem(LAW, 1.0, block[i][:k], k)
            assert path[i, k] == pytest.approx(sub.cumulants(1).kappa[1],
                                               rel=1e-9, abs=1e-10)


def test_thread_count_is_invisible():
    for threads in (2, 4, 8):
        a = sample_log_z(_cfg(samples=100), 2.0, 32)
        b = sample_log_z(_cfg(samples=100, threads=threads), 2.0, 32)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
    c = sample_cumulants(_cfg(samples=70), 2.0, 24, 3)
    d = sample_cumulants(_cfg(samples=70, threads=4), 2.0, 24, 3)
    np.testing.assert_array_equal(c, d)


def test_reruns_are_bitwise_identical():
    cfg = _cfg(samples=30)
    a = estimate_f(cfg, 2.0, 32)
    b = estimate_f(cfg, 2.0, 32)
    assert a.series == b.series
    np.testing.assert_array_equal(a.per_sample, b.per_sample)


# -- estimators ----------------------------------------------------------------

def test_estimate_f_fields():
    cfg = _cfg(samples=50)
    res = estimate_f(cfg, 2.0, 64)
    assert res.series.quantity == "f"
    assert res.series.n == 64 and res.series.samples == 50
    assert res.series.mean == pytest.approx(float(res.per_sample.mean()))
    assert res.series.stderr > 0.0
    assert float(res.per_sample.mean()) <= res.annealed + 1e-12


def test_estimate_f_jensen_check_raises(monkeypatch):
    # an explicit check, so it also holds under python -O
    def broken(cfg, h, n):
        return np.array([0.0, math.nan]), np.zeros(2)

    monkeypatch.setattr("pinlab.disorder_mc.sample_log_z", broken)
    with pytest.raises(RuntimeError, match="Jensen"):
        estimate_f(_cfg(samples=2), 2.0, 64)


def test_estimate_f_pure_collapses():
    cfg = _cfg(disorder=zero_disorder(), samples=2)
    res = estimate_f(cfg, 2.0, 64)
    assert res.series.stderr == 0.0
    assert res.per_sample[0] == res.per_sample[1]
    assert res.annealed == pytest.approx(res.series.mean, abs=1e-12)


def test_estimate_mu_pure_equals_f_minus_exactly():
    cfg = _cfg(disorder=zero_disorder(), samples=2)
    res = estimate_mu(cfg, 2.0)
    # log mean over identical samples is exact, so mu_n == f_minus_n bitwise
    np.testing.assert_array_equal(res.mu_n, res.f_minus_n)
    # the first-return variant targets the same limit; at this small grid
    # its log p(n) correction still shifts the slope at the 0.1 level
    assert res.slope == pytest.approx(res.variant_slope, abs=0.15)


def test_estimate_mu_needs_three_points():
    with pytest.raises(ValueError):
        estimate_mu(_cfg(n_values=(16, 32)), 2.0)


def test_centering_statistics_disordered():
    cfg = _cfg(samples=120)
    res = centering_statistics(cfg, 2.0, 48)
    assert res.samples == 120
    assert res.kappa1_samples.size == 120
    assert not res.degenerate
    assert res.w_hat > 0.0 and res.w_stderr > 0.0
    assert res.v_hat > 0.0
    assert res.ks is not None and 0.0 < res.ks < 1.0
    assert res.mean == pytest.approx(float(res.kappa1_samples.mean()))
    qs = [s.quantity for s in res.series()]
    assert qs == ["centering_mean", "w", "v", "ks_centering"]


def test_centering_statistics_pure_is_degenerate():
    cfg = _cfg(disorder=zero_disorder(), samples=120)
    res = centering_statistics(cfg, 2.0, 48)
    assert res.degenerate
    assert res.w_hat == 0.0
    # exact zeros, not the roundoff of deviations from the mean
    assert res.mean_stderr == 0.0 and res.w_stderr == 0.0
    assert res.kappa3_per_n == 0.0 and res.kappa4_per_n == 0.0
    assert res.ks is None
    assert [s.quantity for s in res.series()] == ["centering_mean", "w", "v"]


def test_centering_ks_suppressed_for_small_samples():
    res = centering_statistics(_cfg(samples=60), 2.0, 32)
    assert res.ks is None


# -- statistics helpers ---------------------------------------------------------

def test_ks_to_normal_units():
    rng = np.random.default_rng(1)
    gauss = rng.standard_normal(4000)
    assert ks_to_normal(gauss) < 0.03
    flat = rng.uniform(-1, 1, 4000)
    assert ks_to_normal(flat) > 0.05
    with pytest.raises(ValueError):
        ks_to_normal(np.ones(50))


def test_linear_fit_exact_line():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    fit = linear_fit(x, 2.5 * x - 1.0)
    assert fit["slope"] == pytest.approx(2.5, abs=1e-12)
    assert fit["intercept"] == pytest.approx(-1.0, abs=1e-12)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)
    assert fit["stderr"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        linear_fit([2.0, 2.0], [1.0, 2.0])


def test_wilson_upper_bounds():
    assert wilson_upper(0, 0) == 1.0
    assert wilson_upper(0, 100) > 0.0
    assert wilson_upper(100, 100) == pytest.approx(1.0, abs=0.05)
    assert wilson_upper(5, 100) > 0.05
    # near the normal-approximation upper bound for moderate p
    approx = 0.05 + 1.96 * math.sqrt(0.05 * 0.95 / 100)
    assert wilson_upper(5, 100) == pytest.approx(approx, abs=0.02)
    assert wilson_upper(10, 100) > wilson_upper(5, 100)


# -- scans ----------------------------------------------------------------------

def test_correlation_decay_scan_pure_power_law():
    cfg = McConfig(LAW, zero_disorder(), (1.0,), (64,), 2, 3, window=32)
    res = correlation_decay_scan(cfg, 1.0, fit_range=(4, 24))
    assert res.gamma_hat > 0.0
    assert res.fit_r2 > 0.99
    assert not res.floor_flag
    assert math.isnan(res.log_mean_a[0]) and res.log_mean_a[1] <= 0.0
    assert np.all(np.diff(res.log_mean_a[1:]) < 0.0)  # strict decay
    # the two decay routes see the same rate
    assert res.mix_gamma == pytest.approx(res.gamma_hat, rel=0.15)
    assert [s.quantity for s in res.series()] == ["decay_gamma", "decay_G"]


def test_mixing_ratio_matches_per_gap_loop():
    # the scan's masked (gaps x sites) mixing ratio against a plain loop
    # over gaps; at window = n the widest gaps have no site pair (nan)
    for cfg in (_cfg(samples=5, window=16), _cfg(samples=3, window=32,
                                                 n_values=(16, 32))):
        n, window = max(cfg.n_values), cfg.window
        res = correlation_decay_scan(cfg, 2.0, fit_range=(4, 12))
        block = sample_disorder_block(cfg.disorder, n, cfg.master_seed, 0,
                                      cfg.samples)
        want = np.zeros(window)
        for omega in block:
            sys_ = QuenchedSystem(cfg.law, 2.0, omega, n)
            pre, suf = sys_.prefix_logZ, sys_.suffix_logZ()
            seg = sys_.segment_partitions(window).table
            probs = np.exp(np.minimum(pre + suf - pre[n], 0.0))
            for g in range(1, window + 1):
                a = np.arange(1, n - g)
                if a.size == 0:
                    want[g - 1] = math.nan
                    continue
                ex_ab = np.exp(pre[a] + seg[a, g] + suf[a + g] - pre[n])
                cov = ex_ab - probs[a] * probs[a + g]
                ratio = np.abs(cov) / np.minimum(probs[a], probs[a + g])
                want[g - 1] += ratio.mean() / cfg.samples
        assert np.array_equal(np.isnan(res.mix_mean), np.isnan(want))
        fin = ~np.isnan(want)
        np.testing.assert_allclose(res.mix_mean[fin], want[fin], rtol=1e-14,
                                   atol=0.0)


def test_memoryless_law_has_independent_contacts():
    # geometric inter-arrivals make the contact field an i.i.d. product
    # measure, so every covariance must vanish at machine precision
    sys_ = QuenchedSystem(GEOM, 1.0, np.zeros(40), 40)
    for a, b in ((1, 2), (5, 20), (10, 39)):
        assert abs(sys_.contact_covariance(a, b)) < 1e-12


def test_correlation_decay_scan_guards():
    with pytest.raises(ValueError):
        correlation_decay_scan(_cfg(window=8), 2.0)
    with pytest.raises(ValueError):
        correlation_decay_scan(_cfg(window=96), 2.0)  # max n = 64 < window


def test_concentration_scan():
    cfg = _cfg(samples=600)
    u = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    res = concentration_scan(cfg, 2.0, 32, u)
    assert res.kappa_f > 0.0 and res.kappa_c > 0.0
    assert np.all(res.freq_f >= 0.0) and np.all(res.freq_f <= 1.0)
    assert np.all(res.wilson_f >= res.freq_f - 1e-12)
    assert np.all(res.wilson_c >= res.freq_c - 1e-12)
    assert res.freq_f[0] == 1.0  # |dev| > 0 almost surely
    with pytest.raises(ValueError):
        concentration_scan(_cfg(samples=100), 2.0, 32, u)


def test_hc_bracket_pure_geometric():
    cfg = McConfig(GEOM, zero_disorder(), (-1.0, 1.0), (16, 32, 64), 2, 1)
    lo, hi = hc_bracket(cfg, tol=0.05)
    assert lo < hi and hi - lo <= 0.05 + 1e-12
    # finite-size transition sits slightly above the limit h_c = 0
    assert -0.05 <= lo <= 1.0
    with pytest.raises(ValueError):
        hc_bracket(McConfig(GEOM, zero_disorder(), (2.0, 3.0),
                            (16, 32, 64), 2, 1))


# -- series schema ---------------------------------------------------------------

def test_estimate_series_validation():
    with pytest.raises(ValueError):
        EstimateSeries("bogus", 1.0, 8, 0.0, 0.0, 2)
    with pytest.raises(ValueError):
        EstimateSeries("f", 1.0, 8, 0.0, -1.0, 2)
    s = EstimateSeries("f", 1.0, 8, 0.5, float("nan"), 2)
    assert math.isnan(s.stderr)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        _cfg(samples=1)
    with pytest.raises(ValueError):
        _cfg(n_values=(32, 16))
    with pytest.raises(ValueError):
        _cfg(n_values=(64, 256))  # beyond the law horizon
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="h_values must be finite"):
            _cfg(h_values=(1.0, bad))
    for bad in (0, 2.5, -3):
        with pytest.raises(ValueError, match="n_values"):
            _cfg(n_values=(bad, 8))
