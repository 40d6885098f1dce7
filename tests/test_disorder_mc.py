import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

import pinlab.disorder_mc as mc
import pinlab.quenched as quenched
from pinlab.cli import main
from pinlab.disorder_mc import (
    EstimateSeries,
    McConfig,
    centering_statistics,
    concentration_scan,
    correlation_decay_scan,
    estimate_f,
    estimate_mu,
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
from pinlab.oracle import contact_covariance, hc_bracket
from pinlab.quenched import (QuenchedBlock, QuenchedSystem,
                             _certified, _segment_tables, run_memo)

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
        # kappa_0 of the moment rows against the prefix DP: two summation
        # orders of one recursion, within 1e-14 relative to max(1, |log Z|)
        # (the accuracy table's bound)
        want = sys_.log_z
        assert abs(log_z[i] - want) <= 1e-14 * max(1.0, abs(want))
        # log Z with the final contact weight e^{h + omega_n} stripped
        want = sys_.log_z - sys_.site_weight[24]
        assert abs(log_zm[i] - want) <= 1e-14 * max(1.0, abs(want))


def test_batched_cumulants_match_per_sample_jets():
    cfg = _cfg(samples=8)
    kap = sample_cumulants(cfg, 1.5, 20, 4)
    block = sample_disorder_block(cfg.disorder, 20, cfg.master_seed, 0, 8)
    for i in range(8):
        sys_ = QuenchedSystem(LAW, 1.5, block[i], 20)
        assert kap[i, 0] == pytest.approx(sys_.log_z, abs=1e-10)
        want = sys_.cumulants(4).kappa
        np.testing.assert_allclose(kap[i, 1:], want[1:], rtol=1e-8, atol=1e-10)
    # at the single-system jet order both run one engine, by two routes: a
    # block's rows run fused, and keep their bits in any block (a partial
    # block of 6 rows, padded to 8, gives the first 6 rows of a block of
    # 8), while a system's one row runs per row (its centre passed as
    # [c]), within roundoff of them
    kap = sample_cumulants(cfg, 1.5, 20, DEFAULT_JET_ORDER)
    six = sample_cumulants(_cfg(samples=6), 1.5, 20, DEFAULT_JET_ORDER)
    assert six.tobytes() == kap[:6].tobytes()
    for i in range(8):
        sys_ = QuenchedSystem(LAW, 1.5, block[i], 20)
        want = sys_.cumulants(DEFAULT_JET_ORDER).kappa
        np.testing.assert_allclose(kap[i], want, rtol=1e-10, atol=1e-12)


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


# the messages QuenchedBlock gives for the same inputs; LAW ends at 128
BAD_INPUTS = [(2.0, 129, r"n = 129 is outside 0\.\.128"),
              (math.nan, 16, "h = nan is not finite"),
              (math.inf, 16, "h = inf is not finite")]


@pytest.mark.parametrize("h, n, msg", BAD_INPUTS)
def test_sample_log_z_rejects_bad_inputs(h, n, msg):
    with pytest.raises(ValueError, match=msg):
        sample_log_z(_cfg(samples=2), h, n)
    # estimate_f reports the input, not a Jensen violation of nan values
    with pytest.raises(ValueError, match=msg):
        estimate_f(_cfg(samples=2), h, n)


@pytest.mark.parametrize("h, n, msg", BAD_INPUTS)
def test_sample_cumulants_rejects_bad_inputs(h, n, msg):
    with pytest.raises(ValueError, match=msg):
        sample_cumulants(_cfg(samples=2), h, n, 2)


@pytest.mark.parametrize("h, n, msg", BAD_INPUTS)
def test_sample_kappa1_path_rejects_bad_inputs(h, n, msg):
    with pytest.raises(ValueError, match=msg):
        sample_kappa1_path(_cfg(samples=2), h, n)


# -- the run memo ---------------------------------------------------------------

def _kernel_calls():
    return [lambda c: sample_log_z(c, 2.0, 24),
            lambda c: sample_cumulants(c, 2.0, 24, 1),
            lambda c: sample_cumulants(c, 2.0, 24, 2),
            lambda c: sample_cumulants(c, 2.0, 24, 6),
            lambda c: sample_kappa1_path(c, 2.0, 24)]


def _count_moment_passes(monkeypatch):
    # (rows, n, order, at) of every _forward pass the kernels run
    passes = []
    engine = mc._forward

    def counted(log_p, b, order=0, centre=0.0, at=None):
        passes.append((b.shape[0], b.shape[1], order,
                       None if at is None else tuple(at)))
        return engine(log_p, b, order, centre, at)
    monkeypatch.setattr(mc, "_forward", counted)
    return passes


def test_run_memo_serves_the_bytes_of_fresh_calls(monkeypatch):
    # 70, 200, then 1000 samples: each count ends on a block of another
    # size, and only the full blocks an earlier count drew are reused
    counts = (70, 200, 1000)
    fresh = {(s, i): call(_cfg(samples=s)) for s in counts
             for i, call in enumerate(_kernel_calls())}
    passes = _count_moment_passes(monkeypatch)
    with run_memo():
        for s in counts:
            for i, call in enumerate(_kernel_calls()):
                for _ in range(2):
                    got = call(_cfg(samples=s))
                    want = fresh[(s, i)]
                    for g, w in zip(np.atleast_2d(got), np.atleast_2d(want)):
                        assert g.tobytes() == w.tobytes()
    assert quenched._MEMO.get() is None
    # evaluated rows per entry: 70, then 200 - 64, then 1000 - 192.  log Z
    # and the cumulants of order 1 and 2 read one order-2 entry, so the
    # five kernels run three: order 2, order 6 and the kappa_1 paths
    assert sum(p[0] for p in passes) == 3 * (70 + 136 + 808)


def test_sampled_rows_are_keyed_by_their_stream(monkeypatch):
    # a block's rows are kept under the stream it is drawn from: (disorder
    # law, master seed, first index, count, n of the draw).  A second call
    # on a stream runs no kernel and hashes no charges, yet every call
    # still draws each of its blocks once; a change of any one of the five
    # is a new entry, whose rows are those of a fresh call
    draws, runs, digests = [], [], []
    draw, digest = mc.sample_disorder_block, quenched.hashlib.blake2b

    def drawn(law, n, seed, first, count):
        draws.append((first, count))
        return draw(law, n, seed, first, count)

    def hashed(*args, **kw):
        digests.append(args)
        return digest(*args, **kw)

    def kernel(block, at):
        runs.append(block.shape)
        return block.sum(1)[:, None, None]

    cfg = _cfg(samples=70)
    calls = [(cfg, 24, [(64, 24), (6, 24)]),
             (cfg, 24, []),
             (replace(cfg, master_seed=12), 24, [(64, 24), (6, 24)]),
             # (64, 64) differs from the (0, 64) entry in its first index
             (replace(cfg, samples=128), 24, [(64, 24)]),
             # (64, 8) differs from the (64, 6) entry in its count
             (replace(cfg, samples=72), 24, [(8, 24)]),
             (replace(cfg, disorder=gaussian_disorder(2.0)), 24,
              [(64, 24), (6, 24)]),
             (cfg, 20, [(64, 20), (6, 20)])]
    fresh = [mc._sampled(c, 2.0, n, kernel, 1) for c, n, _ in calls]
    monkeypatch.setattr(mc, "sample_disorder_block", drawn)
    monkeypatch.setattr(quenched.hashlib, "blake2b", hashed)
    with run_memo():
        for (c, n, ran), want in zip(calls, fresh):
            runs.clear()
            draws.clear()
            assert mc._sampled(c, 2.0, n, kernel, 1).tobytes() \
                == want.tobytes()
            assert runs == ran
            assert draws == [(lo, min(64, c.samples - lo))
                             for lo in range(0, c.samples, 64)]
        assert len(quenched._MEMO.get()) == sum(len(r) for *_, r in calls)
    assert not digests


def test_run_memo_keys_on_everything_the_kernel_reads():
    cfg = _cfg(samples=64)
    variants = [(sample_cumulants, cfg, 2.0, 24, 2),
                (sample_cumulants, cfg, 2.5, 24, 2),
                (sample_cumulants, cfg, 2.0, 24, 3),
                (sample_cumulants, replace(cfg, law=GEOM), 2.0, 24, 2),
                (sample_cumulants, cfg, 2.0, 32, 2),
                # the next two read the first variant's order-2 entry
                (sample_cumulants, cfg, 2.0, 24, 1),
                (lambda c, h, n, _: np.stack(sample_log_z(c, h, n), 1),
                 cfg, 2.0, 24, None)]
    fresh = [fn(*args) for fn, *args in variants]
    with run_memo():
        got = [fn(*args) for fn, *args in variants]
        assert len(quenched._MEMO.get()) == len(variants) - 2
    for g, w in zip(got, fresh):
        assert g.tobytes() == w.tobytes()


def test_scan_runs_one_moment_pass_per_h_and_block(tmp_path, monkeypatch):
    # estimate_f at each n, estimate_mu, the centering statistics and the
    # concentration scan of a scan read one order-2 pass per (h, 64-row
    # block), run at the grid's top n with the grid's columns; no
    # disorder kernel runs an order-0 pass of the forward engine
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({
        "model": {"kind": "power", "alpha": 1.0, "n_max": 64},
        "grids": {"h_values": [2.0, 3.0], "n_values": [16, 32, 64],
                  "window": 256},
        "run": {"samples": 500, "master_seed": 11}}))
    passes = _count_moment_passes(monkeypatch)
    callers = []
    forward = quenched._forward

    def watched(*args, **kw):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return forward(*args, **kw)
    monkeypatch.setattr(quenched, "_forward", watched)
    assert main(["scan", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 0
    assert passes == [(min(64, 500 - lo), 64, 2, (16, 32, 64))
                      for h in (2.0, 3.0) for lo in range(0, 500, 64)]
    assert all(order == 2 for _, _, order, _ in passes)
    assert callers and "pinlab.disorder_mc" not in callers


@pytest.mark.parametrize("law, grid, off, tilted", [
    (LAW, (16, 32, 64), 24, False),
    # log p spans 899 log 2 nats at n = 900: the pass there is tilted
    (geometric_test_law(900), (100, 200, 900), 150, True)])
def test_grid_columns_are_the_bytes_of_fresh_per_n_calls(law, grid, off,
                                                          tilted, monkeypatch):
    # 70 samples end on a partial block of 6.  Outside a memo every call
    # runs at its own n; inside one a call at a grid n reads a column of
    # the pass at the top, unless that pass is tilted, and a call off the
    # grid runs at its n.  Every value keeps the bytes of its fresh call
    assert _certified(law.log_p, grid[-1], 2) is not tilted
    cfg = _cfg(law=law, n_values=grid, samples=70)
    calls = [lambda n: np.stack(sample_log_z(cfg, 2.0, n), 1),
             lambda n: sample_cumulants(cfg, 2.0, n, 2),
             lambda n: sample_cumulants(cfg, 2.0, n, 6)]
    ns = (*grid, off)
    passes = _count_moment_passes(monkeypatch)
    fresh = {(i, n): call(n) for i, call in enumerate(calls) for n in ns}
    assert passes == [(rows, n, order, (n,)) for order in (2, 2, 6)
                      for n in ns for rows in (64, 6)]
    passes.clear()
    with run_memo():
        for n in ns:
            for i, call in enumerate(calls):
                assert call(n).tobytes() == fresh[i, n].tobytes()
    own = [(rows, n, order, (n,)) for n in (grid if tilted else ())
           for order in (2, 6) for rows in (64, 6)]
    top = [] if tilted else [(rows, grid[-1], order, grid)
                             for order in (2, 6) for rows in (64, 6)]
    assert passes == own + top + [(rows, off, order, (off,))
                                  for order in (2, 6) for rows in (64, 6)]


def test_run_memo_hits_cannot_be_corrupted_by_callers():
    cfg = _cfg(samples=70)
    charges = sample_disorder_block(cfg.disorder, 24, 1, 0, 8)
    with run_memo():
        first = sample_cumulants(cfg, 2.0, 24, 2)
        keep = first.copy()
        first[:] = np.nan
        path = sample_kappa1_path(cfg, 2.0, 24)
        path_keep = path.copy()
        path[:] = 0.0
        assert sample_cumulants(cfg, 2.0, 24, 2).tobytes() == keep.tobytes()
        assert sample_kappa1_path(cfg, 2.0, 24).tobytes() == path_keep.tobytes()
        kappa = QuenchedSystem(LAW, 2.0, charges[0], 24).cumulants(4).kappa
        kappa_keep = kappa.copy()
        kappa[:] = np.nan
        assert (QuenchedSystem(LAW, 2.0, charges[0], 24).cumulants(4)
                .kappa.tobytes() == kappa_keep.tobytes())
        laws = QuenchedBlock(LAW, 2.0, charges, 24).contact_laws()[0]
        with pytest.raises(ValueError, match="read-only"):
            laws[:] = 0.0
        # every entry, rows, moment columns and laws alike, is read-only
        memo = quenched._MEMO.get()
        assert {"contact_laws", "cumulants"} <= {key[1] for key in memo}
        assert not any(table.flags.writeable for _, table in memo.values())


def test_blocks_on_the_same_charges_share_their_exact_laws(monkeypatch):
    # inside a run memo a QuenchedBlock built directly, on a copy of
    # another block's charges, reads that block's exact laws: the count DP
    # runs once.  Other charges, another h or another law run their own
    charges = sample_disorder_block(gaussian_disorder(1.0), 32, 4, 0, 5)
    runs = []
    count_dp = quenched._count_dp

    def counted(pre, *args):
        runs.append(pre.shape[0])
        return count_dp(pre, *args)
    monkeypatch.setattr(quenched, "_count_dp", counted)
    with run_memo():
        laws = QuenchedBlock(LAW, 2.0, charges, 32).contact_laws()[0]
        again = QuenchedBlock(LAW, 2.0, charges.copy(), 32).contact_laws()[0]
        assert again is laws and runs == [5]
        for law, h, om in [(LAW, 2.0, charges[:4]), (LAW, 2.5, charges),
                           (build_law(1.0, None, 128), 2.0, charges)]:
            QuenchedBlock(law, h, om, 32).contact_laws()
    assert runs == [5, 4, 5, 5]
    assert QuenchedBlock(LAW, 2.0, charges, 32).contact_laws()[0].tobytes() \
        == laws.tobytes()


def test_a_samples_rows_do_not_depend_on_the_sample_count():
    # sample 64 is alone in its 64-block of a 65-sample run, and paired with
    # sample 65 in a 66-sample run: every moment pass of a block has one
    # centre, so both run fused and its rows keep their bytes (n = 128 at
    # h = 2, seed 11; the count of 65 ran the one row alone and moved
    # kappa_1..kappa_4 by up to 7.9e-14 relative)
    rows = {}
    for samples in (65, 66):
        cfg = _cfg(samples=samples)
        rows[samples] = [np.array([v[64] for v in sample_log_z(cfg, 2.0, 128)]),
                         sample_cumulants(cfg, 2.0, 128, 2)[64],
                         sample_cumulants(cfg, 2.0, 128, 6)[64],
                         sample_kappa1_path(cfg, 2.0, 128)[64]]
    for got, want in zip(rows[65], rows[66]):
        assert got.tobytes() == want.tobytes()


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
    # the first-return variant, the slope of log mean(p(n)/Z^-) negated,
    # targets the same limit; at this small grid its log p(n) correction
    # still shifts the slope at the 0.1 level
    ns = np.array(cfg.n_values)
    variant = linear_fit(ns, res.mu_n * ns - cfg.law.log_p[ns])["slope"]
    assert res.slope == pytest.approx(variant, abs=0.15)


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
    # over gaps; at window = n the widest gaps have no site pair (nan);
    # 70 samples make two blocks, the second ending in a partial chunk of
    # segment tables
    for cfg in (_cfg(samples=5, window=16), _cfg(samples=3, window=32,
                                                 n_values=(16, 32)),
                _cfg(samples=70, window=16)):
        n, window = max(cfg.n_values), cfg.window
        res = correlation_decay_scan(cfg, 2.0, fit_range=(4, 12))
        block = sample_disorder_block(cfg.disorder, n, cfg.master_seed, 0,
                                      cfg.samples)
        want = np.zeros(window)
        for omega in block:
            sys_ = QuenchedSystem(cfg.law, 2.0, omega, n)
            pre, suf = sys_.prefix_logZ, sys_.suffix_logZ()
            seg = _segment_tables(cfg.law.log_p, sys_.site_weight[None, 1:],
                                  window)[0]
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


def test_mixing_fit_skips_gaps_without_site_pair():
    # at window = n the gaps n-1 and n have no site pair and a nan mean;
    # the fit must stop at n-2 instead of taking them in
    for h, n in ((0.5, 16), (0.5, 32), (1.5, 16)):
        cfg = _cfg(samples=3, window=n, n_values=(n,), master_seed=9)
        res = correlation_decay_scan(cfg, h, fit_range=(4, n))
        assert np.isnan(res.mix_mean[n - 2:]).all()
        assert 2 <= res.mix_fit_range[1] <= n - 2
        assert math.isfinite(res.mix_gamma) and res.mix_gamma > 0.0


def test_memoryless_law_has_independent_contacts():
    # geometric inter-arrivals make the contact field an i.i.d. product
    # measure, so every covariance must vanish at machine precision
    sys_ = QuenchedSystem(GEOM, 1.0, np.zeros(40), 40)
    for a, b in ((1, 2), (5, 20), (10, 39)):
        assert abs(contact_covariance(sys_, a, b)) < 1e-12


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
    # without disorder both samples give log Z_n = -n log 2 + h + (n-1)
    # log(1 + e^h) at n = 64, with stderr 0, so the test flips where that
    # is 0: at h* of about 2 log 2 / (n+1) = 0.021
    n = 64
    h_star = brentq(lambda h: -n * math.log(2.0) + h
                    + (n - 1) * math.log1p(math.exp(h)), -1.0, 1.0)
    assert abs(h_star - 2.0 * math.log(2.0) / (n + 1)) < 1e-3
    assert lo <= h_star <= hi
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
