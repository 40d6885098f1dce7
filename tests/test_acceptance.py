"""Release battery: the twelve go/no-go criteria, one printed line each.

Each test prints `criterion k: PASS/FAIL  <label>` straight to the
terminal (bypassing capture) and then asserts, so a red run names the
criterion in both the printed ledger and the pytest report.  Regimes and
seeds are frozen; every threshold is stated inline.
"""

import json
import math
import time

import numpy as np

from pinlab import oracle
from pinlab.cli import main as cli_main
from pinlab.disorder_mc import (
    McConfig,
    centering_statistics,
    concentration_scan,
    correlation_decay_scan,
    estimate_f,
    estimate_mu,
    linear_fit,
    wilson_upper,
)
from pinlab.model import (
    build_law,
    gaussian_disorder,
    geometric_test_law,
    zero_disorder,
)
from pinlab.oracle import build_path_set, pure_model_free_energy
from pinlab.quenched import QuenchedSystem
from pinlab.theorems import CheckContext, run_check
from support import random_disorder, random_instance

SEED = 20260815
U_GRID = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 18.0, 27.0, 40.0, 60.0, 90.0)


def _verdict(capsys, idx, label, ok, detail=""):
    line = f"criterion {idx:>2}: {'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_01_oracle_equivalence(capsys):
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(500):
        law, h, omega, n = random_instance(rng)
        sys_ = QuenchedSystem(law, h, omega, n)
        worst = max(worst, abs(sys_.log_z
                               - oracle.enumerate_partition(law, h, omega, n)))
        probs = oracle.enumerate_contact_probabilities(law, h, omega, n)
        got = np.array([sys_.contact_probability(a) for a in range(n + 1)])
        worst = max(worst, float(np.max(np.abs(got - probs))))
        if n >= 3:
            a, b = sorted(int(v) for v in rng.integers(1, n, 2))
            cov = oracle.enumerate_moment(law, h, omega, n, (a, b)) \
                - probs[a] * probs[b]
            worst = max(worst, abs(oracle.contact_covariance(sys_, a, b) - cov))
        pmf = oracle.enumerate_contact_pmf(law, h, omega, n)
        worst = max(worst, float(np.max(np.abs(sys_.contact_law().pmf()
                                               - pmf))))
        cdf = oracle.enumerate_excursion_cdf(law, h, omega, n)
        worst = max(worst, max(abs(sys_.max_excursion_cdf(m) - cdf[m])
                               for m in range(1, n + 1)))
        aj = np.exp(sys_.two_replica_avoidance_log(min(n, 8)))
        for j in range(2, min(n, 8) + 1):
            worst = max(worst, abs(aj[j]
                                   - oracle.enumerate_avoidance(law, h, omega, j)))
    dt = time.monotonic() - t0
    ok = worst <= 1e-9 and dt < 30.0
    _verdict(capsys, 1, "oracle equivalence, 500 random instances", ok,
             f"max gap {worst:.1e}, {dt:.1f}s")


def test_02_cumulant_consistency(capsys):
    rng = np.random.default_rng(SEED)
    worst_mom = 0.0
    worst_fd = 0.0
    step = 1e-3
    for _ in range(50):
        law, h, omega, n = random_instance(rng, n_lo=16, n_hi=64)
        kap = QuenchedSystem(law, h, omega, n).cumulants(4).kappa
        pmf = QuenchedSystem(law, h, omega, n).contact_law().pmf()
        l = np.arange(n + 1, dtype=float)
        m1 = float(l @ pmf)
        c = l - m1
        mu2, mu3, mu4 = (float((c ** r) @ pmf) for r in (2, 3, 4))
        for r, want in enumerate((m1, mu2, mu3, mu4 - 3.0 * mu2 ** 2)):
            worst_mom = max(worst_mom,
                            abs(kap[r + 1] - want) / max(abs(want), 1e-8))
        # high-order central stencils so truncation sits far below 1e-4
        f = [QuenchedSystem(law, h + k * step, omega, n).log_z
             for k in range(-3, 4)]
        d1 = (-f[0] + 9*f[1] - 45*f[2] + 45*f[4] - 9*f[5] + f[6]) / (60*step)
        d2 = (2*f[0] - 27*f[1] + 270*f[2] - 490*f[3] + 270*f[4] - 27*f[5]
              + 2*f[6]) / (180*step**2)
        d3 = (f[0] - 8*f[1] + 13*f[2] - 13*f[4] + 8*f[5] - f[6]) / (8*step**3)
        for r, d in enumerate((d1, d2, d3)):
            worst_fd = max(worst_fd,
                           abs(kap[r + 1] - d) / max(abs(kap[r + 1]), 1.0))
    ok = worst_mom <= 1e-8 and worst_fd <= 1e-4
    _verdict(capsys, 2, "cumulants: jets vs moments vs finite differences",
             ok, f"moment rel {worst_mom:.1e}, fd rel {worst_fd:.1e}")


def test_03_pure_model_regression(capsys):
    glaw = geometric_test_law(4096)
    h = math.log(3.0)
    errs = [abs(QuenchedSystem(glaw, h, np.zeros(n + 1), n).log_z / n
                - math.log(2.0))
            for n in (256, 512, 1024, 2048, 4096)]
    shrinking = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    k1 = QuenchedSystem(glaw, h, np.zeros(4097), 4096) \
        .cumulants(1).kappa[1]
    cfg = McConfig(glaw, zero_disorder(), (h,), (1024, 2048, 4096),
                   samples=2, master_seed=SEED)
    mu = estimate_mu(cfg, h)
    alaw = build_law(1.0, None, 4096)
    froot = pure_model_free_energy(alaw, 3.0)
    fdp = QuenchedSystem(alaw, 3.0, np.zeros(4097), 4096).log_z / 4096
    ok = (errs[-1] <= 1e-2 and shrinking
          and abs(k1 / 4096 - 0.75) <= 1e-2
          and np.array_equal(mu.mu_n, mu.f_minus_n)
          and abs(fdp - froot) <= 1e-2)
    _verdict(capsys, 3, "pure-model regression at n=4096", ok,
             f"|f-log2| {errs[-1]:.1e}, kappa1/n {k1/4096:.4f}, "
             f"root gap {abs(fdp-froot):.1e}")


def test_04_inequality_suite(capsys):
    rng = np.random.default_rng(SEED)
    violations = 0
    worst_fact = 0.0
    for _ in range(200):
        law, h, omega, n = random_instance(rng, n_lo=2, n_hi=12)
        sys_ = QuenchedSystem(law, h, omega, n)
        xi = law.xi
        ps = build_path_set(law, h, omega, n)
        w = ps.normalized_weights()
        x = ps.contact_matrix()
        masks = np.arange(w.size)
        for a in range(1, n):
            t = math.log(xi) + xi * math.log(min(a, n - a)) - h - omega[a - 1]
            bound = 1.0 / (1.0 + math.exp(t)) if t < 700.0 else 0.0
            if sys_.contact_probability(a) < bound - 1e-12:
                violations += 1
            xa = x[:, a]
            pa = float(w @ xa)
            left = (masks & ((1 << (a - 1)) - 1)) if a > 1 \
                else np.zeros_like(masks)
            right = masks >> a
            f = rng.integers(0, 2, 1 << (a - 1)).astype(float)[left]
            g = rng.integers(0, 2, 1 << (n - a)).astype(float)[right] \
                if n - a >= 1 else np.ones_like(w)
            worst_fact = max(worst_fact,
                             abs(float(w @ (f * g * xa)) * pa
                                 - float(w @ (f * xa)) * float(w @ (g * xa))))
            if n <= 10:
                log_bound = (math.log(xi)
                             + xi * math.log(min(a, n - a)) - h - omega[a - 1])
                for _ in range(2):
                    phi = np.ones_like(w)
                    for s in range(1, a):
                        if rng.random() < 0.5:
                            phi *= x[:, s]
                    psi = np.ones_like(w)
                    for s in range(a + 1, n):
                        if rng.random() < 0.5:
                            psi *= x[:, s]
                    lhs = float(w @ (phi * (1.0 - xa) * psi))
                    rhs = float(w @ (phi * xa * psi))
                    if lhs > 0.0 and \
                            math.log(lhs) > log_bound + math.log(rhs) + 1e-9:
                        violations += 1
        # empirical means make both Jensen bounds exact, not statistical
        dis = random_disorder(rng)
        draws = [QuenchedSystem(law, h, dis.draw(rng, n), n) for _ in range(8)]
        log_z = np.array([d.log_z for d in draws])
        log_zm = np.array([d.log_z - d.site_weight[n] for d in draws])
        annealed = np.log(np.mean(np.exp(log_z - log_z.max()))) + log_z.max()
        if float(np.mean(log_z)) > annealed + 1e-12:
            violations += 1
        mu_side = -(np.log(np.mean(np.exp(-log_zm + log_zm.min())))
                    - log_zm.min())
        if mu_side > float(np.mean(log_zm)) + 1e-12:
            violations += 1
    ok = violations == 0 and worst_fact <= 1e-12
    _verdict(capsys, 4, "per-sample inequality suite, 200 instances", ok,
             f"{violations} violations, factorization {worst_fact:.1e}")


def test_05_correlation_decay(capsys):
    t0 = time.monotonic()
    law = build_law(1.0, None, 128)
    cfg = McConfig(law, gaussian_disorder(1.0), (3.0,), (128,),
                   samples=200, master_seed=SEED, window=96)
    res = correlation_decay_scan(cfg, 3.0, fit_range=(8, 64))
    dt = time.monotonic() - t0
    ok = (res.gamma_hat > 3.0 * res.gamma_stderr and res.fit_r2 >= 0.98
          and not res.floor_flag and dt < 300.0)
    _verdict(capsys, 5, "two-replica decay fit, S=200, window 96", ok,
             f"gamma {res.gamma_hat:.3f}+-{res.gamma_stderr:.3f}, "
             f"r2 {res.fit_r2:.4f}, {dt:.0f}s")


def test_06_quenched_clt(capsys):
    law = build_law(1.0, None, 1024)
    cfg = McConfig(law, gaussian_disorder(1.0), (3.0,), (64, 128, 256),
                   samples=8, master_seed=SEED)
    ctx = CheckContext(mc=cfg, h=3.0, clt_n_values=(128, 256, 512, 1024))
    rep = run_check("C2", ctx)
    ok = (rep.passed is True and rep.metrics["ks_max_final"] <= 0.06
          and rep.metrics["non_increasing"])
    _verdict(capsys, 6, "quenched CLT, 5 seeds, n up to 1024", ok,
             f"ks final max {rep.metrics['ks_max_final']:.4f}")


def test_07_centering_suite(capsys):
    law = build_law(1.0, None, 512)
    cfg = McConfig(law, gaussian_disorder(1.0), (3.0,), (128, 256, 512),
                   samples=2000, master_seed=SEED)
    rows = {n: centering_statistics(cfg, 3.0, n) for n in (128, 256, 512)}
    top = rows[512]
    ns = np.array([128.0, 256.0, 512.0])
    means = np.array([rows[n].mean for n in (128, 256, 512)])
    errs = np.array([rows[n].mean_stderr for n in (128, 256, 512)])
    fit = linear_fit(ns, means)
    resid = float(np.max(np.abs(means - fit["slope"] * ns
                                - fit["intercept"])))
    resid_tol = max(2.0 * float(np.sqrt((errs ** 2).sum())),
                    1e-8 * float(np.max(np.abs(means))))
    pure_cfg = McConfig(law, zero_disorder(), (3.0,), (128, 256, 512),
                        samples=2, master_seed=SEED)
    pure_w = centering_statistics(pure_cfg, 3.0, 512).w_hat
    ok = (top.w_hat > 3.0 * top.w_stderr
          and top.ks is not None and top.ks <= 0.05
          and resid <= resid_tol
          and pure_w == 0.0)
    _verdict(capsys, 7, "centering suite at n=512, S=2000", ok,
             f"w {top.w_hat:.4f}+-{top.w_stderr:.4f}, ks {top.ks:.3f}, "
             f"resid {resid:.1e} vs {resid_tol:.1e}, pure w {pure_w}")


def test_08_concentration(capsys):
    law = build_law(1.0, None, 256)
    cfg = McConfig(law, gaussian_disorder(1.0), (3.0,), (256,),
                   samples=2000, master_seed=SEED)
    res = concentration_scan(cfg, 3.0, 256, U_GRID)

    def dominated(kappa, wilson, expo, counts):
        return all(2.0 * math.exp(-kappa * u ** 2 / (256 + u ** expo))
                   >= wu - 1e-12
                   for u, wu, c in zip(res.u_values, wilson, counts)
                   if u > 0 and c > 0)

    counts_f = np.rint(res.freq_f * 2000)
    counts_c = np.rint(res.freq_c * 2000)
    # strict variant: let the zero-count points constrain kappa as well
    strict_f = min((256 + u) / u ** 2 * math.log(2.0 / wilson_upper(int(c), 2000))
                   for u, c in zip(res.u_values, counts_f) if u > 0)
    strict_c = min((256 + u ** (5 / 3)) / u ** 2
                   * math.log(2.0 / wilson_upper(int(c), 2000))
                   for u, c in zip(res.u_values, counts_c) if u > 0)
    ok = (res.kappa_f > 0.0 and res.kappa_c > 0.0
          and dominated(res.kappa_f, res.wilson_f, 1.0, counts_f)
          and dominated(res.kappa_c, res.wilson_c, 5 / 3, counts_c)
          and strict_f > 0.0 and strict_c > 0.0)
    _verdict(capsys, 8, "concentration tails at n=256, S=2000", ok,
             f"kappa_f {res.kappa_f:.3f}, kappa_c {res.kappa_c:.1f}, "
             f"strict {strict_f:.3f}/{strict_c:.1f}")


def test_09_mu_bounds(capsys):
    law = build_law(1.0, None, 256)
    cfg = McConfig(law, gaussian_disorder(1.0), (3.0,), (64, 128, 256),
                   samples=128, master_seed=SEED)
    strict_ok = True
    jensen_ok = True
    c_vals = []
    margins = []
    for h in (1.5, 2.0, 2.5, 3.0, 3.5):
        mu = estimate_mu(cfg, h)
        f = estimate_f(cfg, h, 256)
        sig = mu.slope_stderr + f.series.stderr
        margins.append(f.series.mean + 2.0 * sig - mu.slope)
        strict_ok &= mu.slope <= f.series.mean + 2.0 * sig
        jensen_ok &= bool(np.all(mu.mu_n <= mu.f_minus_n + 1e-12))
        c_vals.append(mu.slope / min(f.series.mean, f.series.mean ** 2))
    c_hat = min(c_vals)
    ok = strict_ok and jensen_ok and c_hat > 0.0
    _verdict(capsys, 9, "mu vs f bounds across localized h grid", ok,
             f"min margin {min(margins):.3f}, c_hat {c_hat:.3f}")


def test_10_maximal_excursion(capsys):
    law = build_law(1.0, None, 4096)
    reports = {}
    for name, dis in (("pure", zero_disorder()),
                      ("gaussian", gaussian_disorder(1.0))):
        cfg = McConfig(law, dis, (3.0,), (64, 128, 256),
                       samples=200, master_seed=SEED)
        ctx = CheckContext(mc=cfg, h=3.0,
                           excursion_n_values=(1024, 2048, 4096))
        reports[name] = run_check("C6", ctx)
    ok = all(r.passed is True and r.metrics["band_mass_final"] > 0.9
             and r.metrics["band_mass_increasing"]
             for r in reports.values())
    _verdict(capsys, 10, "maximal excursion band mass at n up to 4096", ok,
             ", ".join(f"{k} {r.metrics['band_mass_final']:.3f}"
                       for k, r in reports.items()))


def test_11_centering_fluctuation_scale(capsys):
    law = build_law(1.0, None, 4096)
    cfg = McConfig(law, gaussian_disorder(1.0), (3.0,), (64, 128, 256),
                   samples=10, master_seed=SEED)
    ctx = CheckContext(mc=cfg, h=3.0, hl_n_max=4096)
    rep = run_check("C11", ctx)
    slope, err = rep.metrics["slope"], rep.metrics["slope_stderr"]
    ok = rep.passed is True and slope <= 2.0 * err
    _verdict(capsys, 11, "centering fluctuation scale, 10 seeds, n to 4096",
             ok, f"slope {slope:.2e} +- {err:.2e}")


def test_12_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"n_max": 64},
        "disorder": {"family": "gaussian", "param": 1.0},
        "grids": {"h_values": [2.0], "n_values": [16, 32, 64], "window": 16},
        "run": {"samples": 8, "master_seed": 5},
    }))

    def scan(tag, threads):
        out = tmp_path / f"scan_{tag}"
        rc = cli_main(["scan", "--config", str(cfg_path), "--out", str(out),
                       "--threads", str(threads)])
        assert rc == 0
        return {name: (out / name).read_bytes()
                for name in ("series.csv", "decay.csv", "seeds.json")}

    runs = [scan("t1a", 1), scan("t1b", 1), scan("t4", 4), scan("t8", 8)]
    scan_same = all(r == runs[0] for r in runs[1:])

    def verify(tag, threads):
        out = tmp_path / f"verify_{tag}"
        rc = cli_main(["verify", "--config", str(cfg_path), "--out", str(out),
                       "--checks", "C5", "--threads", str(threads)])
        return rc, (out / "report.json").read_bytes()

    vruns = [verify(t, t) for t in (1, 4, 8)]
    verify_same = all(v == vruns[0] for v in vruns[1:])
    ok = scan_same and verify_same
    _verdict(capsys, 12, "byte-identical scan/verify across 1/4/8 threads",
             ok)
