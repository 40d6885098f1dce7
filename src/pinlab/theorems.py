"""Runnable checks, one per verified result, each yielding a CheckReport.

Checks render asymptotic statements as finite-grid trend tests (the metric
must improve across the n grid within statistical error and clear its
threshold at the largest n), and render existence constants as fitted
values with uncertainties.  Statistical failure is data, not an exception:
run_check only raises for configurations a check cannot consume at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import disorder_mc as mc
from .model import sample_disorder_block
from .numerics import log_mean_exp
from .oracle import build_path_set
from .quenched import KS_L1_BUDGET, QuenchedSystem, ks_to_standard_normal

CHECK_IDS = tuple(f"C{i}" for i in range(1, 14))

DEFAULT_U_GRID = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 18.0, 27.0, 40.0,
                  60.0, 90.0)

_BAND_EPS = 0.25                # C6: half-width of the band around 1/mu
_CLT_KS_THRESHOLD = 0.06        # C2: KS bound of every seed at the largest n
_CENTERING_KS_THRESHOLD = 0.05  # C4: KS bound on the standardized centering
_R2_THRESHOLD = 0.98            # C7: least r^2 of the avoidance decay fit
_DELTA_FRAC = 0.5               # C13: thinning level delta / rho_hat

_CLT_SEEDS = 5                  # C2: samples per n
_CENTERING_SAMPLES = 1000       # C4, C8, C12: least sample count
_EXACT_SAMPLES = 8              # C6: samples per n
_C9_INSTANCES = 150             # C9: random systems checked site by site
_C10_INSTANCES = 200            # C10: random path sets the oracle enumerates
_HL_SEEDS = 10                  # C11: sample paths

CHECK_DESCRIPTIONS = {
    "C1": "free-energy regularity: cumulant densities converge across n; "
          "factorial-cubed growth constant fitted for r <= 6",
    "C2": "quenched CLT: KS distance of the standardized contact law "
          "(within a certified L1 distance of the full count DP, roundoff "
          "not included) to the normal shrinks across n",
    "C3": "quenched concentration: exact contact-law tails dominated by "
          "2 exp(-kappa u^2/(n+u^(5/3))), kappa fitted per sample",
    "C4": "centering suite: variance density w > 0 under disorder, CLT of "
          "the centering, mean linear in n with bounded remainder",
    "C5": "mu bounds: mu <= f exactly per run and mu >= c min(f, f^2) with "
          "fitted c > 0 across localized h",
    "C6": "maximal excursion: mass of M_n/log n near 1/mu grows along n",
    "C7": "correlation decay: exponential fits for two-replica avoidance "
          "and the covariance mixing ratio",
    "C8": "thermal variance: kappa_2/n positive at 3 sigma",
    "C9": "contact enforcement: per-site lower bound on E[X_a] at every "
          "interior site of every sample",
    "C10": "renewal factorization: conditional independence of the two "
           "sides given a contact, oracle residual <= 1e-12",
    "C11": "centering fluctuation scale: max |kappa_1 - rho n|/sqrt(n ln n) "
           "shows no growth across dyadic horizons",
    "C12": "centering cumulant scale: kappa_3 and kappa_4 of the centering "
           "grow linearly in n within error",
    "C13": "large-deviation thinning: P[L_n < delta n] decays at a fitted "
           "positive rate for delta below the contact density",
}


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    description: str
    parameters: dict
    metrics: dict
    fitted_constants: dict
    tolerances: dict
    passed: bool | None
    skip_reason: str | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "description": self.description,
            "parameters": _plain(self.parameters),
            "metrics": _plain(self.metrics),
            "fitted_constants": _plain(self.fitted_constants),
            "tolerances": _plain(self.tolerances),
            "passed": self.passed,
            "skip_reason": self.skip_reason,
            "extras": _plain(self.extras),
        }


def _plain(obj):
    """JSON-ready copy: numpy scalars/arrays to python, inf/nan to strings."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


@dataclass(frozen=True)
class CheckContext:
    """The values a run config sets (RunConfig.check_context()); checks
    read only what applies to them.  Fixed sample counts and tolerances
    are the module constants above."""
    mc: mc.McConfig
    h: float
    h_grid: tuple = (1.5, 2.0, 2.5, 3.0, 3.5)
    u_values: tuple = DEFAULT_U_GRID
    clt_n_values: tuple = (128, 256, 512, 1024)
    excursion_n_values: tuple = (1024, 2048, 4096)
    hl_n_max: int = 1024
    r_max: int = 6

    @property
    def is_pure(self) -> bool:
        return self.mc.disorder.is_pure


def default_context(master_seed: int = 20260815) -> CheckContext:
    from .model import build_law, gaussian_disorder
    law = build_law(1.0, None, 4096)
    cfg = mc.McConfig(law, gaussian_disorder(1.0), (3.0,), (64, 128, 256),
                      samples=200, master_seed=master_seed, window=64)
    return CheckContext(mc=cfg, h=3.0)


def _two_sigma(err: float) -> float:
    """Tolerance band: 2 err, inf-safe."""
    return 2.0 * err if math.isfinite(err) else math.inf


# ---------------------------------------------------------------------------
# C1: smoothness of the free energy (cumulant convergence + growth constant)

def _check_c1(ctx: CheckContext) -> CheckReport:
    cfg = ctx.mc
    r_max = max(ctx.r_max, 4)
    means = {}
    errs = {}
    for n in cfg.n_values:
        kap = mc.sample_cumulants(cfg, ctx.h, n, r_max)
        for r in range(1, r_max + 1):
            m, e = mc._mean_stderr(kap[:, r] / n)
            means[(n, r)] = m
            errs[(n, r)] = e
    ns = cfg.n_values
    metrics = {}
    clauses = []
    for r in range(1, 5):
        seq = [means[(n, r)] for n in ns]
        er = [errs[(n, r)] for n in ns]
        diffs = [abs(seq[i + 1] - seq[i]) for i in range(len(seq) - 1)]
        metrics[f"kappa{r}_per_n"] = seq[-1]
        metrics[f"kappa{r}_per_n_stderr"] = er[-1]
        metrics[f"kappa{r}_last_step"] = diffs[-1]
        if len(diffs) >= 2:
            tol = _two_sigma(math.hypot(*er[-3:]))
            clauses.append(diffs[-1] <= diffs[-2] + tol)
            metrics[f"kappa{r}_step_shrinks"] = clauses[-1]
    # Gevrey-style growth constant at the largest n, r <= r_max
    n = ns[-1]
    g_best, g_err, g_arg = 0.0, 0.0, 1
    for r in range(1, r_max + 1):
        m, e = means[(n, r)], errs[(n, r)]
        if m == 0.0:
            continue
        g = (abs(m) / math.factorial(r) ** 3) ** (1.0 / r)
        if g > g_best:
            g_best, g_arg = g, r
            g_err = e * g / (r * abs(m)) if m else 0.0
    fitted = {"c_hat": g_best, "c_hat_stderr": g_err, "c_hat_argmax_r": g_arg}
    passed = all(clauses) and math.isfinite(g_best)
    return CheckReport("C1", CHECK_DESCRIPTIONS["C1"],
                       {"h": ctx.h, "n_values": ns, "samples": cfg.samples,
                        "r_max": r_max},
                       metrics, fitted,
                       {"step_growth_sigma": 2.0}, passed)


# ---------------------------------------------------------------------------
# C2: quenched CLT for the contact number (certified law, per seed)

def _ks_error_bound(l1: float, n: int, var: float) -> float:
    """Bound on |KS(p) - KS(q)| for pmfs p, q on 0..n with ||p - q||_1 <=
    l1, var the variance ks_to_standard_normal reports for q.

    The CDF moves by at most l1.  The mean moves by at most n l1 and the
    variance by at most n^2 l1 (1 + l1), so the standard deviation by at
    most ds = n^2 l1 (1 + l1) / sd; the normal CDF at the atoms then moves
    by at most (dmu + e^{-1/2} ds) / (sqrt(2 pi) (sd - ds)), since
    |d Phi/d mu| <= phi(0)/sd and |d Phi/d sd| <= phi(1)/sd.  KS lies in
    [0, 1], so the bound is at most 1."""
    sd = math.sqrt(max(var, 0.0))
    ds = n * n * l1 * (1.0 + l1) / sd if sd > 0.0 else math.inf
    if not ds < sd:
        return 1.0
    shift = (n * l1 + math.exp(-0.5) * ds) / (math.sqrt(2.0 * math.pi)
                                              * (sd - ds))
    return min(1.0, l1 + shift)


def _check_c2(ctx: CheckContext) -> CheckReport:
    """The laws run the count DP at KS_L1_BUDGET; ks_error_bound is the
    largest bound on what the terms it left out move a KS value by."""
    cfg = ctx.mc
    ns = ctx.clt_n_values
    ks = np.empty((_CLT_SEEDS, len(ns)))
    err = 0.0
    for k, n in enumerate(ns):
        for s, sys in enumerate(mc._block_systems(cfg, ctx.h, n, _CLT_SEEDS)):
            law = sys.contact_law(KS_L1_BUDGET)
            ks[s, k], _, var = ks_to_standard_normal(law)
            err = max(err, _ks_error_bound(law.l1_bound, n, var))
    spread = ks.std(axis=0, ddof=1) / math.sqrt(_CLT_SEEDS)
    non_increasing = True
    for k in range(1, len(ns)):
        tol = _two_sigma(float(math.hypot(spread[k], spread[k - 1])))
        if np.any(ks[:, k] > ks[:, k - 1] + max(tol, 1e-12)):
            non_increasing = False
    final_ok = bool(np.all(ks[:, -1] <= _CLT_KS_THRESHOLD))
    metrics = {"ks_max_final": float(ks[:, -1].max()),
               "ks_mean_final": float(ks[:, -1].mean()),
               "non_increasing": non_increasing, "ks_error_bound": err}
    for k, n in enumerate(ns):
        metrics[f"ks_mean_n{n}"] = float(ks[:, k].mean())
    return CheckReport("C2", CHECK_DESCRIPTIONS["C2"],
                       {"h": ctx.h, "n_values": ns, "seeds": _CLT_SEEDS},
                       metrics, {},
                       {"ks_threshold": _CLT_KS_THRESHOLD, "trend_sigma": 2.0},
                       non_increasing and final_ok,
                       extras={"ks": ks.tolist()})


# ---------------------------------------------------------------------------
# C3: quenched concentration of L_n (exact per-sample tails)

def _check_c3(ctx: CheckContext) -> CheckReport:
    cfg = ctx.mc
    n = int(max(cfg.n_values))
    count = min(cfg.samples, 200)
    k53 = np.empty(count)
    k1 = np.empty(count)
    for i, sys in enumerate(mc._block_systems(cfg, ctx.h, n, count)):
        law = sys.contact_law()
        tails = law.tail_two_sided(ctx.u_values)
        k53[i] = mc._tail_kappa(ctx.u_values, tails, n, 5.0 / 3.0)
        k1[i] = mc._tail_kappa(ctx.u_values, tails, n, 1.0)
    fitted = {
        "kappa_hat": float(np.min(k53)),
        "kappa_hat_stderr": mc._mean_stderr(k53)[1],
        "kappa_hat_linear_form": float(np.min(k1)),
        "kappa_hat_linear_form_stderr": mc._mean_stderr(k1)[1],
    }
    passed = fitted["kappa_hat"] > 0.0
    return CheckReport("C3", CHECK_DESCRIPTIONS["C3"],
                       {"h": ctx.h, "n": n, "samples": count,
                        "u_values": list(ctx.u_values)},
                       {"kappa_min_over_samples": fitted["kappa_hat"],
                        "worst_sample_exceedances": 0},
                       fitted, {"positivity": 0.0}, passed)


# ---------------------------------------------------------------------------
# C4: the centering suite

def _check_c4(ctx: CheckContext) -> CheckReport:
    cfg = replace(ctx.mc, samples=max(ctx.mc.samples, _CENTERING_SAMPLES))
    if ctx.is_pure:
        top = mc.centering_statistics(replace(cfg, samples=2), ctx.h,
                                      int(max(cfg.n_values)))
        degenerate = top.w_hat == 0.0
        return CheckReport("C4", CHECK_DESCRIPTIONS["C4"],
                           {"h": ctx.h, "n_values": cfg.n_values},
                           {"w_hat": top.w_hat, "degenerate": degenerate},
                           {}, {},
                           None if degenerate else False,
                           skip_reason="pure model (centering is "
                                       "deterministic)" if degenerate
                                       else None)
    results = {n: mc.centering_statistics(cfg, ctx.h, n) for n in cfg.n_values}
    ns = np.array(cfg.n_values, dtype=float)
    mean_n = np.array([results[n].mean for n in cfg.n_values])
    err_n = np.array([results[n].mean_stderr for n in cfg.n_values])
    fit = mc.linear_fit(ns, mean_n)
    resid = mean_n - (fit["slope"] * ns + fit["intercept"])
    atol = 1e-8 * max(1.0, float(np.max(np.abs(mean_n))))
    resid_tol = _two_sigma(float(np.sqrt((err_n ** 2).sum())))
    linear_ok = bool(np.max(np.abs(resid)) <= max(resid_tol, atol))
    top = results[max(cfg.n_values)]
    metrics = {
        "w_hat": top.w_hat, "w_stderr": top.w_stderr,
        "rho_hat": fit["slope"], "mean_intercept": fit["intercept"],
        "mean_resid_max": float(np.max(np.abs(resid))),
        "mean_linear_ok": linear_ok,
        "kappa3_per_n": top.kappa3_per_n, "kappa4_per_n": top.kappa4_per_n,
    }
    fitted = {"w_hat": top.w_hat, "w_hat_stderr": top.w_stderr,
              "rho_hat": fit["slope"], "rho_hat_stderr": fit["stderr"],
              "c_hat_boundary": abs(fit["intercept"])}
    clauses = [linear_ok]
    w_pos = top.w_hat > 3.0 * top.w_stderr
    metrics["w_positive"] = bool(w_pos)
    clauses.append(bool(w_pos))
    if top.ks is not None:
        metrics["ks_centering"] = top.ks
        clauses.append(top.ks <= _CENTERING_KS_THRESHOLD)
    return CheckReport("C4", CHECK_DESCRIPTIONS["C4"],
                       {"h": ctx.h, "n_values": cfg.n_values,
                        "samples": cfg.samples},
                       metrics, fitted,
                       {"w_sigma": 3.0,
                        "ks_threshold": _CENTERING_KS_THRESHOLD,
                        "linearity_sigma": 2.0},
                       all(clauses))


# ---------------------------------------------------------------------------
# C5: bounds relating mu and f

def _check_c5(ctx: CheckContext) -> CheckReport:
    cfg = ctx.mc
    n_top = int(max(cfg.n_values))
    rows = []
    jensen_worst = -math.inf
    for h in ctx.h_grid:
        mu = mc.estimate_mu(cfg, h)
        f = mc.estimate_f(cfg, h, n_top)
        jensen_worst = max(jensen_worst,
                           float(np.max(mu.mu_n - mu.f_minus_n)))
        rows.append((h, mu.slope, mu.slope_stderr,
                     f.series.mean, f.series.stderr))
    mu_hat = np.array([r[1] for r in rows])
    mu_err = np.array([r[2] for r in rows])
    f_hat = np.array([r[3] for r in rows])
    f_err = np.array([r[4] for r in rows])
    # mu_hat is a slope, f_hat a level at n_top; their finite-size
    # log-corrections differ at scale ln(n)/n, which dominates when the
    # sampling error is zero (pure runs)
    fs_tol = 2.0 * math.log(n_top) / n_top
    upper_ok = bool(np.all(mu_hat <= f_hat + 2.0 * (mu_err + f_err) + fs_tol))
    low_ref = np.minimum(f_hat, f_hat ** 2)
    with np.errstate(divide="ignore"):
        c_vals = np.where(low_ref > 0, mu_hat / low_ref, np.inf)
    c_hat = float(np.min(c_vals))
    metrics = {"jensen_worst_gap": jensen_worst,
               "upper_bound_ok": upper_ok,
               "mu_over_min_f_f2_min": c_hat}
    for (h, m, me, fv, fe) in rows:
        metrics[f"mu_hat_h{h:g}"] = m
        metrics[f"f_hat_h{h:g}"] = fv
    fitted = {"c_hat": c_hat,
              "c_hat_stderr": float(np.max(mu_err / np.maximum(low_ref, 1e-12)))}
    passed = upper_ok and c_hat > 0.0 and jensen_worst <= 1e-12
    return CheckReport("C5", CHECK_DESCRIPTIONS["C5"],
                       {"h_grid": list(ctx.h_grid), "n_values": cfg.n_values,
                        "samples": cfg.samples},
                       metrics, fitted,
                       {"jensen_slack": 1e-12, "upper_sigma": 2.0,
                        "upper_finite_size": fs_tol, "c_positivity": 0.0},
                       passed)


# ---------------------------------------------------------------------------
# C6: maximal excursion scale M_n ~ (log n)/mu

def _excursion_band(n: int, mu_hat: float, eps: float) -> tuple[int, int]:
    """Integers m with m/log n inside (1 - eps, 1 + eps)/mu_hat."""
    lo = (1.0 - eps) / mu_hat * math.log(n)
    hi = (1.0 + eps) / mu_hat * math.log(n)
    m_lo = max(int(math.floor(lo)), 0)          # P[M <= m_lo] excludes (lo, ..
    m_hi = min(int(math.ceil(hi)) - 1, n)       # strictly below hi
    return m_lo, m_hi


def _excursion_band_mass(ctx: CheckContext, h: float, n: int,
                         mu_hat: float) -> tuple[float, float, dict]:
    m_lo, m_hi = _excursion_band(n, mu_hat, _BAND_EPS)
    m_cap = min(m_hi + 3, n)
    count = 1 if ctx.is_pure else _EXACT_SAMPLES
    masses = np.empty(count)
    cdf = np.zeros(m_cap)
    for i, sys in enumerate(mc._block_systems(ctx.mc, h, n, count)):
        # largest cap first: the system builds every band in one pass
        row = np.array([sys.max_excursion_cdf(m)
                        for m in range(m_cap, 0, -1)])[::-1]
        cdf += row
        top = row[m_hi - 1] if m_hi >= 1 else 0.0
        bot = row[m_lo - 1] if m_lo >= 1 else 0.0
        masses[i] = top - bot
    mean, err = mc._mean_stderr(masses)
    detail = {"band": (m_lo + 1, m_hi), "cdf_m": list(range(1, m_cap + 1)),
              "cdf_mean": (cdf / count).tolist()}
    return mean, err, detail


def _check_c6(ctx: CheckContext) -> CheckReport:
    ns = ctx.excursion_n_values
    cfg = ctx.mc
    if max(ns) > cfg.law.n_max:
        raise ValueError("excursion grid exceeds the law horizon")
    mu = mc.estimate_mu(cfg, ctx.h)
    mu_hat = mu.slope
    mass, errs, detail = [], [], {}
    localized = math.isfinite(mu_hat) and mu_hat > 0.0
    for n in ns:
        if localized:
            m, e, d = _excursion_band_mass(ctx, ctx.h, n, mu_hat)
        else:
            m, e, d = math.nan, math.nan, {"band": None}
        mass.append(m)
        errs.append(e)
        detail[f"n{n}"] = d
    increasing = localized and all(
        mass[i + 1] >= mass[i] - max(_two_sigma(math.hypot(errs[i], errs[i + 1])), 1e-12)
        for i in range(len(mass) - 1))
    metrics = {"band_mass_final": mass[-1], "band_mass_increasing": increasing}
    for n, m in zip(ns, mass):
        metrics[f"band_mass_n{n}"] = m
        metrics[f"band_n{n}"] = detail[f"n{n}"]["band"]
    if not localized:
        # the scale (log n)/mu exists only for mu > 0
        metrics["mu_note"] = (f"mu_hat = {mu_hat:.4g} is not a positive "
                              "rate: no excursion band (delocalized?)")
    passed = increasing and mass[-1] > 0.9
    return CheckReport("C6", CHECK_DESCRIPTIONS["C6"],
                       {"h": ctx.h, "n_values": ns,
                        "band_eps": _BAND_EPS,
                        "samples": 1 if ctx.is_pure else _EXACT_SAMPLES},
                       metrics, {"mu_hat": mu_hat,
                                 "mu_hat_stderr": mu.slope_stderr},
                       {"mass_threshold": 0.9, "trend_sigma": 2.0}, passed,
                       extras={"band_mass": mass, "band_mass_stderr": errs,
                               "cdf": detail})


# ---------------------------------------------------------------------------
# C7: exponential decay of the two-replica and mixing series

def _check_c7(ctx: CheckContext) -> CheckReport:
    scan = mc.correlation_decay_scan(ctx.mc, ctx.h)
    metrics = {
        "gamma_hat": scan.gamma_hat, "gamma_stderr": scan.gamma_stderr,
        "fit_r2": scan.fit_r2, "floor_flag": scan.floor_flag,
        "mix_gamma": scan.mix_gamma, "mix_gamma_stderr": scan.mix_gamma_stderr,
        "mix_r2": scan.mix_r2, "mix_fit_range": list(scan.mix_fit_range),
    }
    fitted = {"gamma_hat": scan.gamma_hat, "gamma_hat_stderr": scan.gamma_stderr,
              "G_hat_log": scan.log_G_hat,
              "mix_gamma_hat": scan.mix_gamma,
              "mix_gamma_hat_stderr": scan.mix_gamma_stderr}
    clauses = [scan.gamma_hat > 3.0 * scan.gamma_stderr,
               scan.fit_r2 >= _R2_THRESHOLD]
    if math.isfinite(scan.mix_gamma):
        clauses.append(scan.mix_gamma > 0.0)
    else:
        metrics["mix_note"] = "mixing series at roundoff floor (no fit)"
    passed = all(bool(c) for c in clauses)
    return CheckReport("C7", CHECK_DESCRIPTIONS["C7"],
                       {"h": ctx.h, "window": ctx.mc.window,
                        "samples": ctx.mc.samples,
                        "fit_range": list(scan.fit_range)},
                       metrics, fitted,
                       {"gamma_sigma": 3.0, "r2_threshold": _R2_THRESHOLD},
                       passed,
                       extras={"log_mean_a": scan.log_mean_a.tolist(),
                               "mix_mean": scan.mix_mean.tolist()})


# ---------------------------------------------------------------------------
# C8: strict positivity of the thermal variance density

def _check_c8(ctx: CheckContext) -> CheckReport:
    cfg = replace(ctx.mc, samples=max(ctx.mc.samples, _CENTERING_SAMPLES))
    n = int(max(cfg.n_values))
    stats = mc.centering_statistics(cfg, ctx.h, n)
    passed = stats.v_hat > 3.0 * stats.v_stderr
    return CheckReport("C8", CHECK_DESCRIPTIONS["C8"],
                       {"h": ctx.h, "n": n, "samples": cfg.samples},
                       {"v_hat": stats.v_hat, "v_stderr": stats.v_stderr},
                       {"v_hat": stats.v_hat, "v_hat_stderr": stats.v_stderr},
                       {"v_sigma": 3.0}, passed)


# ---------------------------------------------------------------------------
# C9: per-site contact lower bound

def _check_c9(ctx: CheckContext) -> CheckReport:
    cfg = ctx.mc
    rng = np.random.default_rng(cfg.master_seed)
    xi = cfg.law.xi
    worst = math.inf
    violations = 0
    sites = 0
    for k in range(_C9_INSTANCES):
        n = int(rng.integers(4, 33))
        h = float(rng.uniform(-1.0, 3.5))
        block = sample_disorder_block(cfg.disorder, n, cfg.master_seed,
                                      1000 + k, 1)
        sys = QuenchedSystem(cfg.law, h, block[0], n)
        for a in range(1, n):
            p = sys.contact_probability(a)
            bound = 1.0 / (1.0 + xi * math.exp(-h - block[0][a - 1])
                           * min(a, n - a) ** xi)
            gap = p - bound
            worst = min(worst, gap)
            sites += 1
            if gap < -1e-12:
                violations += 1
    passed = violations == 0
    return CheckReport("C9", CHECK_DESCRIPTIONS["C9"],
                       {"instances": _C9_INSTANCES, "sites": sites, "xi": xi},
                       {"violations": violations, "worst_gap": worst},
                       {}, {"slack": 1e-12}, passed)


# ---------------------------------------------------------------------------
# C10: conditional independence across a contact (oracle route)

def _check_c10(ctx: CheckContext) -> CheckReport:
    cfg = ctx.mc
    rng = np.random.default_rng(cfg.master_seed + 1)
    worst = 0.0
    for k in range(_C10_INSTANCES):
        n = int(rng.integers(4, 9))
        h = float(rng.uniform(-1.0, 2.0))
        omega = rng.normal(0.0, 1.0, n)
        ps = build_path_set(cfg.law, h, omega, n)
        w = ps.normalized_weights()
        x = ps.contact_matrix()
        idx = np.arange(w.size)
        for a in range(1, n):
            xa = x[:, a].astype(float)
            pa = float(w @ xa)
            if pa <= 0.0:
                continue
            left = idx & ((1 << (a - 1)) - 1) if a > 1 else np.zeros_like(idx)
            right = idx >> a
            tab_f = rng.integers(0, 2, 1 << max(a - 1, 0)).astype(float)
            tab_g = rng.integers(0, 2, 1 << (n - 1 - a + 0)).astype(float) \
                if n - 1 - a >= 0 else np.ones(1)
            fv = tab_f[left]
            gv = tab_g[right]
            lhs = float(w @ (fv * gv * xa)) * pa
            rhs = float(w @ (fv * xa)) * float(w @ (gv * xa))
            worst = max(worst, abs(lhs - rhs) / pa ** 2)
            # monotone product indicators as a second functional family
            fm = np.ones(w.size)
            gm = np.ones(w.size)
            for s in range(1, a):
                if rng.random() < 0.5:
                    fm *= x[:, s]
            for s in range(a + 1, n):
                if rng.random() < 0.5:
                    gm *= x[:, s]
            lhs = float(w @ (fm * gm * xa)) * pa
            rhs = float(w @ (fm * xa)) * float(w @ (gm * xa))
            worst = max(worst, abs(lhs - rhs) / pa ** 2)
    passed = worst <= 1e-12
    return CheckReport("C10", CHECK_DESCRIPTIONS["C10"],
                       {"instances": _C10_INSTANCES, "n_max": 8},
                       {"max_residual": worst}, {},
                       {"residual": 1e-12}, passed)


# ---------------------------------------------------------------------------
# C11: scale of centering fluctuations across dyadic horizons

def _check_c11(ctx: CheckContext) -> CheckReport:
    cfg = ctx.mc
    n = ctx.hl_n_max
    if n > cfg.law.n_max:
        raise ValueError("hl_n_max exceeds the law horizon")
    path = mc.sample_kappa1_path(replace(cfg, samples=_HL_SEEDS), ctx.h, n)
    rho_hat = float(np.mean(path[:, n] / n))
    horizons = []
    m = n
    while m >= 64:
        horizons.append(m)
        m //= 2
    horizons = sorted(horizons)
    t = np.arange(2, n + 1)
    scale = np.sqrt(t * np.log(t))
    dev = np.abs(path[:, 2:] - rho_hat * t[None, :]) / scale[None, :]
    ratios = np.empty((path.shape[0], len(horizons)))
    for j, nn in enumerate(horizons):
        ratios[:, j] = dev[:, :nn - 1].max(axis=1)
    x = np.log(np.array(horizons, dtype=float))
    pooled_x = np.repeat(x, path.shape[0])
    pooled_y = ratios.T.reshape(-1)
    fit = mc.linear_fit(pooled_x, pooled_y)
    passed = fit["slope"] <= _two_sigma(fit["stderr"])
    metrics = {"slope": fit["slope"], "slope_stderr": fit["stderr"],
               "ratio_final_mean": float(ratios[:, -1].mean()),
               "ratio_final_max": float(ratios[:, -1].max())}
    return CheckReport("C11", CHECK_DESCRIPTIONS["C11"],
                       {"h": ctx.h, "n_max": n, "seeds": _HL_SEEDS,
                        "horizons": horizons},
                       metrics,
                       {"rho_hat": rho_hat, "rho_hat_stderr":
                        float(path[:, n].std(ddof=1) / n
                              / math.sqrt(path.shape[0]))},
                       {"trend_sigma": 2.0}, passed,
                       extras={"ratios": ratios.tolist()})


# ---------------------------------------------------------------------------
# C12: linear growth of centering cumulants 3 and 4

def _check_c12(ctx: CheckContext) -> CheckReport:
    if ctx.is_pure:
        return CheckReport("C12", CHECK_DESCRIPTIONS["C12"],
                           {"h": ctx.h}, {}, {}, {}, None,
                           skip_reason="pure model")
    cfg = replace(ctx.mc, samples=max(ctx.mc.samples, _CENTERING_SAMPLES))
    rows = {n: mc.centering_statistics(cfg, ctx.h, n) for n in cfg.n_values}
    metrics = {}
    clauses = []
    for r in (3, 4):
        vals = np.array([getattr(rows[n], f"kappa{r}_per_n")
                         for n in cfg.n_values])
        errs = np.array([getattr(rows[n], f"kappa{r}_stderr")
                         for n in cfg.n_values])
        spread = float(vals.max() - vals.min())
        tol = _two_sigma(float(np.sqrt((errs ** 2).sum())))
        ok = spread <= tol
        clauses.append(ok)
        metrics[f"kappa{r}_per_n_values"] = vals.tolist()
        metrics[f"kappa{r}_per_n_spread"] = spread
        metrics[f"kappa{r}_per_n_tol"] = tol
        metrics[f"kappa{r}_linear_ok"] = bool(ok)
    return CheckReport("C12", CHECK_DESCRIPTIONS["C12"],
                       {"h": ctx.h, "n_values": cfg.n_values,
                        "samples": cfg.samples},
                       metrics, {},
                       {"scale_sigma": 2.0}, all(bool(c) for c in clauses))


# ---------------------------------------------------------------------------
# C13: decay of the thinned-contact probability

def _check_c13(ctx: CheckContext) -> CheckReport:
    """rho_hat comes from kappa_1, column 1 of order-2 cumulant rows, so
    that inside a run memo the blocks C4's centering statistics computed
    at the same (h, n) are reused."""
    cfg = ctx.mc
    count = min(cfg.samples, 64)
    ns = [n for n in cfg.n_values if n <= 512]
    # past n = 512 the count DP's head underflows to exact zeros
    dropped = [n for n in cfg.n_values if n > 512]
    if len(ns) < 3:
        ns = sorted(set(ns) | {m for m in (64, 128, 256)
                               if m <= cfg.law.n_max})
    if len(ns) < 3:
        return CheckReport("C13", CHECK_DESCRIPTIONS["C13"],
                           {"h": ctx.h, "n_values": ns,
                            "n_values_dropped": dropped}, {}, {}, {}, None,
                           skip_reason=f"fewer than 3 sizes up to the law's "
                                       f"horizon {cfg.law.n_max}")
    rho_probe = mc.sample_cumulants(cfg, ctx.h, max(ns), 2)
    rho_hat = float(np.mean(rho_probe[:, 1] / max(ns)))
    delta = _DELTA_FRAC * rho_hat
    log_mean = []
    for n in ns:
        vals = np.full(count, -np.inf)  # per-sample log P[L_n < delta n]
        for i, sys in enumerate(mc._block_systems(cfg, ctx.h, n, count)):
            law = sys.contact_law()
            cut = min(int(math.ceil(delta * n)), law.log_pmf.size)
            head = law.log_pmf[:cut]
            m = float(np.max(head, initial=-np.inf))
            if m > -np.inf:
                vals[i] = m + math.log(float(np.sum(np.exp(head - m))))
        log_mean.append(log_mean_exp(vals))
    usable = [i for i, v in enumerate(log_mean) if math.isfinite(v)]
    if len(usable) >= 3:
        fit = mc.linear_fit(np.array(ns)[usable],
                            np.array(log_mean)[usable])
        rate, rate_err = -fit["slope"], fit["stderr"]
    else:
        rate, rate_err = math.nan, math.nan
    passed = bool(rate > _two_sigma(rate_err)) if math.isfinite(rate) \
        else False
    metrics = {"rate": rate, "rate_stderr": rate_err, "delta": delta,
               "rho_hat": rho_hat}
    for n, v in zip(ns, log_mean):
        metrics[f"log_mean_prob_n{n}"] = v
    return CheckReport("C13", CHECK_DESCRIPTIONS["C13"],
                       {"h": ctx.h, "n_values": ns, "samples": count,
                        "delta_frac": _DELTA_FRAC,
                        "n_values_dropped": dropped},
                       metrics,
                       {"rate_hat": rate, "rate_hat_stderr": rate_err},
                       {"rate_sigma": 2.0}, passed)


_CHECKS = {
    "C1": _check_c1, "C2": _check_c2, "C3": _check_c3, "C4": _check_c4,
    "C5": _check_c5, "C6": _check_c6, "C7": _check_c7, "C8": _check_c8,
    "C9": _check_c9, "C10": _check_c10, "C11": _check_c11, "C12": _check_c12,
    "C13": _check_c13,
}


def run_check(check_id: str, ctx: CheckContext) -> CheckReport:
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}")
    return _CHECKS[check_id](ctx)


def full_report(ctx: CheckContext, checks=None) -> list[CheckReport]:
    """Run the selected checks (default: all) in catalog order."""
    selected = list(checks) if checks is not None else list(CHECK_IDS)
    bad = [c for c in selected if c not in _CHECKS]
    if bad:
        raise ValueError(f"unknown checks: {bad}")
    return [run_check(c, ctx) for c in CHECK_IDS if c in selected]
