"""Monte Carlo over disorder realizations.

Every estimator draws S independent charge vectors from counter-derived
streams (master_seed, sample_index), runs the exact DP per sample, and
reduces in sample-index order.  Sample evaluation is chunked into
fixed-size blocks of 64; worker threads only pick up whole blocks, so
results are byte-identical for any thread count.

Per-sample log Z runs the quenched module's forward engine ``_forward``
on a whole block of samples, one row each; the jet kernel is its batched
Taylor-jet form.  Rows are computed with row-local array ops, so a
sample's values do not depend on which block it lands in.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .model import DisorderLaw, InterArrivalLaw, sample_disorder_block
from .quenched import QuenchedSystem, _forward

QUANTITIES = ("f", "mu", "rho", "v", "w", "centering_mean", "ks_centering",
              "ks_quenched", "decay_gamma", "decay_G", "conc_kappa",
              "log_z", "log_z_minus", "kappa1", "kappa2", "kappa3", "kappa4")

_CHUNK = 64  # fixed block size; never derived from the thread count

_NUMERIC_FLOOR = 1e-300


@dataclass(frozen=True)
class McConfig:
    law: InterArrivalLaw
    disorder: DisorderLaw
    h_values: tuple
    n_values: tuple
    samples: int
    master_seed: int
    jet_order: int = 8
    window: int = 96
    threads: int = 1

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples >= 2 required")
        for name in ("h_values", "n_values"):
            g = tuple(getattr(self, name))
            object.__setattr__(self, name, g)
            if not all(map(math.isfinite, g)):
                raise ValueError(f"{name} must be finite, got {g}")
            if not g or list(g) != sorted(g):
                raise ValueError(f"{name} must be nonempty and sorted")
        if max(self.n_values) > self.law.n_max:
            raise ValueError("n grid exceeds the law's tabulation horizon")


@dataclass(frozen=True)
class EstimateSeries:
    quantity: str
    h: float
    n: int
    mean: float
    stderr: float
    samples: int

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if not (self.stderr >= 0.0 or math.isnan(self.stderr)):
            raise ValueError("stderr must be >= 0")


def _run_chunked(count: int, threads: int, job) -> None:
    """job(lo, hi) fills a preallocated slice for samples [lo, hi)."""
    blocks = [(lo, min(lo + _CHUNK, count)) for lo in range(0, count, _CHUNK)]
    if threads <= 1:
        for lo, hi in blocks:
            job(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: job(*b), blocks))


# ---------------------------------------------------------------------------
# batched kernels

def _block_jet(law, h, omega_block, order):
    """Batched jet propagation; returns (kappa, kappa1_path) where kappa
    has columns 0..order (kappa[:,k] = d^k log Z/dh^k, column 0 = log Z)
    and kappa1_path[:, k] = kappa_1 for the size-k prefix system."""
    b = h + omega_block
    bsz, n = omega_block.shape
    logp = law.log_p
    boltz = 1.0 / np.array([math.factorial(i) for i in range(order + 1)])
    sc = np.empty((bsz, n + 1))
    coef = np.zeros((bsz, n + 1, order + 1))
    sc[:, 0] = 0.0
    coef[:, 0, 0] = 1.0
    acc = np.empty((bsz, order + 1))
    for k in range(1, n + 1):
        w = sc[:, 0:k] + logp[k:0:-1][None, :]
        m = np.max(w, axis=1)
        u = np.exp(w - m[:, None])
        for c in range(order + 1):
            acc[:, c] = np.sum(u * coef[:, 0:k, c], axis=1)
        conv = np.empty_like(acc)
        for c in range(order + 1):
            conv[:, c] = acc[:, 0:c + 1] @ boltz[c::-1]
        sc[:, k] = m + np.log(conv[:, 0]) + b[:, k - 1]
        coef[:, k] = conv / conv[:, 0:1]
    # log-of-jet recursion, vectorized over samples
    f = coef[:, n, :]
    g = np.zeros((bsz, order + 1))
    g[:, 0] = sc[:, n]
    for k in range(1, order + 1):
        s = np.zeros(bsz)
        for i in range(1, k):
            s += i * g[:, i] * f[:, k - i]
        g[:, k] = f[:, k] - s / k
    kappa = g * np.array([math.factorial(k) for k in range(order + 1)])
    kappa[:, 0] = sc[:, n]
    # first log-jet coefficient of each prefix is its kappa_1
    return kappa, coef[:, :, 1] if order >= 1 else np.zeros((bsz, n + 1))


def _sampled(cfg: McConfig, h: float, n: int, kernel, width: int):
    """Run a per-block kernel over all samples; kernel(block) -> (bsz, width)
    rows; returns the (S, width) stacked result in index order."""
    out = np.empty((cfg.samples, width))

    def job(lo, hi):
        block = sample_disorder_block(cfg.disorder, n, cfg.master_seed, lo, hi - lo)
        out[lo:hi] = kernel(block)

    _run_chunked(cfg.samples, cfg.threads, job)
    return out


def sample_log_z(cfg: McConfig, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (log Z, log Z^-), in sample-index order."""
    def kernel(block):
        b = h + block
        z = _forward(cfg.law.log_p, b)[:, -1]
        return np.stack([z, z - b[:, -1]], axis=1)

    res = _sampled(cfg, h, n, kernel, 2)
    return res[:, 0], res[:, 1]


def sample_cumulants(cfg: McConfig, h: float, n: int, r_max: int) -> np.ndarray:
    """Per-sample (log Z, kappa_1..kappa_r_max) as columns 0..r_max."""
    def kernel(block):
        kappa, _ = _block_jet(cfg.law, h, block, r_max)
        return kappa

    return _sampled(cfg, h, n, kernel, r_max + 1)


def sample_kappa1_path(cfg: McConfig, h: float, n: int) -> np.ndarray:
    """Per-sample trajectory kappa_1(omega, k) for k = 0..n."""
    def kernel(block):
        _, path = _block_jet(cfg.law, h, block, 1)
        return path

    return _sampled(cfg, h, n, kernel, n + 1)


# ---------------------------------------------------------------------------
# small statistics helpers

def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(x))
    if x.size < 2:
        return m, 0.0
    return m, float(np.std(x, ddof=1) / math.sqrt(x.size))


def _variance_stderr(x: np.ndarray) -> float:
    """Standard error of the sample variance (normal-free formula)."""
    s = x.size
    if s < 4:
        return math.inf
    m2 = float(np.var(x, ddof=1))
    d = x - x.mean()
    m4 = float(np.mean(d ** 4))
    var_s2 = (m4 - (s - 3) / (s - 1) * m2 ** 2) / s
    return math.sqrt(max(var_s2, 0.0))


def linear_fit(x, y) -> dict:
    """OLS y ~ a + b x; returns slope, intercept, slope stderr, r2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate fit grid")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - intercept - slope * x
    ssr = float(np.sum(resid ** 2))
    syy = float(np.sum((y - ym) ** 2))
    stderr = math.inf if m <= 2 else math.sqrt(ssr / (m - 2) / sxx)
    r2 = 1.0 if syy == 0.0 else 1.0 - ssr / syy
    return {"slope": slope, "intercept": intercept, "stderr": stderr, "r2": r2}


def wilson_upper(count: int, total: int, z: float = 1.96) -> float:
    """Wilson score upper confidence bound for a binomial frequency."""
    if total == 0:
        return 1.0
    p = count / total
    z2 = z * z
    center = p + z2 / (2 * total)
    half = z * math.sqrt(p * (1 - p) / total + z2 / (4 * total * total))
    return min(1.0, (center + half) / (1 + z2 / total))


def ks_to_normal(x: np.ndarray) -> float:
    """Exact Kolmogorov statistic of the standardized sample against the
    standard normal CDF."""
    s = np.sort(np.asarray(x, dtype=float))
    sd = s.std(ddof=1)
    if sd == 0.0:
        raise ValueError("degenerate sample (zero variance)")
    z = (s - s.mean()) / sd
    cdf = special.ndtr(z)
    i = np.arange(1, s.size + 1)
    d_plus = np.max(i / s.size - cdf)
    d_minus = np.max(cdf - (i - 1) / s.size)
    return float(max(d_plus, d_minus))


# ---------------------------------------------------------------------------
# estimators

@dataclass(frozen=True)
class FResult:
    series: EstimateSeries
    annealed: float
    per_sample: np.ndarray = field(repr=False)
    per_sample_minus: np.ndarray = field(repr=False)

    @property
    def f_minus_mean(self) -> float:
        return float(np.mean(self.per_sample_minus))


def estimate_f(cfg: McConfig, h: float, n: int) -> FResult:
    """Quenched free-energy estimate (1/n) log Z averaged over disorder,
    with the annealed value (1/n) log mean(Z); quenched <= annealed is an
    exact per-run inequality, and a violation raises RuntimeError."""
    log_z, log_zm = sample_log_z(cfg, h, n)
    vals = log_z / n
    mean, stderr = _mean_stderr(vals)
    m = float(np.max(log_z))
    annealed = (m + math.log(float(np.mean(np.exp(log_z - m))))) / n
    if not mean <= annealed + 1e-12:
        raise RuntimeError(f"Jensen inequality violated: quenched {mean!r} "
                           f"> annealed {annealed!r}")
    series = EstimateSeries("f", h, n, mean, stderr, cfg.samples)
    return FResult(series, annealed, vals, log_zm / n)


@dataclass(frozen=True)
class MuResult:
    series: EstimateSeries
    n_values: tuple
    mu_n: np.ndarray            # -(1/n) log mean(1/Z^-)
    f_minus_n: np.ndarray       # mean (1/n) log Z^-
    f_minus_stderr: np.ndarray
    slope: float
    slope_stderr: float
    variant_slope: float        # first-excursion route (same limit object)
    variant_stderr: float


def estimate_mu(cfg: McConfig, h: float) -> MuResult:
    """mu estimator: slope of -log mean(1/Z^-) across the n grid.

    The per-n value -(1/n) log mean(1/Z^-) is Jensen-dominated by the
    sample mean of (1/n) log Z^- exactly, per run.  The variant estimator
    fits log mean(p(n)/Z^-) (the probability that the first return is n),
    whose slope targets the same constant."""
    if len(cfg.n_values) < 3:
        raise ValueError("mu estimation needs at least 3 n values")
    ns = np.array(cfg.n_values, dtype=float)
    y = np.empty(ns.size)
    y2 = np.empty(ns.size)
    mu_n = np.empty(ns.size)
    f_minus = np.empty(ns.size)
    f_err = np.empty(ns.size)
    for i, n in enumerate(cfg.n_values):
        _, log_zm = sample_log_z(cfg, h, n)
        neg = -log_zm
        m = float(np.max(neg))
        log_mean_inv = m + math.log(float(np.mean(np.exp(neg - m))))
        y[i] = -log_mean_inv
        y2[i] = float(cfg.law.log_p[n]) + log_mean_inv
        mu_n[i] = y[i] / n
        f_minus[i], f_err[i] = _mean_stderr(log_zm / n)
    fit = linear_fit(ns, y)
    fit2 = linear_fit(ns, -y2)
    series = EstimateSeries("mu", h, int(max(cfg.n_values)), fit["slope"],
                            fit["stderr"], cfg.samples)
    return MuResult(series, cfg.n_values, mu_n, f_minus, f_err,
                    fit["slope"], fit["stderr"], fit2["slope"], fit2["stderr"])


@dataclass(frozen=True)
class CenteringResult:
    h: float
    n: int
    samples: int
    mean: float
    mean_stderr: float
    w_hat: float                # sample variance of kappa_1, / n
    w_stderr: float
    v_hat: float                # mean thermal variance kappa_2 / n
    v_stderr: float
    ks: float | None            # None when degenerate or S < 100
    degenerate: bool
    kappa3_per_n: float
    kappa3_stderr: float
    kappa4_per_n: float
    kappa4_stderr: float
    kappa1_samples: np.ndarray = field(repr=False)

    def series(self) -> list[EstimateSeries]:
        out = [
            EstimateSeries("centering_mean", self.h, self.n, self.mean,
                           self.mean_stderr, self.samples),
            EstimateSeries("w", self.h, self.n, self.w_hat, self.w_stderr,
                           self.samples),
            EstimateSeries("v", self.h, self.n, self.v_hat, self.v_stderr,
                           self.samples),
        ]
        if self.ks is not None:
            out.append(EstimateSeries("ks_centering", self.h, self.n,
                                      self.ks, float("nan"), self.samples))
        return out


def _blocked_stderr(values: np.ndarray, stat, n_blocks: int = 20) -> float:
    """Stderr of stat(values) from fixed equal blocks in index order."""
    if values.size < 2 * n_blocks:
        return math.inf
    cut = (values.size // n_blocks) * n_blocks
    blocks = values[:cut].reshape(n_blocks, -1)
    per = np.array([stat(b) for b in blocks])
    return float(per.std(ddof=1) / math.sqrt(n_blocks))


def centering_statistics(cfg: McConfig, h: float, n: int) -> CenteringResult:
    """Disorder statistics of the centering kappa_1(omega) = E_{n,h,omega}[L_n]."""
    kappa = sample_cumulants(cfg, h, n, 2)
    k1 = kappa[:, 1]
    mean, mean_stderr = _mean_stderr(k1)
    var = float(np.var(k1, ddof=1))
    w_hat = var / n
    w_stderr = _variance_stderr(k1) / n
    v_hat, v_stderr = _mean_stderr(kappa[:, 2] / n)
    degenerate = var == 0.0
    ks = None
    if not degenerate and cfg.samples >= 100:
        ks = ks_to_normal(k1)
    d = k1 - k1.mean()
    m2 = float(np.mean(d ** 2))
    k3 = float(np.mean(d ** 3))
    k4 = float(np.mean(d ** 4)) - 3.0 * m2 ** 2

    def _k3(b):
        return float(np.mean((b - b.mean()) ** 3))

    def _k4(b):
        bb = b - b.mean()
        return float(np.mean(bb ** 4) - 3.0 * np.mean(bb ** 2) ** 2)

    return CenteringResult(
        h, n, cfg.samples, mean, mean_stderr, w_hat, w_stderr,
        v_hat, v_stderr, ks, degenerate,
        k3 / n, _blocked_stderr(k1, _k3) / n,
        k4 / n, _blocked_stderr(k1, _k4) / n,
        k1,
    )


@dataclass(frozen=True)
class DecayResult:
    h: float
    n: int
    window: int
    samples: int
    offsets: tuple
    j_values: np.ndarray
    log_mean_a: np.ndarray
    rel_stderr_a: np.ndarray
    fit_range: tuple
    gamma_hat: float
    gamma_stderr: float
    log_G_hat: float
    fit_r2: float
    floor_flag: bool
    mix_gaps: np.ndarray
    mix_mean: np.ndarray
    mix_fit_range: tuple
    mix_gamma: float
    mix_gamma_stderr: float
    mix_r2: float

    @property
    def mean_a(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_mean_a)

    def series(self) -> list[EstimateSeries]:
        return [
            EstimateSeries("decay_gamma", self.h, self.n, self.gamma_hat,
                           self.gamma_stderr, self.samples),
            EstimateSeries("decay_G", self.h, self.n, self.log_G_hat,
                           float("nan"), self.samples),
        ]


# |cov| is a difference of exponentials of O(log Z) exponents, so its
# roundoff floor scales with eps * |log Z|; fit points under the floor are
# dropped (the avoidance series has no such floor, being a pure sum).
_MIX_FLOOR_EPS = 32.0 * np.finfo(float).eps


def correlation_decay_scan(cfg: McConfig, h: float,
                           fit_range: tuple = (8, 64),
                           n_offsets: int = 8) -> DecayResult:
    """Two-replica avoidance a_j averaged over samples and shifted window
    offsets (log-domain pair DP, so deep decay keeps relative precision),
    with a log-linear decay fit, plus the covariance mixing proxy
    |cov[X_a, X_b]| / min(E[X_a], E[X_b]) by gap."""
    window = cfg.window
    if window < 16:
        raise ValueError("decay scan needs window >= 16")
    n = int(max(cfg.n_values))
    if n < window:
        raise ValueError("n grid too small for the window")
    offsets = tuple(int(o) for o in
                    np.unique(np.linspace(0, n - window, n_offsets).round()))
    gaps = np.arange(1, window + 1)
    log_prof = np.empty((cfg.samples, len(offsets), window + 1))
    mix_vals = np.empty((cfg.samples, gaps.size))
    log_z_abs = np.empty(cfg.samples)

    def job(lo, hi):
        block = sample_disorder_block(cfg.disorder, n, cfg.master_seed, lo, hi - lo)
        for i in range(hi - lo):
            sys = QuenchedSystem(cfg.law, h, block[i], n, jet_order=cfg.jet_order)
            for oi, o in enumerate(offsets):
                log_prof[lo + i, oi] = sys.two_replica_avoidance_log(window, o)
            pre = sys.prefix_logZ
            suf = sys.suffix_logZ()
            seg = sys.segment_partitions(window).table
            probs = np.exp(np.minimum(pre + suf - pre[n], 0.0))
            log_z_abs[lo + i] = abs(pre[n])
            for gi, g in enumerate(gaps):
                a = np.arange(1, n - g)
                ex_ab = np.exp(pre[a] + seg[a, g] + suf[a + g] - pre[n])
                cov = ex_ab - probs[a] * probs[a + g]
                ratio = np.abs(cov) / np.minimum(probs[a], probs[a + g])
                mix_vals[lo + i, gi] = ratio.mean()

    _run_chunked(cfg.samples, cfg.threads, job)

    # pooled mean over samples x offsets, entirely in the log domain
    pooled = log_prof.reshape(-1, window + 1)
    m = np.max(pooled[:, 1:], axis=0)
    log_mean = np.full(window + 1, np.nan)
    log_mean[1:] = m + np.log(np.mean(np.exp(pooled[:, 1:] - m), axis=0))
    scaled = np.exp(pooled[:, 1:] - m)
    rel_err = np.full(window + 1, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_err[1:] = (scaled.std(axis=0, ddof=1)
                       / np.maximum(scaled.mean(axis=0), 1e-300)
                       / math.sqrt(pooled.shape[0]))

    j_lo, j_hi = fit_range
    j_hi = min(j_hi, window)
    sel = np.arange(j_lo, j_hi + 1)
    usable = log_mean[sel] > math.log(_NUMERIC_FLOOR)
    floor_flag = not bool(usable.all())
    if usable.sum() >= 3:
        fit = linear_fit(sel[usable], log_mean[sel][usable])
        gamma_hat, gamma_err = -fit["slope"], fit["stderr"]
        log_g, r2 = fit["intercept"], fit["r2"]
    else:
        gamma_hat = gamma_err = log_g = r2 = float("nan")
        floor_flag = True

    mix_mean = mix_vals.mean(axis=0)
    mix_floor = _MIX_FLOOR_EPS * max(1.0, float(log_z_abs.mean()))
    clean = np.flatnonzero(mix_mean < mix_floor)
    if clean.size == 0:
        g_hi = int(gaps[-1])
    elif clean[0] == 0:
        g_hi = 0
    else:
        g_hi = int(gaps[clean[0] - 1])
    mix_sel = (gaps >= 2) & (gaps <= g_hi)
    if mix_sel.sum() >= 3:
        mg = gaps[mix_sel]
        mfit = linear_fit(mg, np.log(mix_mean[mix_sel]))
        mix_range = (int(mg.min()), int(mg.max()))
        mix_gamma, mix_err, mix_r2 = -mfit["slope"], mfit["stderr"], mfit["r2"]
    else:
        mix_range = (0, 0)
        mix_gamma = mix_err = mix_r2 = float("nan")

    return DecayResult(h, n, window, cfg.samples, offsets,
                       np.arange(window + 1), log_mean, rel_err,
                       (j_lo, j_hi), gamma_hat, gamma_err, log_g, r2,
                       floor_flag, gaps, mix_mean, mix_range,
                       mix_gamma, mix_err, mix_r2)


@dataclass(frozen=True)
class ConcentrationResult:
    h: float
    n: int
    samples: int
    u_values: np.ndarray
    freq_f: np.ndarray          # exceedance frequencies of |log Z - mean|
    freq_c: np.ndarray          # ... of |kappa_1 - mean|
    wilson_f: np.ndarray
    wilson_c: np.ndarray
    kappa_f: float              # largest kappa with 2 exp(-k u^2/(n+u)) dominating
    kappa_c: float              # ... with exponent u^2/(n+u^(5/3))

    def series(self) -> list[EstimateSeries]:
        return [EstimateSeries("conc_kappa", self.h, self.n,
                               self.kappa_f, float("nan"), self.samples)]


def _kappa_fit(u: np.ndarray, counts: np.ndarray, total: int, n: int,
               exponent: float) -> tuple[float, np.ndarray]:
    """Largest kappa with 2 exp(-kappa u^2/(n+u^e)) >= Wilson-upper(freq)
    at every u > 0 with a nonzero count; zero-count points are consistent
    with any kappa."""
    uppers = np.array([wilson_upper(int(c), total) for c in counts])
    best = math.inf
    for ui, ci, pi in zip(u, counts, uppers):
        if ui <= 0.0 or ci == 0:
            continue
        best = min(best, (n + ui ** exponent) / ui ** 2 * math.log(2.0 / pi))
    return best, uppers


def concentration_scan(cfg: McConfig, h: float, n: int, u_grid) -> ConcentrationResult:
    """Empirical two-sided tails of log Z and of the centering kappa_1
    around their sample means, with the dominating-kappa fit per variable."""
    if cfg.samples < 500:
        raise ValueError("concentration scan needs samples >= 500")
    u = np.asarray(u_grid, dtype=float)
    kappa = sample_cumulants(cfg, h, n, 1)
    log_z = kappa[:, 0]
    k1 = kappa[:, 1]
    dev_f = np.abs(log_z - log_z.mean())
    dev_c = np.abs(k1 - k1.mean())
    counts_f = np.array([(dev_f > ui).sum() for ui in u])
    counts_c = np.array([(dev_c > ui).sum() for ui in u])
    kf, wf = _kappa_fit(u, counts_f, cfg.samples, n, 1.0)
    kc, wc = _kappa_fit(u, counts_c, cfg.samples, n, 5.0 / 3.0)
    return ConcentrationResult(h, n, cfg.samples, u,
                               counts_f / cfg.samples, counts_c / cfg.samples,
                               wf, wc, kf, kc)


def hc_bracket(cfg: McConfig, tol: float = 0.02) -> tuple[float, float]:
    """Bisection bracket for the empirical localization transition: the
    test is f-hat(h) > 3 stderr at the largest n."""
    n = int(max(cfg.n_values))

    def test(h: float) -> bool:
        r = estimate_f(cfg, h, n)
        return r.series.mean > 3.0 * r.series.stderr

    grid = list(cfg.h_values)
    flags = [test(h) for h in grid]
    lo = hi = None
    for (h0, t0), (h1, t1) in zip(zip(grid, flags), zip(grid[1:], flags[1:])):
        if not t0 and t1:
            lo, hi = h0, h1
            break
    if lo is None:
        raise ValueError("no sign change of the significance test on the h grid")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if test(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi
