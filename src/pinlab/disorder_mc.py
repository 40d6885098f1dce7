"""Monte Carlo over disorder realizations.

Every estimator draws S independent charge vectors from counter-derived
streams (master_seed, sample_index), runs the exact DP per sample, and
reduces in sample-index order.  Samples are drawn and evaluated in fixed
blocks of 64, one after the other in index order on the calling thread (a
worker pool measured no faster).  Callers that need a whole system per
sample (its contact law, excursion CDF or two-replica avoidance) take
them from ``_block_systems``: one ``QuenchedBlock`` per block of samples,
whose row views (one ``QuenchedSystem`` per sample) share the block's
prefix, suffix, pair-DP and contact-law tables.  No block keeps
segment tables: ``correlation_decay_scan`` runs them _SEGMENT_ROWS rows
at a time and reduces each chunk to its rows' mixing ratios.

Per-sample log Z and cumulants read the quenched module's centred moment
rows (``_forward`` at an order R >= 1), run on a whole block of samples,
one row each, and centred at the law's ``contact_density(h)``: log Z is
kappa_0 of the rows (their Y_0), log Z^- sheds the last contact's weight
from it, and the cumulants follow by the row-wise log-series recursion
of ``numerics``.
log Z and the cumulants of order r <= 2 read one order-2 pass; higher
orders run their own.  kappa_1 paths run the same engine at order 1 with
every column kept.  Every pass has one centre for its block, so every
block runs fused, one 2-D product per step padded to the BLAS row tile,
and a sample's values depend only on its charges, h and the law, not on
its block's size (one sample included) or its other samples (the
locality contract of ``quenched._forward``).

Inside ``quenched.run_memo()`` (the CLI opens one around each command)
the rows of every block are kept (``quenched._memoised``), keyed by what
the kernel consumes: the kernel, the law, h, the output width (so
moments of one order never serve another), the columns kept and the
stream the block is drawn from, (disorder law, master seed, first
index, count, n of the draw).  ``model.sample_disorder_block`` draws a
block from these alone, so the key names its charges without hashing
them.  A moment kernel called at an n of ``cfg.n_values`` draws its
block at the grid's largest n and runs one pass that keeps every grid
column, so the one entry of a (h, block) serves every n of the grid: a
shorter draw is a prefix of a longer one, and a column does not depend
on how far the pass runs past it.  A pass at the top that needs the law
tilt, a call off the grid and a call outside a memo run at their own n.
Blocks are still drawn on every call, so every public call keeps its
count of draws, and a later call on the same stream (estimate_mu after
estimate_f, the centering statistics of ``scan`` after both, C8 and C12
after C4) reads the rows.  ``concentration_scan`` and C13 need only log
Z and kappa_1, and read them from the same order-2 rows.  The blocks of
``_block_systems`` keep their exact contact laws in the same memo
themselves, under a digest of their charges
(``QuenchedBlock.contact_laws``), so C13's laws at C3's n are C3's;
their laws at a budget, the KS distances', stay on the block.
Outside a scope every kernel computes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .model import DisorderLaw, InterArrivalLaw, sample_disorder_block
from .numerics import _log_series, log_mean_exp, normal_cdf
from .quenched import (_MEMO, QuenchedBlock, _checked, _forward, _memoised,
                       _pass_columns, _segment_tables)

QUANTITIES = ("f", "mu", "rho", "v", "w", "centering_mean", "ks_centering",
              "ks_quenched", "decay_gamma", "decay_G", "conc_kappa",
              "log_z", "log_z_minus", "kappa1", "kappa2", "kappa3", "kappa4")

_CHUNK = 64  # fixed block size: a block's rows are its memo entry

_DECAY_OFFSETS = 8  # window offsets pooled by correlation_decay_scan
# rows per segment-table pass of correlation_decay_scan: 0.5 MB of tables
# at C7's (n, window) = (256, 64), where a block's would be 8.5 MB
_SEGMENT_ROWS = 4

_NUMERIC_FLOOR = 1e-300

_MU_SIZES = 3  # least number of n values estimate_mu fits a slope to


@dataclass(frozen=True)
class McConfig:
    law: InterArrivalLaw
    disorder: DisorderLaw
    h_values: tuple
    n_values: tuple
    samples: int
    master_seed: int
    window: int = 96

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
        if not all(isinstance(n, numbers.Integral) and n >= 1
                   for n in self.n_values):
            raise ValueError(f"n_values must be positive integers, "
                             f"got {self.n_values}")
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


def _blocks(cfg: McConfig, h: float, n: int, count: int):
    """One QuenchedBlock per _CHUNK samples of 0..count-1, in index order."""
    for lo in range(0, count, _CHUNK):
        charges = sample_disorder_block(cfg.disorder, n, cfg.master_seed, lo,
                                        min(_CHUNK, count - lo))
        yield QuenchedBlock(cfg.law, h, charges, n)


def _block_systems(cfg: McConfig, h: float, n: int, count: int):
    """QuenchedSystems of samples 0..count-1, in index order: the row views
    of the _blocks, so the rows of a block share its prefix, suffix,
    avoidance and contact-law tables."""
    for block in _blocks(cfg, h, n, count):
        yield from block.systems()


def _sampled(cfg: McConfig, h: float, n: int, kernel, width: int,
             order: int = 0):
    """Run a per-block kernel over all samples and return the (S, width)
    rows at n, in index order: kernel(block, at) -> (bsz, len(at), width)
    gives the rows of the block's chains at the lengths in at.  h and n
    are checked as a QuenchedBlock checks them.

    A kernel of order R >= 1 is one _forward pass at that order.  Inside
    a run memo, a call at an n of cfg.n_values that the pass at the
    grid's top n serves (``quenched._pass_columns``: every grid n when
    that pass is untilted) draws its block at the top and passes at =
    those columns, so the entry keeps them and later calls at any of
    them read theirs.  A column holds the bits of a pass at its own n:
    the pass is row-local, it does not depend on how far it runs past a
    column, and a shorter draw is a prefix of a longer one.  Every other
    call, and every call outside a memo, runs at its own n.  The entry is
    keyed by the block's stream, not its charges: the block is drawn on
    every call, but not hashed."""
    n = _checked(cfg.law, h, n)
    at = [n]
    if order and n in cfg.n_values and _MEMO.get() is not None:
        at = _pass_columns(cfg.law.log_p, cfg.n_values, order)
        at = at if n in at else [n]
    top, j = at[-1], at.index(n)
    out = np.empty((cfg.samples, width))
    for lo in range(0, cfg.samples, _CHUNK):
        hi = min(lo + _CHUNK, cfg.samples)
        block = sample_disorder_block(cfg.disorder, top, cfg.master_seed, lo,
                                      hi - lo)
        # the block's stream: everything its charges are drawn from
        stream = (cfg.disorder, cfg.master_seed, lo, hi - lo, top)
        rows = _memoised(cfg.law, (kernel.__qualname__, float(h), width,
                                   tuple(at), stream),
                         partial(kernel, block, at))
        out[lo:hi] = rows[:, j]
    return out


def _moment_rows(cfg: McConfig, h: float, n: int, order: int) -> np.ndarray:
    """Per-sample (log Z, log Z^-, E[(L_n - c n)^m] / m! for m = 0..order)
    as columns 0..order+2, from the order-`order` moment pass centred at c
    = the law's ``contact_density(h)``: log Z is its kappa_0, and log Z^-
    strips the last contact's weight h + omega_n from it."""
    def kernel(block, at):
        b = h + block
        sc, coef = _forward(cfg.law.log_p, b, order,
                            cfg.law.contact_density(h), at)
        last = sc - b[:, np.asarray(at) - 1]
        return np.concatenate((sc[:, :, None], last[:, :, None], coef), axis=2)

    return _sampled(cfg, h, n, kernel, order + 3, order)


def sample_log_z(cfg: McConfig, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (log Z, log Z^-), in sample-index order: columns 0..1 of
    the order-2 moment rows, so inside a run memo they are the rows of
    ``sample_cumulants`` at r_max <= 2 on the same charges."""
    rows = _moment_rows(cfg, h, n, 2)
    return rows[:, 0], rows[:, 1]


def sample_cumulants(cfg: McConfig, h: float, n: int, r_max: int) -> np.ndarray:
    """Per-sample (log Z, kappa_1..kappa_r_max) as columns 0..r_max, from
    the moment pass at order max(r_max, 2) by the log-series recursion."""
    fact = np.array([math.factorial(k) for k in range(r_max + 1)], dtype=float)
    rows = _moment_rows(cfg, h, n, max(r_max, 2))
    kappa = _log_series(rows[:, 2:])[:, :r_max + 1] * fact
    kappa[:, 0] = rows[:, 0]
    if r_max:
        kappa[:, 1] += cfg.law.contact_density(h) * n
    return kappa


def sample_kappa1_path(cfg: McConfig, h: float, n: int) -> np.ndarray:
    """Per-sample trajectory kappa_1(omega, k) for k = 0..n."""
    def kernel(block, at):
        # the first centred moment of each prefix, plus the centre c k
        c = cfg.law.contact_density(h)
        _, coef = _forward(cfg.law.log_p, h + block, 1, c)
        return (coef[:, :, 1] + c * np.arange(n + 1))[:, None]

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
    cdf = normal_cdf(z)
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


def estimate_f(cfg: McConfig, h: float, n: int) -> FResult:
    """Quenched free-energy estimate (1/n) log Z averaged over disorder,
    with the annealed value (1/n) log mean(Z); quenched <= annealed is an
    exact per-run inequality, and a violation raises RuntimeError."""
    log_z, _ = sample_log_z(cfg, h, n)
    vals = log_z / n
    mean, stderr = _mean_stderr(vals)
    annealed = log_mean_exp(log_z) / n
    if not mean <= annealed + 1e-12:
        raise RuntimeError(f"Jensen inequality violated: quenched {mean!r} "
                           f"> annealed {annealed!r}")
    series = EstimateSeries("f", h, n, mean, stderr, cfg.samples)
    return FResult(series, annealed, vals)


@dataclass(frozen=True)
class MuResult:
    series: EstimateSeries
    n_values: tuple
    mu_n: np.ndarray            # -(1/n) log mean(1/Z^-)
    f_minus_n: np.ndarray       # mean (1/n) log Z^-
    slope: float
    slope_stderr: float


def estimate_mu(cfg: McConfig, h: float) -> MuResult:
    """mu estimator: slope of -log mean(1/Z^-) across the n grid.

    The per-n value -(1/n) log mean(1/Z^-) is Jensen-dominated by the
    sample mean of (1/n) log Z^- exactly, per run."""
    if len(cfg.n_values) < _MU_SIZES:
        raise ValueError(f"mu estimation needs at least {_MU_SIZES} n values")
    ns = np.array(cfg.n_values, dtype=float)
    y = np.empty(ns.size)
    mu_n = np.empty(ns.size)
    f_minus = np.empty(ns.size)
    for i, n in enumerate(cfg.n_values):
        _, log_zm = sample_log_z(cfg, h, n)
        y[i] = -log_mean_exp(-log_zm)
        mu_n[i] = y[i] / n
        f_minus[i] = np.mean(log_zm / n)
    fit = linear_fit(ns, y)
    series = EstimateSeries("mu", h, int(max(cfg.n_values)), fit["slope"],
                            fit["stderr"], cfg.samples)
    return MuResult(series, cfg.n_values, mu_n, f_minus, fit["slope"],
                    fit["stderr"])


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
    # np.var of identical values need not be 0: their mean can round away
    # from the common value, so degeneracy is tested on the values
    degenerate = bool(np.all(k1 == k1[0]))
    var = 0.0 if degenerate else float(np.var(k1, ddof=1))
    w_hat = var / n
    w_stderr = _variance_stderr(k1) / n
    v_hat, v_stderr = _mean_stderr(kappa[:, 2] / n)
    ks = None
    if not degenerate and cfg.samples >= 100:
        ks = ks_to_normal(k1)

    def _k3(b):
        return float(np.mean((b - b.mean()) ** 3))

    def _k4(b):
        bb = b - b.mean()
        return float(np.mean(bb ** 4) - 3.0 * np.mean(bb ** 2) ** 2)

    k3, k4 = _k3(k1), _k4(k1)
    if degenerate:
        # identical samples: the spread statistics of kappa_1 are exactly 0,
        # not the roundoff of deviations from a mean that rounds off the
        # common value
        mean_stderr = w_stderr = k3 = k4 = 0.0

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
    log_mean_a: np.ndarray
    rel_stderr_a: np.ndarray
    fit_range: tuple
    gamma_hat: float
    gamma_stderr: float
    log_G_hat: float
    fit_r2: float
    floor_flag: bool
    mix_mean: np.ndarray        # entry g-1 is the mean ratio at gap g
    mix_fit_range: tuple
    mix_gamma: float
    mix_gamma_stderr: float
    mix_r2: float

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


def _mixing_ratio(pre: np.ndarray, suf: np.ndarray, seg: np.ndarray,
                  gaps: np.ndarray) -> np.ndarray:
    """Mean over sites a = 1..n-g-1 of |cov[X_a, X_{a+g}]| /
    min(E[X_a], E[X_{a+g}]), for each gap g, of the chain whose prefix,
    suffix and segment tables are pre, suf and seg; nan where no site
    fits.  One masked (gaps x sites) array, pairs past n-1 zeroed out."""
    n = pre.size - 1
    probs = np.exp(np.minimum(pre + suf - pre[n], 0.0))
    a = np.arange(1, n)
    b = a + gaps[:, None]
    inside = b < n
    b = np.where(inside, b, n)
    ex_ab = np.exp(pre[a] + seg[a, gaps[:, None]] + suf[b] - pre[n])
    cov = ex_ab - probs[a] * probs[b]
    ratio = np.where(inside, np.abs(cov) / np.minimum(probs[a], probs[b]), 0.0)
    with np.errstate(invalid="ignore"):
        return ratio.sum(1) / inside.sum(1)


def correlation_decay_scan(cfg: McConfig, h: float,
                           fit_range: tuple | None = None) -> DecayResult:
    """Two-replica avoidance a_j averaged over samples and shifted window
    offsets (the pair DP sums nonnegative terms only, so deep decay keeps
    relative precision), with a log-linear decay fit over j in fit_range
    (default: from window // 10, at least 4, to 3 window // 4), plus the
    covariance mixing proxy |cov[X_a, X_b]| / min(E[X_a], E[X_b]) by gap."""
    window = cfg.window
    if window < 16:
        raise ValueError("decay scan needs window >= 16")
    n = int(max(cfg.n_values))
    if n < window:
        raise ValueError("n grid too small for the window")
    if fit_range is None:
        fit_range = (max(4, window // 10), (3 * window) // 4)
    offsets = tuple(int(o) for o in np.unique(
        np.linspace(0, n - window, _DECAY_OFFSETS).round()))
    gaps = np.arange(1, window + 1)
    log_prof = np.empty((cfg.samples, len(offsets), window + 1))
    mix_vals = np.empty((cfg.samples, gaps.size))
    log_z_abs = np.empty(cfg.samples)
    i = 0
    for block in _blocks(cfg, h, n, cfg.samples):
        for r, sys in enumerate(block.systems()):
            if r % _SEGMENT_ROWS == 0:
                seg = _segment_tables(
                    cfg.law.log_p,
                    block.site_weight[r:r + _SEGMENT_ROWS, 1:], window)
            for oi, o in enumerate(offsets):
                log_prof[i, oi] = sys.two_replica_avoidance_log(window, o)
            mix_vals[i] = _mixing_ratio(sys.prefix_logZ, sys.suffix_logZ(),
                                        seg[r % _SEGMENT_ROWS], gaps)
            log_z_abs[i] = abs(sys.log_z)
            i += 1

    # pooled mean over samples x offsets, entirely in the log domain
    pooled = log_prof.reshape(-1, window + 1)
    m = np.max(pooled[:, 1:], axis=0)
    scaled = np.exp(pooled[:, 1:] - m)
    scaled_mean = scaled.mean(axis=0)
    log_mean = np.full(window + 1, np.nan)
    log_mean[1:] = m + np.log(scaled_mean)
    rel_err = np.full(window + 1, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_err[1:] = (scaled.std(axis=0, ddof=1)
                       / np.maximum(scaled_mean, 1e-300)
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
    g_hi = min(g_hi, n - 2)  # gaps past n-2 have no site pair (nan mean)
    mix_sel = (gaps >= 2) & (gaps <= g_hi)
    if mix_sel.sum() >= 3:
        mg = gaps[mix_sel]
        mfit = linear_fit(mg, np.log(mix_mean[mix_sel]))
        mix_range = (int(mg.min()), int(mg.max()))
        mix_gamma, mix_err, mix_r2 = -mfit["slope"], mfit["stderr"], mfit["r2"]
    else:
        mix_range = (0, 0)
        mix_gamma = mix_err = mix_r2 = float("nan")

    return DecayResult(h, n, window, cfg.samples, log_mean, rel_err,
                       (j_lo, j_hi), gamma_hat, gamma_err, log_g, r2,
                       floor_flag, mix_mean, mix_range,
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


def _tail_kappa(u_values, tails, n: int, exponent: float) -> float:
    """Largest kappa with 2 exp(-kappa u^2/(n+u^e)) >= tail at every
    u > 0 with a positive tail; a zero tail is consistent with any kappa."""
    best = math.inf
    for u, tail in zip(u_values, tails):
        if u <= 0.0 or tail <= 0.0:
            continue
        best = min(best, (n + u ** exponent) / u ** 2 * math.log(2.0 / tail))
    return best


def _kappa_fit(u: np.ndarray, counts: np.ndarray, total: int, n: int,
               exponent: float) -> tuple[float, np.ndarray]:
    """_tail_kappa against the Wilson upper bounds of the exceedance
    frequencies; a zero-count point bounds nothing, so it counts as a
    zero tail."""
    uppers = np.array([wilson_upper(int(c), total) for c in counts])
    return _tail_kappa(u, np.where(counts > 0, uppers, 0.0), n,
                       exponent), uppers


def concentration_scan(cfg: McConfig, h: float, n: int, u_grid) -> ConcentrationResult:
    """Empirical two-sided tails of log Z and of the centering kappa_1
    around their sample means, with the dominating-kappa fit per variable.

    log Z and kappa_1 are columns 0..1 of the order-2 cumulant rows:
    inside a run memo they are the rows ``centering_statistics`` computed
    at the same (h, n)."""
    if cfg.samples < 500:
        raise ValueError("concentration scan needs samples >= 500")
    u = np.asarray(u_grid, dtype=float)
    kappa = sample_cumulants(cfg, h, n, 2)
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

