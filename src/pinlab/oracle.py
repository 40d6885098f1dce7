"""Brute-force ground truth for small systems.

A renewal configuration on {0..n} pinned at n is exactly a subset of
{1..n-1} (the interior contacts) plus the forced contacts 0 and n, so a
system of size n has 2^(n-1) configurations.  Everything here enumerates
them directly; the cap n <= 16 keeps that at 32768 configurations.

Also hosts the closed-form route to the pure-model free energy: the root
z* of e^h * sum_t p(t) z^t = 1, with f(h) = -log z*, and the subtractive
two-replica recursion and the log-domain pair recursion, two reference
routes for the scaled pair DP of QuenchedSystem at window sizes past
enumeration.  Helpers that only tests use live here too: the joint
contact moments and covariances of a QuenchedSystem by the renewal
factorization (``contact_moment``, ``contact_covariance``), ``ursell``,
its joint contact cumulants from those moments, ``log_sum_exp``, the
sum of log-domain scalars the enumerations use (``log_mean_exp`` is
numerics'), the closed forms of a disorder law (``exp_abs_moment``) and
of the critical point's classification (``classify_hc``), and
``hc_bracket``, the Monte Carlo bisection bracket of the localization
transition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .disorder_mc import McConfig, estimate_f
from .numerics import LOG_ZERO, log_mean_exp
from .quenched import _forward

ORACLE_MAX_N = 16


def log_sum_exp(values) -> float:
    """Return log(sum(exp(v) for v in values)) without over/underflow.

    The empty sum is the zero state ``-inf``.  NaN entries are rejected.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    if np.isnan(arr).any():
        raise ValueError("log_sum_exp: NaN is not a valid log-magnitude")
    m = float(np.max(arr))
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(float(np.sum(np.exp(arr - m))))


def _omega_array(omega, n: int) -> np.ndarray:
    om = np.asarray(omega, dtype=float)
    if om.size < n:
        raise ValueError(f"omega has length {om.size} < n = {n}")
    return om[:n]


@dataclass(frozen=True)
class PathSet:
    """All 2^(n-1) pinned configurations with their log weights.

    ``log_weights[mask]`` is the log weight of the configuration whose
    interior contacts are the set bits of ``mask`` (bit i <-> site i+1);
    ``counts[mask]`` is its contact number L_n and ``max_gaps[mask]`` its
    maximal excursion length.
    """

    n: int
    log_weights: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    max_gaps: np.ndarray = field(repr=False)

    def log_partition(self) -> float:
        return log_sum_exp(self.log_weights)

    def normalized_weights(self) -> np.ndarray:
        m = float(np.max(self.log_weights))
        w = np.exp(self.log_weights - m)
        return w / w.sum()

    def contact_matrix(self) -> np.ndarray:
        """0/1 matrix, row mask x column a = 0..n; columns 0 and n are 1."""
        masks = np.arange(self.log_weights.size, dtype=np.uint32)
        cols = [np.ones_like(masks, dtype=float)]
        for a in range(1, self.n):
            cols.append(((masks >> (a - 1)) & 1).astype(float))
        cols.append(np.ones_like(masks, dtype=float))
        return np.stack(cols, axis=1)


def build_path_set(law, h: float, omega, n: int) -> PathSet:
    if n < 1 or n > ORACLE_MAX_N:
        raise ValueError(f"oracle handles 1 <= n <= {ORACLE_MAX_N}, got {n}")
    om = _omega_array(omega, n)
    logp = law.log_p
    if n > law.n_max:
        raise ValueError("n exceeds the law's tabulation horizon")
    size = 1 << (n - 1)
    lw = np.empty(size)
    counts = np.empty(size, dtype=np.int64)
    gaps = np.empty(size, dtype=np.int64)
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
                total += logp[gap] + h + om[site - 1]
                if gap > gmax:
                    gmax = gap
                prev = site
                cnt += 1
            m >>= 1
            site += 1
        gap = n - prev
        total += logp[gap] + h + om[n - 1]
        if gap > gmax:
            gmax = gap
        lw[mask] = total
        counts[mask] = cnt + 1
        gaps[mask] = gmax
    return PathSet(n, lw, counts, gaps)


def enumerate_partition(law, h: float, omega, n: int) -> float:
    """log Z by exhaustive summation (n <= 16)."""
    return build_path_set(law, h, omega, n).log_partition()


def enumerate_expectation(law, h: float, omega, n: int, functional) -> float:
    """Weight-averaged value of functional(x) where x is the 0/1 contact
    indicator sequence (x[0] = x[n] = 1)."""
    ps = build_path_set(law, h, omega, n)
    w = ps.normalized_weights()
    x = np.empty(n + 1)
    total = 0.0
    for mask in range(w.size):
        x[0] = 1.0
        for a in range(1, n):
            x[a] = (mask >> (a - 1)) & 1
        x[n] = 1.0
        total += w[mask] * float(functional(x))
    return total


def enumerate_contact_probabilities(law, h: float, omega, n: int) -> np.ndarray:
    """E[X_a] for a = 0..n in one enumeration pass."""
    ps = build_path_set(law, h, omega, n)
    return ps.contact_matrix().T @ ps.normalized_weights()


def enumerate_contact_pmf(law, h: float, omega, n: int) -> np.ndarray:
    """P[L_n = l] for l = 0..n (entry 0 is always 0)."""
    ps = build_path_set(law, h, omega, n)
    w = ps.normalized_weights()
    return np.bincount(ps.counts, weights=w, minlength=n + 1)


def enumerate_excursion_cdf(law, h: float, omega, n: int) -> np.ndarray:
    """P[M_n <= m] for m = 0..n."""
    ps = build_path_set(law, h, omega, n)
    w = ps.normalized_weights()
    mass = np.bincount(ps.max_gaps, weights=w, minlength=n + 1)
    return np.cumsum(mass)


def enumerate_moment(law, h: float, omega, n: int, sites) -> float:
    """E[prod_a X_a] over the given sites."""
    ps = build_path_set(law, h, omega, n)
    w = ps.normalized_weights()
    x = ps.contact_matrix()
    prod = np.ones_like(w)
    for a in sites:
        prod = prod * x[:, a]
    return float(prod @ w)


def _partitions(items: tuple):
    """All set partitions of items (Bell(len) of them)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def enumerate_joint_cumulant(law, h: float, omega, n: int, sites) -> float:
    """Joint cumulant of (X_a)_{a in sites} by the set-partition formula:
    sum over partitions of (-1)^(l-1) (l-1)! prod over blocks of the block
    moment."""
    sites = tuple(sites)
    total = 0.0
    for part in _partitions(sites):
        l = len(part)
        coef = (-1.0) ** (l - 1) * math.factorial(l - 1)
        prod = 1.0
        for block in part:
            prod *= enumerate_moment(law, h, omega, n, block)
        total += coef * prod
    return total


def contact_moment(system, sites) -> float:
    """E[prod X_a] over the given sites of a QuenchedSystem by the ordered
    renewal factorization: the prefix up to the first site, log Z of every
    segment between consecutive sites, the suffix from the last.  Each
    segment's log Z is a fresh ``_forward`` on its charges."""
    uniq = sorted(set(int(a) for a in sites))
    if not uniq:
        return 1.0
    if uniq[0] < 0 or uniq[-1] > system.n:
        raise ValueError("sites out of range")
    log_m = (system.prefix_logZ[uniq[0]] - system.log_z
             + system.suffix_logZ()[uniq[-1]])
    for x, y in zip(uniq, uniq[1:]):
        weights = system.site_weight[None, x + 1:y + 1]
        log_m += _forward(system.law.log_p, weights)[0, -1]
    return min(1.0, math.exp(log_m))


def contact_covariance(system, a: int, b: int) -> float:
    """cov[X_a, X_b] of a QuenchedSystem, a <= b."""
    if a > b:
        raise ValueError("need a <= b")
    return contact_moment(system, (a, b)) - \
        system.contact_probability(a) * system.contact_probability(b)


def ursell(system, sites) -> float:
    """Joint cumulant of (X_a)_{a in sites} of a QuenchedSystem, r <= 4, by
    the set-partition formula with the block moments from
    ``contact_moment`` (the renewal factorization)."""
    sites = tuple(int(a) for a in sites)
    if len(sites) > 4:
        raise ValueError("ursell capped at r = 4")
    if any(not 1 <= a <= system.n for a in sites):
        raise ValueError("sites must lie in 1..n")
    if list(sites) != sorted(sites):
        raise ValueError("sites must be ordered")
    total = 0.0
    for part in _partitions(sites):
        l = len(part)
        coef = (-1.0) ** (l - 1) * math.factorial(l - 1)
        prod = 1.0
        for block in part:
            prod *= contact_moment(system, block)
        total += coef * prod
    return total


def enumerate_avoidance(law, h: float, omega, j: int) -> float:
    """a_j = E2[prod_{k=1}^{j-1} (1 - X_k X_k')] by enumeration over pairs
    of paths of a size-j window (same charges in both replicas).

    Uses a subset-sum (zeta) transform so the pair sum is O(j 2^j)."""
    if j < 1:
        raise ValueError("window must be >= 1")
    if j == 1:
        return 1.0
    if j > 12:
        raise ValueError("pair enumeration capped at window 12")
    ps = build_path_set(law, h, omega, j)
    w = ps.normalized_weights()
    size = w.size
    # T[c] = sum of weights over interior masks contained in c
    t = w.copy()
    bit = 1
    while bit < size:
        lower = (np.arange(size) & bit).astype(bool)
        t[lower] += t[np.arange(size)[lower] ^ bit]
        bit <<= 1
    full = size - 1
    masks = np.arange(size)
    return float(np.sum(w * t[full ^ masks]))


def two_replica_profiles(system, window: int, starts) -> np.ndarray:
    """Subtractive reference route to the two-replica avoidance of a
    QuenchedSystem: row s, column j is
    E2_{[o_s, o_s+j]}[prod interior (1 - X X')] for o_s = starts[s].

    Recursion over the first common interior contact i:
    a_j = 1 - sum_{i<j} a_i exp(2(log Z_{0,i} + log Z_{[i,j]} - log Z_{0,j}))
    (window-relative indices); every exponent is <= 0 by segment
    super-multiplicativity, so all summands lie in [0, a_i].  The
    subtraction loses relative precision once a_j nears machine epsilon,
    which the pair DP (``two_replica_avoidance_log``) does not;
    tests compare the two where both are accurate."""
    t = system.segment_partitions(window)
    starts = np.asarray(starts, dtype=np.intp)
    if starts.size and (starts.min() < 0 or starts.max() + window > system.n):
        raise ValueError("window falls outside the system")
    prof = np.zeros((starts.size, window + 1))
    prof[:, 0] = np.nan
    if window >= 1:
        prof[:, 1] = 1.0
    undershoot = 0.0
    for j in range(2, window + 1):
        i = np.arange(1, j)
        expo = 2.0 * (t[starts[:, None], i[None, :]]
                      + t[starts[:, None] + i[None, :], (j - i)[None, :]]
                      - t[starts, j][:, None])
        vals = 1.0 - np.sum(prof[:, 1:j] * np.exp(expo), axis=1)
        low = float(vals.min(initial=0.0))
        undershoot = min(undershoot, low)
        prof[:, j] = np.clip(vals, 0.0, 1.0)
    if undershoot < -1e-9:
        warnings.warn(f"two-replica recursion undershoot {undershoot:.3e}",
                      RuntimeWarning)
    return prof


def two_replica_avoidance(system, window: int) -> np.ndarray:
    """a_1..a_window of a QuenchedSystem for the base window [0, window]
    by the subtractive route; entry 0 is nan."""
    if window > system.n:
        raise ValueError("window exceeds system size")
    return two_replica_profiles(system, window, np.array([0]))[0]


def two_replica_avoidance_lse(system, window: int, start: int = 0) -> np.ndarray:
    """log a_j for j = 0..window on [start, start+window] of a
    QuenchedSystem (entry 0 is nan) by the pair recursion of
    ``quenched._pair_forward`` run entirely in log domain: every sum is a
    log-sum-exp over the (t, t) state, one exp per state entry and step.
    A reference route for the scaled linear-domain engine."""
    from scipy.special import logsumexp  # only this test route needs scipy

    if not 1 <= window <= system.n or start < 0 or start + window > system.n:
        raise ValueError("window falls outside the system")
    seg = system.segment_partitions(window)
    logp = system.law.log_p
    bw = system.site_weight[start:start + window + 1]  # bw[x]: site start+x
    state = np.full((window, window), -np.inf)          # state[u, v], u < v
    out = np.empty(window + 1)
    out[0] = np.nan
    for t in range(1, window + 1):
        # close window j = t: both replicas jump to t, from (0, 0) or (u, v)
        close = 2.0 * (logp[t] + bw[t])
        lpt = logp[t - np.arange(t)]
        grid = state[0:t, 0:t]
        if t >= 2:
            pairs = logsumexp(grid + lpt[:, None] + lpt[None, :])
            close = np.logaddexp(close, pairs + 2.0 * bw[t])
        out[t] = close - 2.0 * seg[start, t]
        if t == window:
            break
        # open states (x, t): the trailing replica (index v) or the leading
        # one (index u) jumps to t, or one of the empty pair does
        col = np.logaddexp(logsumexp(grid + lpt[:, None], axis=0),
                           logsumexp(grid + lpt[None, :], axis=1))
        col[0] = np.logaddexp(col[0], math.log(2.0) + logp[t])
        state[0:t, t] = col + bw[t]
    return out


def pure_model_free_energy(law, h: float) -> float:
    """Free energy of the model without disorder.

    Solves e^h * sum_t p(t) z^t = 1 for z* in (0,1) by bisection on the
    tabulated series plus a tail bound (p decreasing beyond the horizon);
    f(h) = -log z*, or 0 when no root below 1 exists (delocalized)."""
    logp = law.log_p[1:]
    t = np.arange(1, law.n_max + 1, dtype=float)
    p_last = math.exp(logp[-1])

    def series(z: float) -> float:
        vals = logp + t * math.log(z)
        m = float(np.max(vals))
        s = math.exp(m) * float(np.sum(np.exp(vals - m)))
        geom = p_last * z ** (law.n_max + 1) / (1.0 - z)
        tail = min(geom, law.tail_mass) if law.tail_mass > 0.0 else geom
        return s + tail

    def excess(z: float) -> float:
        return h + math.log(series(z))

    hi = 1.0 - 1e-12
    if excess(hi) < 0.0:
        return 0.0
    lo = 1e-12
    if excess(lo) > 0.0:
        raise ValueError("no bracketing interval for the pure-model root")
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if excess(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    else:
        raise RuntimeError("pure-model bisection did not converge")
    return max(0.0, -math.log(hi))


def classify_hc(alpha: float, varrho: float) -> str:
    """Classification of the critical point: 'finite', 'minus_infinity' or
    'undecided'.  Finite iff (alpha+1)*varrho > 1; the boundary case is out
    of reach and reported as undecided."""
    if not alpha >= 1.0:
        raise ValueError("alpha < 1 is not supported")
    if not varrho > 0.0:
        raise ValueError("varrho must be positive")
    product = (alpha + 1.0) * varrho
    if product > 1.0:
        return "finite"
    if product < 1.0:
        return "minus_infinity"
    return "undecided"


def exp_abs_moment(law, eta: float) -> float:
    """Closed-form E[exp(eta*|omega0|)] of a DisorderLaw, per family."""
    s = law.param
    if law.family == "zero":
        return 1.0
    if law.family == "gaussian":
        # 2 Phi(eta s) = erfc(-eta s / sqrt 2)
        return (math.exp(eta * eta * s * s / 2.0)
                * math.erfc(-eta * s / math.sqrt(2.0)))
    if law.family == "uniform_centered":
        return math.expm1(eta * s) / (eta * s)
    if law.family == "rademacher":
        return math.exp(eta * s)
    if law.family == "shifted_exponential":
        if eta * s >= 1.0:
            return math.inf
        left = math.exp(eta * s) * (-math.expm1(-(1.0 + eta * s))) / (1.0 + eta * s)
        right = math.exp(-1.0) / (1.0 - eta * s)
        return left + right
    raise ValueError(f"unknown family {law.family!r}")


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
