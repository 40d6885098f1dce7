"""Exact dynamic programming for a fixed environment (n, h, omega).

All weights enter as e^{h+omega_a} per contact and p(t) per excursion, so
every quantity here is a deterministic functional of the charge vector.
Every partition table comes from one O(n^2) forward recursion,

    Z_{0,k} = sum_{t=1..k} Z_{0,k-t} p(t) e^{h+omega_k},

run in log domain by ``_forward`` over a batch of weight rows: the prefix
table is one row, the suffix table is the recursion on the reversed
weights, the segment table runs one row per start site, and the
restricted-excursion partition caps t at a band.  Disorder Monte Carlo
runs the same engine on blocks of samples.  Derivatives of log Z in h
(cumulants of the contact number) come from ``_jet_forward``, the same
recursion with each entry carried as a truncated Taylor jet; it is
batched too, and serves both ``QuenchedSystem.cumulants`` (one row) and
the per-sample cumulant kernels of disorder Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .numerics import DEFAULT_JET_ORDER, LOG_ZERO, ScaledJet, log_of_jet

CONTACT_LAW_DEFAULT_CAP = 2048

DEFAULT_SEGMENT_WINDOW = 128


def _charges(omega, n: int) -> np.ndarray:
    """Padded charge array c with c[a] = omega_a for a = 1..n, c[0] = 0."""
    if omega is None:
        return np.zeros(n + 1)
    om = getattr(omega, "omega", omega)
    om = np.asarray(om, dtype=float)
    if om.size < n:
        raise ValueError(f"omega has length {om.size} < n = {n}")
    return np.concatenate(([0.0], om[:n]))


def _lse_rows(w: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-d array; all-(-inf) rows give -inf."""
    m = np.max(w, axis=-1)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return m + np.log(np.sum(np.exp(w - safe[..., None]), axis=-1))


def _forward(log_p: np.ndarray, b: np.ndarray,
             band: int | None = None) -> np.ndarray:
    """log Z_{0,k} for k = 0..n of every row of the (rows, n) weights b.

    Row r is the chain whose site k carries log weight b[r, k-1]; with a
    band, excursions are capped at that length.  No guard is needed:
    log_p[t] is finite for t >= 1 (the law constructors enforce p(t) > 0)
    and z[:, 0] = 0, so every step's max is finite when the weights are
    finite.  Without a band, -inf weights are allowed too: z[:, 0] stays
    in every step, and a -inf weight gives a -inf entry, never NaN."""
    rows, n = b.shape
    z = np.empty((rows, n + 1))
    z[:, 0] = 0.0
    for k in range(1, n + 1):
        lo = 0 if band is None else max(0, k - band)
        w = z[:, lo:k] + log_p[k - lo:0:-1]
        m = w.max(1)
        w -= m[:, None]
        np.exp(w, out=w)
        z[:, k] = np.log(w.sum(1)) + m + b[:, k - 1]
    return z


def _jet_forward(log_p: np.ndarray, b: np.ndarray,
                 order: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor jets in h of Z_{0,k}, k = 0..n, for every row of the (rows, n)
    weights b: returns (sc, coef) with sc[r, k] = log Z_{0,k} and
    coef[r, k, j] = (d^j Z_{0,k} / dh^j) / (j! Z_{0,k}) for j = 0..order.

    The recursion is _forward's with each table entry carried as a jet:
    a step takes the p-weighted sum of earlier jets (one vector-matrix
    product per row) and multiplies it by the jet of the contact weight
    e^{h+b}, whose coefficients are 1/j!.  That product is the upper
    triangular Toeplitz matrix of 1/j!, applied as one dot product per
    (row, column), so a row's jets are bit-identical whatever batch they
    are computed in (a single 2-d product would not be)."""
    rows, n = b.shape
    j = np.arange(order + 1)
    inv_fact = 1.0 / np.array([math.factorial(i) for i in j], dtype=float)
    # cols[c, i, 0] = 1/(c-i)! for i <= c: column c of the Toeplitz matrix
    # as an (order+1, 1) matrix, so that matmul takes one dot per column
    cols = np.tril(inv_fact[np.abs(j[:, None] - j[None, :])])[:, :, None]
    sc = np.empty((rows, n + 1))
    coef = np.zeros((rows, n + 1, order + 1))
    sc[:, 0] = 0.0
    coef[:, 0, 0] = 1.0
    for k in range(1, n + 1):
        w = sc[:, :k] + log_p[k:0:-1]
        m = w.max(1)
        u = np.exp(w - m[:, None])
        acc = np.matmul(u[:, None, :], coef[:, :k])
        conv = np.matmul(acc[:, None], cols)[:, :, 0, 0]
        c0 = conv[:, 0]
        sc[:, k] = m + np.log(c0) + b[:, k - 1]
        coef[:, k] = conv / c0[:, None]
    return sc, coef


@dataclass(frozen=True)
class SegmentTable:
    """Windowed log Z over segments: entry (i, l) is log Z_{[i, i+l]}.

    The segment system on [i, j] uses charges omega_{i+1}..omega_j, so row
    0 coincides with the prefix table.  Entries beyond the window or past
    n are -inf."""

    n: int
    window: int
    table: np.ndarray = field(repr=False)

    def log_z(self, i: int, j: int) -> float:
        if not 0 <= i <= j <= self.n:
            raise ValueError(f"bad segment [{i}, {j}]")
        if j - i > self.window:
            raise ValueError(f"segment [{i}, {j}] wider than window {self.window}")
        return float(self.table[i, j - i])


@dataclass(frozen=True)
class ContactLaw:
    """Exact law of the contact number L_n; log_pmf[l] = log P[L_n = l],
    entry 0 is -inf (the pinned endpoint forces L_n >= 1)."""

    n: int
    log_pmf: np.ndarray = field(repr=False)

    def pmf(self) -> np.ndarray:
        return np.exp(self.log_pmf)

    def mean(self) -> float:
        p = self.pmf()
        return float(np.arange(self.n + 1) @ p)

    def variance(self) -> float:
        p = self.pmf()
        l = np.arange(self.n + 1, dtype=float)
        mu = float(l @ p)
        return float(((l - mu) ** 2) @ p)

    def tail_two_sided(self, u: float) -> float:
        """P[|L_n - E L_n| > u]."""
        p = self.pmf()
        l = np.arange(self.n + 1, dtype=float)
        mu = float(l @ p)
        return float(p[np.abs(l - mu) > u].sum())

    def cdf_below(self, threshold: float) -> float:
        """P[L_n < threshold]."""
        p = self.pmf()
        l = np.arange(self.n + 1, dtype=float)
        return float(p[l < threshold].sum())


@dataclass(frozen=True)
class CumulantVector:
    """kappa[k] is the k-th derivative of log Z in h (entry 0 unused)."""

    r_max: int
    kappa: np.ndarray = field(repr=False)


def ks_to_standard_normal(law: ContactLaw) -> tuple[float, float, float]:
    """Exact Kolmogorov distance between the standardized contact law and
    the standard normal; returns (ks, mean, variance).

    The supremum over u of |F(u) - Phi(u)| for a discrete F against a
    continuous Phi is attained at the atoms, approaching from both sides.
    """
    p = law.pmf()
    sup = np.nonzero(p > 0.0)[0]
    probs = p[sup]
    l = sup.astype(float)
    mu = float(l @ probs)
    var = float(((l - mu) ** 2) @ probs)
    if var <= 0.0:
        return 1.0, mu, var
    z = (l - mu) / math.sqrt(var)
    cdf = np.cumsum(probs)
    phi = special.ndtr(z)
    d_hi = np.abs(cdf - phi)
    d_lo = np.abs(np.concatenate(([0.0], cdf[:-1])) - phi)
    return float(max(d_hi.max(), d_lo.max())), mu, var


def _set_partitions(items: tuple):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


class QuenchedSystem:
    """Immutable quenched environment with its prefix DP table.

    Suffix and segment tables are built lazily and cached; every public
    method is a pure read."""

    def __init__(self, law, h: float, omega, n: int):
        if n < 0:
            raise ValueError("n must be >= 0")
        if n > law.n_max:
            raise ValueError(f"n = {n} exceeds tabulation horizon {law.n_max}")
        if not math.isfinite(h):
            raise ValueError(f"h = {h} is not finite")
        self.law = law
        self.h = float(h)
        self.omega = omega
        self.n = int(n)
        self.charges = _charges(omega, n)
        bad = np.flatnonzero(~np.isfinite(self.charges))
        if bad.size:
            a = int(bad[0])
            raise ValueError(f"charge omega_{a} = {self.charges[a]} is not finite")
        self.site_weight = self.h + self.charges  # h + omega_a, entry 0 unused
        self.prefix_logZ = _forward(law.log_p, self.site_weight[None, 1:])[0]
        self._suffix = None
        self._segments = None

    @property
    def log_z(self) -> float:
        return float(self.prefix_logZ[self.n])

    @property
    def log_z_minus(self) -> float:
        """log Z with the final contact weight stripped."""
        if self.n == 0:
            return 0.0
        return self.log_z - self.site_weight[self.n]

    # -- suffix and segment tables ----------------------------------------

    def suffix_logZ(self) -> np.ndarray:
        """suffix[a] = log Z_{[a, n]} for a = 0..n (suffix[0] = log Z)."""
        if self._suffix is None:
            n, b = self.n, self.site_weight
            # the reversed chain's prefix at n-a is log Z_{[a,n]} + b[a] - b[n]
            rev = _forward(self.law.log_p, b[None, :n][:, ::-1])[0]
            self._suffix = rev[::-1] - b + b[n]
        return self._suffix

    def segment_partitions(self, window: int | None = None) -> SegmentTable:
        if window is None:
            window = min(self.n, DEFAULT_SEGMENT_WINDOW)
        if window > self.n:
            raise ValueError("window exceeds system size")
        if self._segments is None or self._segments.window < window:
            self._segments = self._build_segments(window)
        return self._segments

    def _build_segments(self, window: int) -> SegmentTable:
        # row i runs on b[i+1..i+window]; -inf padding past n gives -inf
        padded = np.concatenate((self.site_weight[1:],
                                 np.full(window, LOG_ZERO)))
        rows = np.lib.stride_tricks.sliding_window_view(padded, window)
        return SegmentTable(self.n, window, _forward(self.law.log_p, rows))

    def _segment_log_z(self, i: int, j: int) -> float:
        """log Z_{[i, j]} for arbitrary width (table when it fits)."""
        if i == j:
            return 0.0
        if self._segments is not None and j - i <= self._segments.window:
            return self._segments.log_z(i, j)
        if i == 0:
            return float(self.prefix_logZ[j])
        z = _forward(self.law.log_p, self.site_weight[None, i + 1:j + 1])
        return float(z[0, -1])

    # -- contact observables ----------------------------------------------

    def contact_probability(self, a: int) -> float:
        """E_{n,h,omega}[X_a]."""
        if not 0 <= a <= self.n:
            raise ValueError(f"site {a} out of range 0..{self.n}")
        if a == 0 or a == self.n:
            return 1.0
        suf = self.suffix_logZ()
        return min(1.0, math.exp(self.prefix_logZ[a] + suf[a] - self.log_z))

    def contact_moment(self, sites) -> float:
        """E[prod X_a] by the ordered renewal factorization."""
        uniq = sorted(set(int(a) for a in sites))
        if not uniq:
            return 1.0
        if uniq[0] < 0 or uniq[-1] > self.n:
            raise ValueError("sites out of range")
        suf = self.suffix_logZ()
        log_m = self.prefix_logZ[uniq[0]] - self.log_z + suf[uniq[-1]]
        for x, y in zip(uniq, uniq[1:]):
            log_m += self._segment_log_z(x, y)
        return min(1.0, math.exp(log_m))

    def contact_covariance(self, a: int, b: int) -> float:
        if a > b:
            raise ValueError("need a <= b")
        return self.contact_moment((a, b)) - \
            self.contact_probability(a) * self.contact_probability(b)

    def ursell(self, sites) -> float:
        """Joint cumulant of (X_a)_{a in sites}, r <= 4, via the
        set-partition formula with moments from the renewal factorization."""
        sites = tuple(int(a) for a in sites)
        if len(sites) > 4:
            raise ValueError("ursell capped at r = 4")
        if any(not 1 <= a <= self.n for a in sites):
            raise ValueError("sites must lie in 1..n")
        if list(sites) != sorted(sites):
            raise ValueError("sites must be ordered")
        total = 0.0
        for part in _set_partitions(sites):
            l = len(part)
            coef = (-1.0) ** (l - 1) * math.factorial(l - 1)
            prod = 1.0
            for block in part:
                prod *= self.contact_moment(block)
            total += coef * prod
        return total

    # -- law of the contact number ----------------------------------------

    def contact_law(self, n_cap: int = CONTACT_LAW_DEFAULT_CAP) -> ContactLaw:
        """Exact pmf of L_n by the count-indexed DP.

        Internally runs on per-level renewal probabilities (each level's
        first-excursion weights sum to 1), so everything stays in [0, 1]
        with nonnegative terms only.  O(n^3); raise n_cap to override the
        default guard."""
        n = self.n
        if n > n_cap:
            raise ValueError(f"contact_law guarded at n <= {n_cap}; pass n_cap to override")
        if n == 0:
            return ContactLaw(0, np.zeros(1))
        pre, logp, b = self.prefix_logZ, self.law.log_p, self.site_weight
        r = np.zeros((n + 1, n + 1))
        r[0, 0] = 1.0
        for k in range(1, n + 1):
            g = np.exp(pre[0:k] + logp[k:0:-1] + b[k] - pre[k])
            r[k, 1:k + 1] = g @ r[0:k, 0:k]
        with np.errstate(divide="ignore"):
            log_pmf = np.log(r[n])
        return ContactLaw(n, log_pmf)

    # -- cumulants via jets -------------------------------------------------

    def cumulants(self, r_max: int) -> CumulantVector:
        """kappa_k = d^k/dh^k log Z for k = 1..r_max, r_max <= DEFAULT_JET_ORDER.

        The jet always runs at order DEFAULT_JET_ORDER = 8, whatever r_max.
        Cumulants come from the normalized moments by cancellation, so the
        high ones carry large roundoff, and that roundoff depends on the
        order: at (h = 3.5, n = 4096) kappa_4 is off by 1.3e-2 relative at
        order 4 and by 6.9e-3 at order 8.  Choosing the order belongs with
        replacing the jets by contour integrals (item 3 of ROADMAP.md)."""
        if r_max > DEFAULT_JET_ORDER:
            raise ValueError(f"r_max = {r_max} exceeds jet order {DEFAULT_JET_ORDER}")
        if self.n == 0:
            return CumulantVector(r_max, np.zeros(r_max + 1))
        sc, coef = _jet_forward(self.law.log_p, self.site_weight[None, 1:],
                                DEFAULT_JET_ORDER)
        g = log_of_jet(ScaledJet(sc[0, -1], coef[0, -1]))
        kappa = np.empty(r_max + 1)
        kappa[0] = g[0]
        for k in range(1, r_max + 1):
            kappa[k] = math.factorial(k) * g[k]
        return CumulantVector(r_max, kappa)

    # -- two-replica avoidance ----------------------------------------------

    def two_replica_avoidance_log(self, window: int, start: int = 0) -> np.ndarray:
        """log a_j for j = 1..window on [start, start+window]; entry 0 is nan.

        Same functional as the subtractive reference
        ``oracle.two_replica_profiles``, evaluated by summing over
        pairs of paths with disjoint interior contact sets, ordered by
        their merged contact points.  State (u, v): the two replicas'
        latest points, u < v.  A new point t > v extends either the
        trailing replica (gap t-u) or the leading one (gap t-v).  Every
        accumulation is a log-sum-exp of positive terms, so values keep
        full relative precision far below the subtractive recursion's
        machine-epsilon floor.
        """
        if not 1 <= window <= self.n or start < 0 or start + window > self.n:
            raise ValueError("window falls outside the system")
        seg = self.segment_partitions(window)
        logp = self.law.log_p
        bw = self.site_weight[start:start + window + 1]  # bw[x]: site start+x
        state = np.full((window, window), LOG_ZERO)      # state[u, v], u < v
        out = np.empty(window + 1)
        out[0] = np.nan
        log2 = math.log(2.0)  # unordered pair of distinct interleavings
        for t in range(1, window + 1):
            # close window j = t: both replicas jump to t, or empty pair
            close = 2.0 * (logp[t] + bw[t])
            if t >= 2:
                lpt = logp[t - np.arange(t)]
                closed = state[0:t, 0:t] + lpt[:, None] + lpt[None, :]
                m = closed.max()
                if m > LOG_ZERO:
                    pairs = m + math.log(np.exp(closed - m).sum()) + 2.0 * bw[t]
                    close = np.logaddexp(close, pairs)
            out[t] = close - 2.0 * seg.log_z(start, start + t)
            if t == window:
                break
            # open states (x, t) for the next windows
            col = np.full(t, LOG_ZERO)
            if t >= 2:
                lpt = logp[t - np.arange(t)]
                grid = state[0:t, 0:t]
                trail = _lse_rows((grid + lpt[:, None]).T)  # index v
                lead = _lse_rows(grid + lpt[None, :])       # index u
                col = np.logaddexp(trail, lead)
            col[0] = np.logaddexp(col[0], log2 + logp[t])
            state[0:t, t] = col + bw[t]
        return out

    # -- maximal excursion ----------------------------------------------------

    def max_excursion_cdf(self, m: int) -> float:
        """P[M_n <= m]: partition ratio with excursions restricted to <= m."""
        if m < 1:
            raise ValueError("m >= 1 required")
        n = self.n
        if n == 0 or m >= n:
            return 1.0
        zm = _forward(self.law.log_p, self.site_weight[None, 1:], band=m)
        return min(1.0, math.exp(zm[0, n] - self.log_z))
