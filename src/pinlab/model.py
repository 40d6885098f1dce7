"""Inter-arrival laws, disorder laws, and disorder sampling.

An inter-arrival law tabulates p(t) = ell(t) / t^(alpha+1) on 1..n_max,
optionally normalized to a sub-probability (tabulated mass plus an analytic
tail estimate <= 1).  A law is its log p table: n_max and the constant xi
of the splitting inequality  p(t+tau) <= xi * min(t, tau)^xi * p(t) * p(tau)
are derived from it, xi on its first read.

Disorder charges are i.i.d. mean-zero with a finite exponential moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import LOG_ZERO

XI_GRID_RESOLUTION = 1e-3
# the largest log a factor of _analytic_tail may take in float (e^709.78
# overflows)
_LOG_FLOAT_MAX = 700.0


@dataclass(frozen=True)
class EllSpec:
    """Slowly varying factor: constant(c) or log_power(c, beta) = c*(1+ln t)^beta."""

    form: str
    c: float
    beta: float = 0.0

    def __post_init__(self):
        if self.form not in ("constant", "log_power"):
            raise ValueError(f"unknown ell form {self.form!r}")
        if not self.c > 0.0:
            raise ValueError("ell must be positive: c > 0 required")
        if self.form == "log_power" and not self.beta > -1.0:
            raise ValueError("log_power ell requires beta > -1")

    def log_ell(self, t: np.ndarray) -> np.ndarray:
        if self.form == "constant":
            return np.full_like(np.asarray(t, dtype=float), math.log(self.c))
        return math.log(self.c) + self.beta * np.log1p(np.log(t))


def _analytic_tail(ell: EllSpec, alpha: float, n_max: int) -> float:
    """Integral upper bound on sum_{t > n_max} ell(t) t^{-(alpha+1)}.

    Where a factor would overflow a float (n_max^alpha or e^alpha past
    e^700), the bound is taken in log domain: a bound below the float
    range is 0, and one above it a ValueError."""
    if ell.form == "constant":
        if alpha * math.log(n_max) <= _LOG_FLOAT_MAX:
            return ell.c / (alpha * n_max ** alpha)
        return math.exp(math.log(ell.c / alpha) - alpha * math.log(n_max))
    # substitute u = ln t: integral becomes an upper incomplete gamma.
    # scipy is imported here only: no other run path needs it
    from scipy import special

    a = ell.beta + 1.0
    x = alpha * (1.0 + math.log(n_max))
    q = special.gammaincc(a, x)
    if alpha <= _LOG_FLOAT_MAX:
        return ell.c * math.exp(alpha) * alpha ** (-a) * q * special.gamma(a)
    if q == 0.0:
        return 0.0
    log_tail = (math.log(ell.c) + alpha - a * math.log(alpha) + math.log(q)
                + special.gammaln(a))
    if log_tail > _LOG_FLOAT_MAX:
        raise ValueError(f"the tail bound of the law, e^{log_tail:.6g}, is "
                         f"past float range")
    return math.exp(log_tail)


@dataclass(frozen=True)
class InterArrivalLaw:
    """Tabulated inter-arrival law.

    ``log_p`` has length n_max + 1; entry t is log p(t) for t = 1..n_max
    and entry 0 is -inf (there is no zero-length excursion).  A log p(t)
    not finite on [1, n_max] is refused with a ValueError naming t.
    n_max and xi are derived from the table.
    """

    log_p: np.ndarray = field(repr=False)
    tail_mass: float = 0.0
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        bad = np.flatnonzero(~np.isfinite(self.log_p[1:]))
        if bad.size:
            t = int(bad[0]) + 1
            raise ValueError(f"log p({t}) = {self.log_p[t]} is not finite: "
                             f"p(t) must be positive on [1, {self.n_max}]")

    @property
    def n_max(self) -> int:
        return self.log_p.size - 1

    @property
    def xi(self) -> float:
        """compute_xi of the table, run on the first read and memoised; a
        table with no float xi raises its ValueError at every read."""
        xi = self._memo.get("xi")
        if xi is None:
            xi = self._memo["xi"] = compute_xi(self.log_p)
        return xi

    def contact_density(self, h: float) -> float:
        """The contact density of the homogeneous chain at h under the
        tabulated law: 1 / sum_t t p(t) e^{h - F t}, F the root of
        sum_t p(t) e^{h - F t} = 1 (its free energy), so 0 < c <= 1.
        Memoised per h on the law.

        phi(F) = log sum_t p(t) e^{h - F t} is convex and decreasing, and
        phi >= 0 at F = h + log p(1), where the term t = 1 alone is 1, so
        Newton's steps from there rise monotonically to the root."""
        h = float(h)
        c = self._memo.get(h)
        if c is None:
            lp = self.log_p[1:]
            t = np.arange(1, lp.size + 1, dtype=float)
            f = h + lp[0]
            for _ in range(200):
                a = lp + (h - f * t)
                top = float(a.max())
                w = np.exp(a - top)
                mass, moment = float(w.sum()), float(t @ w)
                step = (top + math.log(mass)) * mass / moment
                f += step
                if not step > 1e-15 * max(1.0, abs(f)):
                    break
            c = self._memo[h] = mass / moment
        return c


def _xi_worst(log_p: np.ndarray) -> np.ndarray:
    """worst[t] = max over tau = t..n_max-t of log p(t+tau) - log p(t) -
    log p(tau), for t = 1..n_max // 2 (entry 0 is -inf) and n_max the
    table's horizon: the worst ratio for each value of min(t, tau)."""
    n_max = log_p.size - 1
    half = n_max // 2
    worst = np.full(half + 1, -np.inf)
    for t in range(1, half + 1):
        vals = log_p[2 * t:n_max + 1] - log_p[t] - log_p[t:n_max - t + 1]
        worst[t] = float(vals.max())
    return worst


def compute_xi(log_p: np.ndarray) -> float:
    """Smallest xi on a 1e-3 bisection grid with
    log p(t+tau) <= log xi + xi*log min(t,tau) + log p(t) + log p(tau)
    for all t, tau >= 1 with t + tau <= n_max = log_p.size - 1.
    """
    half = (log_p.size - 1) // 2
    if half < 1:
        raise ValueError("need n_max >= 2 to constrain xi")
    worst = _xi_worst(log_p)
    m = np.arange(1, half + 1)
    log_m = np.log(m)
    w = worst[1:]

    def feasible(xi: float) -> bool:
        # xi * log m may overflow to +inf, which meets its bound
        with np.errstate(over="ignore"):
            return bool(np.all(math.log(xi) + xi * log_m >= w))

    lo, hi = 1e-6, 1.0
    if feasible(lo):
        return lo
    while not feasible(hi):
        hi *= 2.0
        if math.isinf(hi):
            raise ValueError(
                f"xi is beyond float range: the law's worst ratio "
                f"p(t+tau)/(p(t) p(tau)) is e^{float(w.max()):.6g}")
    while hi - lo > XI_GRID_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # a huge xi: floats are coarser than the grid
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def build_law(alpha: float, ell: EllSpec | None, n_max: int,
              normalize: bool = True) -> InterArrivalLaw:
    """Tabulate p(t) = ell(t)/t^(alpha+1) on 1..n_max.

    ell defaults to the constant 1.  With normalize, log_p is shifted by a
    constant so that the tabulated mass plus the analytic tail estimate
    equals 1 (so the tabulated part is a strict sub-probability, the
    deficit being the tail share).
    """
    if ell is None:
        ell = EllSpec("constant", 1.0)
    if not alpha >= 1.0:
        raise ValueError("alpha < 1 is not supported")
    if n_max < 2:
        raise ValueError("n_max >= 2 required")
    t = np.arange(1, n_max + 1, dtype=float)
    # a huge alpha overflows (alpha + 1) log t: log p(t) = -inf there,
    # which the law refuses
    with np.errstate(over="ignore"):
        raw = ell.log_ell(t) - (alpha + 1.0) * np.log(t)
    tail = _analytic_tail(ell, alpha, n_max)
    if normalize:
        m = float(np.max(raw))
        total = math.exp(m) * float(np.sum(np.exp(raw - m))) + tail
        shift = math.log(total)
        raw = raw - shift
        tail = tail / total
    return InterArrivalLaw(np.concatenate(([LOG_ZERO], raw)), tail)


def law_from_table(p_values, normalized: bool = False) -> InterArrivalLaw:
    """Raw-table law from positive probabilities p(1), p(2), ... (test
    laws); with normalized, the table must have mass <= 1."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("need at least p(1), p(2)")
    if not np.all(p > 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("table entries must be positive and finite")
    if normalized and p.sum() > 1.0 + 1e-12:
        raise ValueError("normalized table must have mass <= 1")
    return law_from_log_table(np.log(p))


def law_from_log_table(log_p_values) -> InterArrivalLaw:
    """Raw-table law given directly as log p(t); avoids linear-domain
    underflow for deep tails (e.g. geometric tables at large horizons)."""
    lp = np.asarray(log_p_values, dtype=float)
    if lp.ndim != 1 or lp.size < 2:
        raise ValueError("need at least p(1), p(2)")
    return InterArrivalLaw(np.concatenate(([LOG_ZERO], lp)))


def geometric_test_law(n_max: int = 64) -> InterArrivalLaw:
    """p(t) = 2^-t, the closed-form test law (xi = 1, pure h_c = 0)."""
    t = np.arange(1, n_max + 1, dtype=float)
    return law_from_log_table(-t * math.log(2.0))


@dataclass(frozen=True)
class DisorderLaw:
    """Mean-zero i.i.d. charge family: omega is param times a standard
    draw of the family (zero for the family "zero")."""

    family: str
    param: float

    def __post_init__(self):
        if self.family not in DISORDER_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not math.isfinite(self.param):
            raise ValueError(f"param = {self.param} is not finite")
        if self.family != "zero" and not self.param > 0.0:
            raise ValueError(f"param > 0 required for the {self.family} "
                             f"family (got {self.param})")

    @property
    def variance(self) -> float:
        return {
            "zero": 0.0,
            "gaussian": self.param ** 2,
            "uniform_centered": self.param ** 2 / 3.0,
            "rademacher": self.param ** 2,
            "shifted_exponential": self.param ** 2,
        }[self.family]

    @property
    def is_pure(self) -> bool:
        return self.variance == 0.0

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == "zero":
            return np.zeros(n)
        if self.family == "gaussian":
            return self.param * rng.standard_normal(n)
        if self.family == "uniform_centered":
            return rng.uniform(-self.param, self.param, n)
        if self.family == "rademacher":
            return self.param * (2.0 * rng.integers(0, 2, n) - 1.0)
        return self.param * (rng.standard_exponential(n) - 1.0)


def zero_disorder() -> DisorderLaw:
    return DisorderLaw("zero", 0.0)


def gaussian_disorder(sigma: float) -> DisorderLaw:
    return DisorderLaw("gaussian", sigma)


def uniform_disorder(half_width: float) -> DisorderLaw:
    return DisorderLaw("uniform_centered", half_width)


def rademacher_disorder(scale: float) -> DisorderLaw:
    return DisorderLaw("rademacher", scale)


def shifted_exponential_disorder(lam: float) -> DisorderLaw:
    """omega = lam*(Exp(1) - 1): one-sided heavy tail."""
    return DisorderLaw("shifted_exponential", lam)


DISORDER_FAMILIES = {
    "zero": lambda p: zero_disorder(),
    "gaussian": gaussian_disorder,
    "uniform_centered": uniform_disorder,
    "rademacher": rademacher_disorder,
    "shifted_exponential": shifted_exponential_disorder,
}


def _key(master_seed: int, sample_index: int) -> np.ndarray:
    # counter-mode derivation: the (seed, index) pair is the Philox key,
    # so streams for distinct indices never share counters
    if not 0 <= master_seed < 2 ** 64:
        raise ValueError("master_seed must fit in 64 bits")
    if not 0 <= sample_index < 2 ** 64:
        raise ValueError("sample_index must fit in 64 bits")
    return np.array([master_seed, sample_index], dtype=np.uint64)


def sample_disorder_block(law: DisorderLaw, n: int, master_seed: int,
                          first_index: int, count: int) -> np.ndarray:
    """Charges omega_1..omega_n (entry i is omega_{i+1}) for sample_index =
    first_index..first_index+count-1, one row per sample.  Row i comes from
    the stream keyed by (master_seed, first_index + i), so its bits do not
    depend on the blocking.

    One Philox serves the block: each row sets its state to that of a
    fresh Philox(key=...) (counter, buffer and cached uint32 cleared, the
    row's key), so a row draws the bits a new generator would, without
    the OS entropy a new one gathers for a seed it never uses."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if count < 1:
        raise ValueError("count >= 1 required")
    bits = np.random.Philox(key=_key(master_seed, first_index))
    rng = np.random.Generator(bits)
    fresh = bits.state
    out = np.empty((count, n))
    for i in range(count):
        fresh["state"]["key"] = _key(master_seed, first_index + i)
        bits.state = fresh
        out[i] = law.draw(rng, n)
    return out
