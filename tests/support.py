"""Shared generators: small random instances with enumerable horizons,
and the 40-digit reference DP."""

import math

import mpmath as mp
import numpy as np

from pinlab.model import (
    gaussian_disorder,
    law_from_table,
    rademacher_disorder,
    shifted_exponential_disorder,
    uniform_disorder,
    zero_disorder,
)


def random_disorder(rng):
    pick = int(rng.integers(0, 5))
    if pick == 0:
        return zero_disorder()
    if pick == 1:
        return gaussian_disorder(float(rng.uniform(0.2, 1.5)))
    if pick == 2:
        return uniform_disorder(float(rng.uniform(0.2, 2.0)))
    if pick == 3:
        return rademacher_disorder(float(rng.uniform(0.2, 1.5)))
    return shifted_exponential_disorder(float(rng.uniform(0.5, 2.0)))


def random_law(rng, size_lo=2, size_hi=15):
    size = int(rng.integers(size_lo, size_hi + 1))
    table = rng.uniform(0.05, 1.0, size)
    if rng.random() < 0.5:
        return law_from_table(table / table.sum(), normalized=True)
    # sub-probability table: positive mass strictly below 1
    table *= float(rng.uniform(0.2, 0.999)) / table.sum()
    return law_from_table(table)


def random_instance(rng, n_lo=1, n_hi=14):
    """(law, h, omega, n): law horizon covers n, h in [-2, 4]."""
    n = int(rng.integers(n_lo, n_hi + 1))
    law = random_law(rng, size_lo=max(2, n), size_hi=n_hi + 2)
    h = float(rng.uniform(-2.0, 4.0))
    omega = random_disorder(rng).draw(rng, n)
    return law, h, omega, n


def mp_prefix(log_p, b, band=None):
    """Z_{0,k}, k = 0..n, in mpmath at the working precision for the site
    log weights b, with every excursion capped at band when one is given."""
    n = len(b)
    p = [mp.mpf(0)] + [mp.exp(mp.mpf(float(x))) for x in log_p[1:n + 1]]
    z = [mp.mpf(1)]
    for k in range(1, n + 1):
        lo = 0 if band is None else max(0, k - band)
        z.append(mp.fdot(z[lo:k], p[k - lo:0:-1])
                 * mp.exp(mp.mpf(float(b[k - 1]))))
    return z


def mp_log_prefix(log_p, b, band=None, digits=40):
    """log Z_{0,k}, k = 0..n, of mp_prefix carried to `digits` digits."""
    with mp.workdps(digits):
        return np.array([float(mp.log(z))
                         for z in mp_prefix(log_p, b, band)])


def mp_suffix(log_p, w):
    """Z_{[a, n]}, a = 0..n, in mpmath at the working precision for the site
    log weights w[0..n] (w[a] is site a's; site a's own weight is not in
    Z_{[a, n]})."""
    n = len(w) - 1
    p = [mp.exp(mp.mpf(float(x))) for x in log_p[1:n + 1]]
    # u[x] = e^{w_x} Z_{[x, n]}: Z_{[a, n]} sums p(x - a) u[x], x > a
    u = [mp.mpf(0)] * (n + 1)
    z = [mp.mpf(0)] * (n + 1)
    z[n] = mp.mpf(1)
    for a in range(n - 1, -1, -1):
        u[a + 1] = mp.exp(mp.mpf(float(w[a + 1]))) * z[a + 1]
        z[a] = mp.fdot(p[:n - a], u[a + 1:])
    return z


def mp_cumulants(log_p, b, r_max, digits=40, keep=115.0):
    """[log Z_{0,n}, kappa_1, .., kappa_r_max] of the contact number L_n
    for the site log weights b, from the raw moment DP carried to `digits`
    digits:

        Y_m[k] = e^{b_k} sum_j p(k-j) sum_{i<=m} C(m, i) Y_i[j],

    Y_m[k] the sum over paths pinned at k of L_k^m times their weight.
    Step k leaves out the oldest sites j whose terms p(k-j) Y_0[j], times
    n^r_max, add up to at most e^-keep of its largest term (decided in
    floats from log Y_0).  Since |Y_m[j]| <= j^m Y_0[j] and L_k >= 1, that
    moves each raw moment of a step by at most e^-keep relative, so the
    cumulants, whose cancellation is below 1e20 at the sizes tested here,
    by far less than 1e-20."""
    n = len(b)
    lz = np.empty(n + 1)
    lz[0] = 0.0
    with mp.workdps(digits):
        p = [mp.mpf(0)] + [mp.exp(mp.mpf(float(x))) for x in log_p[1:n + 1]]
        binom = [[mp.mpf(math.comb(m, i)) for i in range(m + 1)]
                 for m in range(r_max + 1)]
        rows = [[mp.mpf(1)]] + [[mp.mpf(0)] for _ in range(r_max)]
        slack = keep + r_max * math.log(n)
        for k in range(1, n + 1):
            terms = lz[:k] + log_p[k:0:-1]
            cum = np.logaddexp.accumulate(terms)
            j0 = int((cum <= terms.max() - slack).sum())
            w = p[k - j0:0:-1]
            t = [mp.fdot(row[j0:k], w) for row in rows]
            e = mp.exp(mp.mpf(float(b[k - 1])))
            for m, row in enumerate(rows):
                row.append(e * mp.fdot(binom[m], t[:m + 1]))
            lz[k] = float(mp.log(rows[0][k]))
        z = rows[0][n]
        raw = [row[n] / z for row in rows]
        kappa = [mp.log(z)]
        for m in range(1, r_max + 1):
            kappa.append(raw[m] - mp.fsum(math.comb(m - 1, i - 1) * kappa[i]
                                          * raw[m - i] for i in range(1, m)))
        return np.array([float(x) for x in kappa])
