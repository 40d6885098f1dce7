"""Shared generators: small random instances with enumerable horizons,
and the 40-digit reference DP."""

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
