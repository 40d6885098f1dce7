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


def mp_prefix(log_p, b, cap=None):
    """Z_{0,k}, k = 0..n, in mpmath at the working precision for the site
    log weights b, with every excursion capped at cap when one is given."""
    n = len(b)
    p = [mp.mpf(0)] + [mp.exp(mp.mpf(float(x))) for x in log_p[1:n + 1]]
    z = [mp.mpf(1)]
    for k in range(1, n + 1):
        lo = 0 if cap is None else max(0, k - cap)
        z.append(mp.fdot(z[lo:k], p[k - lo:0:-1])
                 * mp.exp(mp.mpf(float(b[k - 1]))))
    return z


def mp_pair_log_a(log_p, bw, digits=40):
    """log a_j, j = 1..W, of the two-replica avoidance on a window whose
    site x carries log weight bw[x] (bw[0] is not read), from the pair
    recursion of ``quenched._pair_forward`` in linear domain, carried to
    `digits` digits: a_j = A_j / Z_j^2, A_j the weight of the pairs of
    paths on [0, j] with disjoint interior contact sets and Z_j the
    window's partition function cut at j.

    State (u, v), u < v: the replicas' latest contacts.  A new point t
    extends the trailing replica (gap t-u, to (v, t)) or the leading one
    (gap t-v, to (u, t)), or closes both at t; from (0, 0) either replica
    of the empty pair jumps to t."""
    w = len(bw) - 1
    out = np.empty(w)
    with mp.workdps(digits):
        p = [mp.mpf(0)] + [mp.exp(mp.mpf(float(x))) for x in log_p[1:w + 1]]
        e = [mp.exp(mp.mpf(float(x))) for x in bw]
        z = mp_prefix(log_p, bw[1:])
        # cols[v][u] and rows[u][v - u - 1] both hold the state (u, v)
        cols, rows = [None], [[] for _ in range(w)]
        for t in range(1, w + 1):
            q = [p[t - x] for x in range(t)]
            trail = [mp.fdot(cols[v], q[:v]) for v in range(1, t)]
            close = p[t] ** 2 + mp.fdot(trail, q[1:])
            out[t - 1] = float(mp.log(close * e[t] ** 2 / z[t] ** 2))
            col = [mp.fdot(rows[u], q[u + 1:]) for u in range(t)]
            col[0] += 2 * p[t]
            for v in range(1, t):
                col[v] += trail[v - 1]
            cols.append([c * e[t] for c in col])
            for u in range(t):
                rows[u].append(cols[t][u])
    return out


def mp_log_prefix(log_p, b, digits=40):
    """log Z_{0,k}, k = 0..n, of mp_prefix carried to `digits` digits."""
    with mp.workdps(digits):
        return np.array([float(mp.log(z)) for z in mp_prefix(log_p, b)])


def ld_log_z(log_p, b, cap=None):
    """log Z_{0,n} as a long double for the site log weights b, with every
    excursion capped at cap when one is given, from the linear DP run in
    np.longdouble (the x87 80-bit format, eps 1.08e-19).  Column j is
    stored as Z_{0,j} e^{-C_j}, C_j the integer nearest to log Z_{0,j}, as
    in ld_cumulants, so every factor e^{C_j - C_k} is exact to long-double
    roundoff; a step sums its whole window, so nothing is left out."""
    ld = np.longdouble
    n = len(b)
    cap = n if cap is None else cap
    p = np.exp(log_p[1:n + 1].astype(ld))
    lb = b.astype(ld)
    y = np.zeros(n + 1, dtype=ld)
    y[0] = 1
    scale = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, n + 1):
        lo = max(0, k - cap)
        rel = np.exp((scale[lo:k] - scale[k - 1]).astype(ld))
        # p(k - j) for j = lo..k-1
        s = (y[lo:k] * rel) @ p[k - lo - 1::-1]
        scale[k] = scale[k - 1] + round(float(np.log(s) + lb[k - 1]))
        y[k] = s * np.exp(lb[k - 1] + (scale[k - 1] - scale[k]))
    return scale[n] + np.log(y[n])


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


def ld_cumulants(log_p, b, r_max, centre, cut=200.0):
    """[log Z_{0,n}, kappa_1, .., kappa_r_max] of the contact number L_n
    for the site log weights b, from the centred moment DP of
    ``quenched._forward`` at an order run in np.longdouble (the x87
    80-bit format, eps 1.08e-19), centred at c = centre:

        Y_m[k] / m! = p(1) e^{b_k} sum_{i+e=m} sum_j (Y_i[j] / i!)
                      q(k-j) d(k-j)^e / e!,  q = p / p(1), d(t) = 1 - c t.

    Column j is stored as Y_m[j] / m! times e^{-C_j}, under a log scale of
    its own, the integer C_j nearest to log Z_{0,j}: log Z reaches 2.5e4
    at n = 8192, past the long-double range (e^11356), and an integer
    scale makes every factor e^{C_j - C_k} exact to long-double roundoff.
    Step k leaves out the columns j whose scale sits more than cut nats
    below the largest scale so far; as |Y_i[j]| <= n^i Y_0[j] and |d| <=
    n, they would move a step's sums by at most n^(2 r_max + 1) e^-cut of
    its first term (1e-52 at n = 8192, order 4), provided the scale never
    falls 50 nats below its running max, which is asserted."""
    ld = np.longdouble
    n = len(b)
    width = r_max + 1
    e = np.arange(width)
    fact = np.array([math.factorial(m) for m in e], dtype=ld)
    gap = np.arange(n, 0, -1, dtype=ld)
    # w[n - t, e] = q(t) d(t)^e / e!, so that the gaps k - j of the columns
    # j = lo..k-1 are the rows n - k + lo..n - 1
    lq = log_p[n:0:-1].astype(ld) - ld(log_p[1])
    w = np.exp(lq)[:, None] * (1 - ld(centre) * gap)[:, None] ** e / fact
    lb = ld(log_p[1]) + b.astype(ld)
    y = np.zeros((n + 1, width), dtype=ld)
    y[0, 0] = 1
    scale = np.zeros(n + 1, dtype=np.int64)
    top, lo = 0, 0
    for k in range(1, n + 1):
        while scale[lo] < top - cut:
            lo += 1
        rel = np.exp((scale[lo:k] - scale[k - 1]).astype(ld))
        s = (y[lo:k] * rel[:, None]).T @ w[n - k + lo:]
        col = np.array([np.trace(s[:, ::-1], offset=r_max - m)
                        for m in e])
        log_step = float(np.log(col[0]) + lb[k - 1])
        scale[k] = scale[k - 1] + round(log_step)
        y[k] = col * np.exp(lb[k - 1] + (scale[k - 1] - scale[k]))
        top = max(top, int(scale[k]))
        assert scale[k] > top - 50
    # the cumulants of L_n - c n by the log-series recursion
    coef = y[n] / y[n, 0]
    g = np.zeros(width, dtype=ld)
    for m in range(1, width):
        g[m] = coef[m] - sum(i * g[i] * coef[m - i] for i in range(1, m)) / m
    kappa = g * fact
    kappa[0] = scale[n] + np.log(y[n, 0])
    if r_max:
        kappa[1] += ld(centre) * n
    return kappa


def mp_contact_pmf(log_p, b, digits=40):
    """log P[L_n = l], l = 0..n, of the contact number of the chain with
    site log weights b (b[k-1] is site k's), from the count DP carried to
    `digits` digits:

        W_l[k] = e^{b_k} sum_j p(k-j) W_{l-1}[j],  W_0 = (1, 0, .., 0),

    W_l[k] the weight of the paths pinned at k with l contacts, so that
    P[L_n = l] = W_l[n] / sum_l W_l[n].  Entry l is -inf where W_l[n] is
    0 (l = 0 for n >= 1)."""
    n = len(b)
    with mp.workdps(digits):
        p = [mp.mpf(0)] + [mp.exp(mp.mpf(float(x))) for x in log_p[1:n + 1]]
        e = [mp.exp(mp.mpf(float(x))) for x in b]
        w = [mp.mpf(1)] + [mp.mpf(0)] * n
        at_n = [w[n]]
        for l in range(1, n + 1):
            # W_l[k] is 0 for k < l: l contacts need l sites
            new = [mp.mpf(0)] * (n + 1)
            for k in range(l, n + 1):
                new[k] = e[k - 1] * mp.fdot(w[l - 1:k], p[k - l + 1:0:-1])
            w = new
            at_n.append(w[n])
        z = mp.fsum(at_n)
        return np.array([float(mp.log(v / z)) if v else -math.inf
                          for v in at_n])
