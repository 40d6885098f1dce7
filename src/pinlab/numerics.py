"""Log-domain encoding and the log-series recursion.

A nonnegative quantity is carried as its natural logarithm (a plain float),
with ``-inf`` (``LOG_ZERO``) as the distinguished encoding of exact zero.

Cumulants come from Taylor coefficients normalized so that
``coeffs[0] == 1``: those in s of E[e^{s X}], X the contact number L_k
centred at c k, of the centred moment rows (E[X^m] / m!).  The
coefficients of their log come from one power-series recursion,
``_log_series``, which works on many rows at once: the batched cumulant
kernels call it directly, and :func:`log_of_jet` is its checked
single-row form, which carries the log scale (log Z) along.  It keeps
the name of the Taylor jets it once served, since a truncated series
with its log scale is still a jet, and the benchmark traces it under
that name.  ``DEFAULT_JET_ORDER`` is the largest order a
``QuenchedSystem`` gives cumulants at.

``normal_cdf`` is the standard normal CDF of the KS distances, by
``math.erfc``, so that no run imports scipy for it; ``log_sum_exp`` is
the log of a sum of log-domain scalars (the enumeration oracle's
partition sums, C13's head masses), ``log_mean_exp`` the estimators' log
of a mean of log-domain samples.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = -math.inf

DEFAULT_JET_ORDER = 8


def _log_series(f: np.ndarray) -> np.ndarray:
    """Taylor coefficients of log(1 + f1 x + ... + fR x^R), one row each.

    f has rows (1, f1, ..., fR); the result has rows (0, g1, ..., gR) from
    the power-series recursion g_k = f_k - (1/k) sum_{i=1}^{k-1} i g_i f_{k-i}.
    Every operation is row-local, so a row's result does not depend on the
    other rows."""
    rows, width = f.shape
    g = np.zeros((rows, width))
    for k in range(1, width):
        s = np.zeros(rows)
        for i in range(1, k):
            s += i * g[:, i] * f[:, k - i]
        g[:, k] = f[:, k] - s / k
    return g


def log_of_jet(scale: float, coeffs) -> np.ndarray:
    """Taylor coefficients of log(jet), zeroth term included.

    Returns g with g[0] = scale and, for k >= 1, the k-th coefficient of
    log(1 + c1 x + ... + cR x^R) (see :func:`_log_series`).
    """
    c = np.asarray(coeffs, dtype=float)
    if math.isnan(scale) or np.isnan(c).any():
        raise ValueError("log_of_jet: NaN coefficient")
    if scale == LOG_ZERO:
        raise ValueError("log of the zero jet")
    g = _log_series(c[None, :])[0]
    g[0] = scale
    return g


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


def log_mean_exp(x) -> float:
    """log mean exp(x) = m + log mean exp(x - m), m = max x, of the
    nonempty array x (a ValueError when empty): -inf when every entry is
    -inf."""
    x = np.asarray(x, dtype=float)
    m = float(np.max(x))
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(float(np.mean(np.exp(x - m))))


def normal_cdf(z) -> np.ndarray:
    """Phi(z) = erfc(-z / sqrt 2) / 2 of each entry of z, as a float array
    of z's shape: within 2.2e-16 absolute of the exact value on
    [-38, 9] (tests/test_accuracy.py)."""
    z = np.asarray(z, dtype=float)
    u = (-z / math.sqrt(2.0)).ravel().tolist()
    return 0.5 * np.array([math.erfc(x) for x in u]).reshape(z.shape)
