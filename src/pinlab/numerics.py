"""Log-domain encoding and truncated Taylor jets.

A nonnegative quantity is carried as its natural logarithm (a plain float),
with ``-inf`` (``LOG_ZERO``) as the distinguished encoding of exact zero.

A jet carries a quantity together with its first R derivatives in a
scalar parameter as two plain values: the zeroth-order value lives in
``scale`` (as a log), and ``coeffs`` holds the Taylor coefficients
normalized so that ``coeffs[0] == 1``.  Jets of positive quantities
therefore never overflow even when the underlying value has log-magnitude
in the thousands.  The zero jet has ``scale == -inf``.
The coefficients of log(jet) come from one power-series recursion,
``_log_series``, which works on many jets at once (one per row): the
batched cumulant kernels call it directly, and :func:`log_of_jet` is its
checked single-jet form.
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
