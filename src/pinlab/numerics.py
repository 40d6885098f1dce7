"""Log-domain scalars and truncated Taylor jets.

A nonnegative quantity is carried as its natural logarithm (a plain float),
with ``-inf`` as the distinguished encoding of exact zero.  Sums of such
quantities always go through :func:`log_sum_exp`, so no intermediate
``exp`` can overflow or underflow.

A :class:`ScaledJet` carries a quantity together with its first ``order``
derivatives in a scalar parameter: the zeroth-order value lives in ``scale``
(as a log), and ``coeffs`` holds the Taylor coefficients normalized so that
``coeffs[0] == 1``.  Jets of positive quantities therefore never overflow
even when the underlying value has log-magnitude in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LOG_ZERO = -math.inf

DEFAULT_JET_ORDER = 8


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


def log_mean_exp(values) -> float:
    """log of the arithmetic mean of exp(values); empty input is an error."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("log_mean_exp: empty input")
    return log_sum_exp(arr) - math.log(arr.size)


@dataclass(frozen=True)
class ScaledJet:
    """Truncated Taylor jet with a separate log scale.

    ``scale`` is the log of the zeroth-order value; ``coeffs[k]`` is the
    k-th Taylor coefficient divided by the zeroth-order value, so
    ``coeffs[0] == 1`` whenever the jet is nonzero.  The zero jet has
    ``scale == -inf``.
    """

    scale: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if math.isnan(self.scale) or np.isnan(c).any():
            raise ValueError("ScaledJet: NaN coefficient")
        if self.scale != LOG_ZERO and c[0] != 1.0:
            raise ValueError("ScaledJet: coeffs[0] must be 1 for a nonzero jet")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def log_of_jet(j: ScaledJet) -> np.ndarray:
    """Taylor coefficients of log(jet), zeroth term included.

    Returns g with g[0] = scale and, for k >= 1, the k-th coefficient of
    log(1 + c1 x + ... + cR x^R) by the power-series recursion
    g_k = c_k - (1/k) sum_{i=1}^{k-1} i g_i c_{k-i}.
    """
    if j.scale == LOG_ZERO:
        raise ValueError("log of the zero jet")
    f = j.coeffs
    g = np.zeros(j.order + 1)
    g[0] = j.scale
    for k in range(1, j.order + 1):
        s = 0.0
        for i in range(1, k):
            s += i * g[i] * f[k - i]
        g[k] = f[k] - s / k
    return g
