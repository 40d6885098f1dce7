"""Stated accuracy of the printed observables against 40-digit references.

Each test is one row of the README accuracy table: it computes the
observable with pinlab and with an mpmath recursion (or a closed form)
carried to 40 digits from the same float inputs, and asserts the bound
stated there.  The sizes are those the checks use, kept few so that the
references take a few seconds.
"""

import math

import mpmath as mp
import numpy as np

from pinlab.model import build_law, gaussian_disorder, geometric_test_law
from pinlab.quenched import QuenchedSystem

DIGITS = 40


def _mp_prefix(log_p, b, band=None):
    """Z_{0,k}, k = 0..n, in mpmath for the site log weights b, with every
    excursion capped at band when one is given."""
    n = len(b)
    p = [mp.mpf(0)] + [mp.exp(mp.mpf(float(x))) for x in log_p[1:n + 1]]
    z = [mp.mpf(1)]
    for k in range(1, n + 1):
        lo = 0 if band is None else max(0, k - band)
        z.append(mp.fdot(z[lo:k], p[k - lo:0:-1])
                 * mp.exp(mp.mpf(float(b[k - 1]))))
    return z


def _gaussian_system(h, n, seed):
    law = build_law(1.0, None, 512)
    omega = gaussian_disorder(1.0).draw(np.random.default_rng(seed), n)
    return law, QuenchedSystem(law, h, omega, n)


def test_prefix_log_z_against_mpmath():
    # bound 1e-14 relative (to max(1, |log Z|)) over k = 0..512; 2.1e-15
    law, sys_ = _gaussian_system(3.0, 512, 5)
    with mp.workdps(DIGITS):
        ref = np.array([float(mp.log(z))
                        for z in _mp_prefix(law.log_p, sys_.site_weight[1:])])
    rel = np.abs(sys_.prefix_logZ - ref) / np.maximum(1.0, np.abs(ref))
    assert rel.max() <= 1e-14


def test_geometric_log_z_matches_closed_form():
    # p(t) = 2^-t at h = log 3 without disorder: Z_n = (3/4) 2^n for
    # n >= 1; bound 3e-13 relative up to n = 4096; 1.05e-13
    n = 4096
    sys_ = QuenchedSystem(geometric_test_law(n), math.log(3.0), None, n)
    with mp.workdps(DIGITS):
        want = np.array([float(mp.log(mp.mpf(3) / 4) + k * mp.log(2))
                         for k in range(1, n + 1)])
    rel = np.abs(sys_.prefix_logZ[1:] - want) / np.abs(want)
    assert rel.max() <= 3e-13


def test_max_excursion_cdf_against_mpmath():
    # P[M_n <= m] for m = 1..7, bound 5e-12 relative; 1.8e-12, at
    # (h = 3, n = 512, m = 7), where log Z is about 1500 and its roundoff
    # sets the error of the ratio
    worst = 0.0
    for h, n, seed in ((1.0, 64, 6), (1.0, 512, 7), (3.0, 512, 8)):
        law, sys_ = _gaussian_system(h, n, seed)
        b = sys_.site_weight[1:]
        with mp.workdps(DIGITS):
            z_n = _mp_prefix(law.log_p, b)[n]
            for m in range(1, 8):
                want = _mp_prefix(law.log_p, b, m)[n] / z_n
                got = sys_.max_excursion_cdf(m)
                worst = max(worst, float(abs(got - want) / want))
    assert worst <= 5e-12
