"""Exact dynamic programming for a fixed environment (n, h, omega).

All weights enter as e^{h+omega_a} per contact and p(t) per excursion, so
every quantity here is a deterministic functional of the charge vector.
Every partition table comes from one O(n^2) forward recursion,

    Z_{0,k} = sum_{t=1..k} Z_{0,k-t} p(t) e^{h+omega_k},

run by ``_forward`` over a batch of weight rows under one law p, each
row with an optional band: the prefix table is one row, the suffix
table is the recursion on the reversed weights, the segment table runs
one row per start site, and the restricted-excursion partition with cap
b is a row with band b.  Disorder Monte Carlo runs the same engine on
blocks of samples.  ``_forward`` steps in linear domain: each row is
stored as Z_{0,j} e^{-C_r} under one log scale C_r, and a step is one dot
product of the row with p(k-j)/p(1), 0 past the row's band, then one log
and one exp per row, so no term pays an exp.  A new entry above e^300 of
the scale becomes the scale; a banded row whose window keeps no entry
within e^-200 of it is recomputed from the log table; entries below
1e-290 of the scale are exact zeros, and the dot skips the columns that
are zero in every row.  A flush certificate computed from the law
decides, per band, whether that is exact to double precision.  A band
on which log p spans too many nats runs the same step under the tilted
law p(t) e^{lam t}: the gaps of a path pinned at k sum to k, so the tilt
multiplies Z_{0,k} by e^{lam k}, and lam k is subtracted from its log.
The tilt flattens the geometric law exactly; a law it cannot bring under
the certificate, one far from log-linear, is refused with a ValueError.

Derivatives of log Z in h (cumulants of the contact number L) come from
``_moments``: the same linear step carries, besides Z, the rows Y_m[k],
the sums over paths pinned at k of (L_k - c k)^m times their weight for
m <= R, under Y_0's scale, one stacked matmul per step.  The centre c
is the homogeneous chain's contact density at h
(``InterArrivalLaw.contact_density``), a function of the law and h
only, so a row's cumulants depend on nothing but its weights.  Each row
may have its own centre: rows that share one share one weight table,
and rows with distinct centres each get their own.  It is batched, and
serves ``QuenchedSystem.cumulants`` (one row), the per-sample cumulant
and kappa_1 kernels of disorder Monte Carlo (a block of samples at one
h), and the grid of ``pinlab compute`` (one row per h, see
``cumulant_grid``); ``at`` keeps only the columns k a caller reads.  The
tilt multiplies every Y_m[k] by the same e^{lam k}, so it leaves the
moments unchanged.

The two-replica avoidance runs ``_pair_forward``, a recursion over the
pair of the two replicas' latest contacts, batched over windows and kept
in scaled linear domain (one log scale per column of the pair state), so
a step costs two matrix-vector products and O(t) exp/log rather than one
per state entry.

A ``QuenchedBlock`` holds the environments of one (law, h, n), one charge
row each, and runs the row-local engines once for all rows, each the
first time any row asks: the prefix table, the suffix table, each
(window, start) pair DP and the excursion caps up to m.  A reader of
log Z and the cumulants alone, such as ``pinlab compute``, takes log Z
as kappa_0 of ``QuenchedSystem.cumulants``, whose moment rows carry Z as
Y_0, and so runs no prefix DP; inside a ``cumulant_grid`` scope the
cumulants of a whole (h, n) grid of one environment come from one pass.
A ``QuenchedSystem`` is the view of one row; a standalone one is the one
row of its own block, so there is one code path, and every row reads
the bytes a one-row block would compute.
Segment tables and the contact law stay per system: they are
arithmetic-bound, and blocked they would cost memory (a (rows, n+1,
window+1) block of segment tables is 8.5 MB at 64 x 256 x 64; the count
DP of the contact law would take O(rows n^2)).

The contact law's count DP, ``_count_dp``, O(n^3) in full, takes an L1
budget.  At budget 0 it is exact.  At a budget > 0 (KS_L1_BUDGET for the
callers that read only the law's CDF, the KS distances) it leaves out the
old rows and the low columns whose mass a bound computed at run time
keeps within the budget, so a step costs O(T C), not O(k^2); the law
carries the sum of those bounds as ``l1_bound``, a certificate on its L1
distance to the full DP (roundoff not included).  The tail readers (C3,
C13) stay at budget 0.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import DEFAULT_JET_ORDER, LOG_ZERO, log_of_jet, normal_cdf

# (row, band) pairs per _forward pass of QuenchedBlock.excursion_logZ, so
# that caps near n cost O(64 n) memory, not O(n^2)
_BAND_PASS = 64


def _index(name: str, value, lo: int, hi) -> int:
    """value as an int, or a ValueError naming the argument when it is not
    an integer (bools included) in lo..hi."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} = {value!r} is not an integer")
    if not lo <= value <= hi:
        raise ValueError(f"{name} = {value} is outside {lo}..{hi}")
    return int(value)


def _checked(law, h: float, n) -> int:
    """The inputs of an environment at (law, h, n): n as an int, or a
    ValueError naming the bad argument unless n is an integer in
    0..law.n_max and h is finite."""
    n = _index("n", n, 0, law.n_max)
    if not math.isfinite(h):
        raise ValueError(f"h = {h} is not finite")
    return n


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only: block tables are shared by every row view."""
    a.flags.writeable = False
    return a


# The linear step of _forward stores row r as y[r, j] = Z_{0,j} e^{-C_r}.
# An entry below _FLUSH is stored as an exact 0; a new entry above
# e^_RESCALE becomes the row's scale (y = 1); a truncated row whose window
# keeps no entry of at least e^-_KEEP is rebuilt from the log table.
_FLUSH = 1e-290
_LOG_FLUSH = math.log(_FLUSH)
_RESCALE = 300.0
_KEEP = 200.0
# a step's dot runs over the columns k-L..k-1, L a multiple of _LANE: the
# BLAS dot then puts column j in the same accumulator lane, whatever L is
_LANE = 32
# the certificate's margins, in nats: partial sums stay below e^_OVERFLOW,
# and the flushed share of a step's sum below e^_DROPPED (2^-60)
_OVERFLOW = 700.0
_DROPPED = -60.0 * math.log(2.0)
# the reductions of a step, without the array methods' wrappers
_max, _min = np.maximum.reduce, np.minimum.reduce


def _gap_weights(q: np.ndarray, d: np.ndarray, width: int) -> np.ndarray:
    """q(t) d(t)^e / e! for e < width, one row per gap t: the weights of
    _moments' step for the gaps whose q and d entries are given."""
    e = np.arange(width)
    inv_fact = 1.0 / np.array([math.factorial(i) for i in e], dtype=float)
    return q[:, None] * (d[:, None] ** e) * inv_fact


def _linear_rows(log_p: np.ndarray, band: np.ndarray, b: np.ndarray,
                 order: int = 0, centre=0.0, at=None):
    """The linear step of _forward and _moments, for rows whose bands it
    certifies: row r runs under log_p cut at band[r] <= n.  Returns the
    (rows, n+1) table of log Z_{0,k}; with order R >= 1 (untruncated rows
    only) also the (rows, len(at), R+1) table of coefficients E[(L_k -
    c k)^m] / m! at the columns k of at (every k = 0..n when None), c =
    centre, one float for all rows or one per row (see _moments)."""
    rows, n = b.shape
    widest = int(band.max())
    banded = int(band.min()) < n
    lp1 = log_p[1]
    pad = _LANE
    width = order + 1
    # qrev[pad + widest - t] = p(t) / p(1) for t = 1..widest, so the weights
    # of an L-column window ending at k are qrev[pad+widest-L:pad+widest].
    # np.exp and np.log only ever see contiguous arrays: on other layouts
    # numpy may take a loop whose last bit differs, and a row's bits would
    # then depend on its batch's shape
    qrev = np.full(pad + widest, LOG_ZERO)
    np.subtract(log_p[widest:0:-1], lp1, out=qrev[pad:])
    np.exp(qrev, out=qrev)
    # the step's weights are the last `depth` entries of w, those of the
    # gaps depth - pad .. 1 (a zero weight where that is below 1)
    depth = pad + widest
    if order:
        # w[..., depth - t, e] = q(t) d(t)^e / e!, d(t) = 1 - c t: the gap
        # t moves L - c k by d(t).  With y[:, i] = Y_i / i!, the step's
        # products are s[:, i, e] = S[i, e] / (i! e!), and the coefficient
        # of m is the sum of its antidiagonal i + e = m
        centre = np.asarray(centre, dtype=float)
        gaps = np.zeros(pad + widest)
        gaps[pad:] = np.arange(widest, 0, -1)
        if centre.ndim and (centre != centre[0]).any():
            # one table per row, grown as the windows widen: the windows
            # rarely span all of [1, n], and a row's entries are the
            # shared table's (_gap_weights, entry by entry)
            w, depth = np.empty((rows, 0, width)), 0
        else:
            w = _gap_weights(qrev, 1.0 - float(centre.flat[0]) * gaps, width)
        e = np.arange(width)
        antidiag = (e[:, None, None] + e[None, :, None]
                    == e[None, None, :]).astype(float).reshape(-1, width)
        # slot[k]: the column of coef that keeps k, or -1
        slot = range(n + 1)
        if at is not None:
            slot = [-1] * (n + 1)
            for j, k in enumerate(at):
                slot[k] = j
        coef = np.zeros((rows, n + 1 if at is None else len(at), width))
        if slot[0] >= 0:
            coef[:, slot[0], 0] = 1.0
    elif int(band.min()) < widest:
        # one weight row per row, 0 past its band: the masked entries add
        # exact zeros in the BLAS lanes the unmasked ones would use
        w = np.where(np.arange(pad + widest) >= pad + widest - band[:, None],
                     qrev, 0.0)[:, :, None]
    else:
        w = qrev[:, None]
    z = np.empty((rows, n + 1))
    z[:, 0] = 0.0
    # y[:, m, pad + j] holds Y_m[j] / m! under the row's scale
    y = np.zeros((rows, width, pad + n + 1))
    y[:, 0, pad] = 1.0
    scale = np.zeros(rows)
    # row r is 0 below first[r] in its window; lo is the min over rows
    first = np.zeros(rows, dtype=np.intp)
    lo = 0
    # the step after which a truncated row's latest entry of at least
    # e^-_KEEP leaves its window [k+1-band, k]
    expire = band.copy()
    for k in range(1, n + 1):
        cols = -(-(k - max(lo, k - widest)) // _LANE) * _LANE
        if cols > depth:
            # at least double the per-row tables, new gaps in front
            grow = min(pad + widest, max(cols, 2 * depth)) - depth
            part = np.empty((rows, grow, width))
            at_gaps = slice(pad + widest - depth - grow, pad + widest - depth)
            for r in range(rows):
                part[r] = _gap_weights(qrev[at_gaps],
                                       1.0 - centre[r] * gaps[at_gaps], width)
            w = np.concatenate((part, w), axis=1)
            depth += grow
        s = np.matmul(y[:, :, pad + k - cols:pad + k],
                      w[..., depth - cols:, :])
        s0 = s[:, 0, 0]
        t = np.log(s0)
        t += lp1
        t += b[:, k - 1]
        np.add(scale, t, out=z[:, k])
        if order:
            # one product per row over the fixed antidiagonal map, so a
            # row's coefficients do not depend on its block-mates
            ck = np.matmul(s.reshape(rows, 1, width * width), antidiag)[:, 0]
            ck /= s0[:, None]
            if slot[k] >= 0:
                coef[:, slot[k]] = ck
        if banded:
            np.copyto(expire, band + k, where=t >= -_KEEP)
        if _max(t) > _RESCALE:
            # the new entry is the rows' scale: their stored entries are
            # multiplied by one factor each, and those whose Y_0 falls
            # below _FLUSH flushed, every m of the column together
            r = np.flatnonzero(t > _RESCALE)
            zk = z[r, k]
            seg = y[r, :, pad + lo:pad + k]
            seg = seg * np.exp(scale[r] - zk)[:, None, None]
            np.copyto(seg, 0.0, where=seg[:, :1] < _FLUSH)
            y[r, :, pad + lo:pad + k] = seg
            nz = seg[:, 0] != 0.0
            first[r] = lo + np.where(nz.any(1), nz.argmax(1), k - lo)
            lo = int(first.min())
            scale[r] = zk
            t[r] = 0.0
        col = np.exp(t)
        if _min(t) < _LOG_FLUSH:
            col[col < _FLUSH] = 0.0
        y[:, 0, pad + k] = col
        if order:
            np.multiply(ck[:, 1:], col[:, None], out=y[:, 1:, pad + k])
        if banded and _min(expire) <= k:
            # rebuild each expired row's window from its log table, under
            # the window max as the new scale, and zero the columns before
            r = np.flatnonzero(expire <= k)
            start = np.maximum(k + 1 - band[r], 0)
            j0 = int(start.min())
            seg = np.where(np.arange(j0, k + 1) >= start[:, None],
                           z[r, j0:k + 1], LOG_ZERO)
            top = seg.max(1)
            seg -= top[:, None]
            last = k - (seg[:, ::-1] >= -_KEEP).argmax(1)
            np.exp(seg, out=seg)
            seg[seg < _FLUSH] = 0.0
            y[r, 0, pad + j0:pad + k + 1] = seg
            scale[r] = top
            expire[r] = last + band[r]
            first[r] = j0 + (seg != 0.0).argmax(1)
            lo = int(first.min())
    return (z, coef) if order else z


def _certified(log_p: np.ndarray, cut: np.ndarray, n: int,
               margin: float = 0.0) -> np.ndarray:
    """ok[r]: whether rows cut at the bands cut, 1 <= cut <= n, pass the
    linear step's certificate with margin nats added to both of its bounds
    (see _forward)."""
    lp = log_p[1:n + 1]
    # the extremes of log q = log p - log p(1) on [1, cut]
    top = np.maximum.accumulate(lp)[cut - 1] - lp[0]
    low = np.minimum.accumulate(lp)[cut - 1] - lp[0]
    log_n = math.log(n) + margin
    return ((log_n + _RESCALE + top <= _OVERFLOW)
            & (log_n + _LOG_FLUSH + _KEEP + top - low <= _DROPPED))


def _forward(log_p: np.ndarray, b: np.ndarray, band=None) -> np.ndarray:
    """log Z_{0,k} for k = 0..n of every row of the (rows, n) weights b.

    Row r is the chain whose site k carries log weight b[r, k-1], and
    whose excursions follow the one law log_p (log p(t) at index t), cut
    at band[r] >= 1 when band, one int per row, is given: the row's
    excursions are capped at its band B, and its steps cost O(B), not
    O(k).  log p is finite on [1, n] (see InterArrivalLaw).

    The step runs in linear domain.  Row r holds y[r, j] = Z_{0,j}
    e^{-C_r} under one log scale C_r, and step k is one dot product of
    the row with q(k-j) = p(k-j)/p(1), then one log and one exp per row:

        log Z_{0,k} = C_r + log(sum_j y[r, j] q(k-j)) + log p(1) + b[r, k-1].

    p is divided by p(1), so step 1 gives exactly log p(1) + b[r, 0].
    q is built once; when the bands differ, it is masked into one weight
    row per row, 0 past that row's band.
    Rescale rule: the scale starts at C = 0 (y[r, 0] = 1), and a new entry
    above e^_RESCALE becomes the scale, y = 1: the row's entries are
    multiplied by one factor.  An untruncated row's window (every j < k)
    thus always holds an entry of at least 1.  A truncated row's window
    [k-B, k-1] loses old entries; when it keeps none of at least e^-_KEEP,
    it is recomputed from the log table under the window max.  Entries
    below _FLUSH are stored as exact zeros, and the dot starts at the
    first column that is nonzero in some row (or at k - B for the largest
    band B), ends at k and spans a multiple of _LANE columns, so that a
    row's bits do not depend on its block-mates.

    Flush certificate: a step's sum is at least e^-_KEEP min q, and the
    flushed entries add at most n _FLUSH max q, so with q ranging over
    [1, B], the flushed share is below 2^-60 when
    log n + log _FLUSH + _KEEP + log(max q / min q) <= -60 log 2; max q
    is taken over all of [1, B], so a law whose p(t) is not monotone is
    covered.  No partial sum overflows when
    log n + _RESCALE + log max q <= _OVERFLOW.  Both are decided per band
    from the prefix max and min of log p on [1, n].

    Tilt: a row whose band fails either bound (log p spans more than
    about 420 nats on it: the geometric law past B of about 600) runs the
    same step under the tilted law p(t) e^{lam t}, one call per distinct
    band (see _tilted).  The gaps of a path pinned at k sum to k, so the
    tilt multiplies Z_{0,k} by e^{lam k}, which is subtracted again from
    its log.  A row whose tilted law fails too raises a ValueError.  So
    every row's table depends only on its weights, its law, its band and
    n.

    Under an untruncated law, -inf weights give -inf entries, never NaN.
    A truncated row needs finite weights: z[:, 0] leaves its window after
    B steps, so B consecutive -inf weights leave a window without a
    finite entry, and NaN."""
    rows, n = b.shape
    if not (n and rows):
        return np.zeros((rows, n + 1))
    cut = np.full(rows, n) if band is None else np.minimum(band, n)
    ok = _certified(log_p, cut, n)
    if ok.all():
        return _linear_rows(log_p, cut, b)
    z = np.empty((rows, n + 1))
    lin = np.flatnonzero(ok)
    if lin.size:
        z[lin] = _linear_rows(log_p, cut[lin], b[lin])
    for c in np.unique(cut[~ok]):
        r = np.flatnonzero(~ok & (cut == c))
        tilted, lam = _tilted(log_p, int(c), n)
        z[r] = _linear_rows(tilted, cut[r], b[r]) - lam * np.arange(n + 1)
    return z


def _tilted(log_p: np.ndarray, cut: int, n: int,
            margin: float = 0.0) -> tuple[np.ndarray, float]:
    """The law of the rows cut at cut, tilted for the linear step:
    (log p(t) + lam t for t = 0..cut, lam), lam the chord slope
    (log p(1) - log p(cut)) / (cut - 1) of log p on [1, cut].  That tilt
    gives p(1) and p(cut) the same weight, so it flattens the geometric
    law exactly, and for a log-convex law (a power law) it is the tilt of
    least span.  A ValueError names the span when the tilted law still
    fails the certificate with margin at n (see _forward)."""
    lam = (log_p[1] - log_p[cut]) / (cut - 1) if cut > 1 else 0.0
    tilted = log_p[:cut + 1] + lam * np.arange(cut + 1)
    if not _certified(tilted, np.array([cut]), n, margin)[0]:
        # both bounds hold when the span is at most the overflow bound's
        # room, the smaller of the two
        span = tilted[1:].max() - tilted[1:].min()
        room = _OVERFLOW - _RESCALE - math.log(n) - margin
        raise ValueError(
            f"log p spans {span:.1f} nats on [1, {cut}] after the tilt by "
            f"{lam:.6g} per step, past the {room:.1f} nats that the linear "
            f"step certifies at n = {n}")
    return tilted, lam


def _moment_certificate(log_p: np.ndarray, n: int,
                        order: int) -> tuple[bool, float]:
    """(ok, margin) of the linear step's certificate for _moments at n and
    order R: _certified over [1, n] with margin = 2 R log(2n) nats.  The
    margin, log n and the span of log p on [1, n] all grow with n, so a
    law that passes at n passes at every smaller n."""
    margin = 2 * order * math.log(2.0 * n)
    return bool(_certified(log_p, np.array([n]), n, margin)[0]), margin


def _moments(log_p: np.ndarray, b: np.ndarray, order: int, centre,
             at=None) -> tuple[np.ndarray, np.ndarray]:
    """Centred moments of the contact number of every row of the (rows, n)
    weights b, n >= 1, under the one law log_p: returns (sc, coef) with
    sc[r, k] = log Z_{0,k} and coef[r, k, m] = E[(L_k - c_r k)^m] / m! for
    m = 0..order, order >= 1: the Taylor coefficients in s of
    E[e^{s (L_k - c_r k)}] (L_k the contacts of the chain pinned at k).
    centre is c_r, 0 <= c_r <= 1: one float for every row, or one per
    row.  So kappa_1 of row r at k is coef[r, k, 1] + c_r k, and the
    higher cumulants come from coef[r, k] by the log-series recursion.
    With at, a list of columns, sc and coef keep only the columns k of
    at, in its order: the pass is the same, and those columns keep their
    bits.

    With Y_m[k] the sum over paths pinned at k of (L_k - c k)^m times
    their weight, a contact at k after a gap t moves L - c k by
    d(t) = 1 - c t, so

        Y_m[k] = p(1) e^{b[r, k-1]} sum_{i <= m} C(m, i) S[i, m-i],
        S[i, e] = sum_j Y_i[j] q(k-j) d(k-j)^e,  q = p / p(1).

    Y_0 is _forward's recursion.  _linear_rows stores Y_m / m! under
    Y_0's one log scale per row, so a step is one stacked matmul
    (rows, R+1, L) @ (L, R+1) against q d^e / e!, whose antidiagonal
    sums, one fixed product per row, are the new column's coefficients;
    every m of a column is flushed together when its Y_0 is.  Rows that
    share one centre share one weight table; rows with distinct centres
    each get their own, built entry by entry as the shared one would be,
    so a row's bits do not depend on its block-mates' centres.

    Certificate: for 0 <= c <= 1, |L_j - c j| <= j <= n and |d| <= n, so
    |Y_i[j]| <= Y_0[j] n^i, and a term of S[i, e], i, e <= R, is at most
    n^(2R) times its Y_0 term.  The linear step's two bounds (see
    _forward) are therefore required with 2 R log(2n) nats added
    (_moment_certificate): then no partial sum overflows, and the
    flushed entries move each S[i, e] by at most 2^-60 S[0, 0], so each
    coefficient m of a new column by at most 2^-60 2^m / m!.  A law that
    fails them is tilted as in _forward, lam the chord slope over [1, n]:
    the tilt multiplies every Y_m[k] by the same e^{lam k}, so the
    coefficients keep their values and lam k leaves log Z_{0,k} only."""
    n = b.shape[1]
    ok, margin = _moment_certificate(log_p, n, order)
    lam = 0.0
    if not ok:
        log_p, lam = _tilted(log_p, n, n, margin)
    sc, coef = _linear_rows(log_p, np.full(b.shape[0], n), b, order, centre,
                            at)
    if at is not None:
        sc = sc[:, at]
    if lam:
        sc -= lam * (np.arange(n + 1) if at is None else np.asarray(at))
    return sc, coef


def _pair_forward(log_p: np.ndarray, bw: np.ndarray,
                  zseg: np.ndarray) -> np.ndarray:
    """log a_j for j = 0..W of every row of the (rows, W+1) window weights
    bw: bw[r, x] is the log weight of the window's site x (column 0 is not
    read) and zseg[r, j] is log Z of the window cut at j.  Entry 0 is nan.

    a_j sums over pairs of paths on [0, j] with disjoint interior contact
    sets, ordered by their merged contact points.  State (u, v): the two
    replicas' latest points, u < v.  A new point t > v extends either the
    trailing replica (gap t-u, to state (v, t)) or the leading one (gap
    t-v, to state (u, t)); closing the window at t sends both to t.

    The state is kept in scaled linear domain: column v is stored as
    exp(log state(., v) - scale[:, v]), one log scale per row and column.
    A step folds the column scales and p(t-v) into one vector q scaled by
    its max k, and weights the rows by p(t-u) scaled by its max; the two
    extensions are then stacked matrix-vector products, and a step costs
    O(t) exp/log instead of one per state entry.  All terms are
    nonnegative, so nothing cancels.  A term underflows only when its
    state entry lies ~1e-308 below its column's max, or its p(t-u) below
    the step's largest gap weight: far past any window and law in use."""
    rows, width = bw.shape
    w = width - 1
    sites = np.arange(w + 1)
    gap = sites[:, None] - sites[None, :]
    # lpt[t, u] = log p(t-u), -inf for u >= t; pt is it scaled by its row
    # max lps[t], so the largest gap weight of every step is exactly 1
    lpt = np.where(gap >= 1, log_p[np.clip(gap, 1, None)], LOG_ZERO)
    lps = lpt.max(1)
    lps[0] = 0.0
    pt = np.exp(lpt - lps[:, None])
    base = 2.0 * (log_p[1:w + 1] + bw[:, 1:])  # close with no interior point
    # leave (0, 0): one replica (either of the two) jumps to t
    split = math.log(2.0) + log_p[1:w + 1]
    g = np.zeros((rows, w, w))  # g[:, u, v], u < v, columns v >= 1
    scale = np.empty((rows, w))
    out = np.empty((rows, w + 1))
    out[:, 0] = np.nan
    with np.errstate(divide="ignore"):
        for t in range(1, w + 1):
            close = base[:, t - 1]
            if t >= 2:
                s = scale[:, 1:t] + lpt[t, 1:t]
                k = s.max(1)
                q = np.exp(s - k[:, None])
                grid = g[:, :t - 1, 1:t]
                p_t = pt[t, :t - 1]
                lead = np.matmul(grid, q[:, :, None])[:, :, 0]  # u = 0..t-2
                trail = np.matmul(p_t, grid)                     # v = 1..t-1
                pairs = np.matmul(lead[:, None, :], p_t[:, None])[:, 0, 0]
                close = np.logaddexp(
                    close, k + lps[t] + np.log(pairs) + 2.0 * bw[:, t])
            out[:, t] = close
            if t == w:
                break
            col = np.full((rows, t), LOG_ZERO)
            if t >= 2:
                col[:, :-1] = k[:, None] + np.log(lead)
                col[:, 1:] = np.logaddexp(
                    col[:, 1:], scale[:, 1:t] + lps[t] + np.log(trail))
            col[:, 0] = np.logaddexp(col[:, 0], split[t - 1])
            m = col.max(1)
            g[:, :t, t] = np.exp(col - m[:, None])
            scale[:, t] = m + bw[:, t]
    out[:, 1:] -= 2.0 * zseg[:, 1:]
    return out


# L1 budget of the count DP for the callers that read the contact law only
# through its CDF: the KS distances of C2 and of scan's ks_quenched
KS_L1_BUDGET = 1e-14
# steps between attempts to move the count DP's band and column window
_ADVANCE = 16


def _count_dp(pre: np.ndarray, log_p: np.ndarray, b: np.ndarray,
              budget: float) -> tuple[np.ndarray, float]:
    """Row n of the count DP of QuenchedSystem.contact_law with at most
    budget of L1 mass left out: returns (r, l1), the pmf of L_n as
    computed and a bound l1 <= budget on its L1 distance to the pmf of the
    full DP.

    Step k is r_k[l] = sum_j g_k(j) r_j[l-1] over the last contact j < k,
    with g_k(j) = exp(pre[j] + log p(k-j) + b_k - pre[k]) summing to 1.
    It leaves out the rows j < s_k, and the columns below c_k of the rows
    it reads.  Each step is substochastic, so the L1 error of r_k is at
    most the mass left out at step k plus the largest error of a row it
    reads (with that row's columns left out), and the errors add up along
    the steps to at most
      * the band: sum_{j<s} g_k(j) <= s exp(max pre[:s] + max_{t>k-s}
        log p(t) + b_k - pre[k]), checked at every step in log domain (so
        nothing overflows) against a share budget / 2n per step;
      * the columns: every _ADVANCE steps the new rows get lo[j], the
        largest column whose prefix mass is at most budget / 2n, and that
        prefix mass is added; c_k is the min of lo over the rows read.
    l1 sums both.  Every _ADVANCE steps s moves to the largest start whose
    bound, with b_k - pre[k] of the step just done, holds with a nat to
    spare; a step whose own bound fails moves s back to the largest start
    that holds.  At budget 0 the share is 0: the band and the window stay
    at 0, and l1 is exactly 0.  Memory is the (n+1)^2 table of all r_k."""
    n = pre.size - 1
    a = (b - pre).tolist()  # a[k] = b_k - pre[k]
    # two logs: budget / 2n underflows to 0 for a subnormal budget
    log_share = math.log(budget) - math.log(2 * n) if budget else LOG_ZERO
    row_share = budget / (2 * n)
    # head[s] = log s + max pre[:s]; lpsuf[t] = max of log p over [t, n]
    head = np.full(n + 1, LOG_ZERO)
    head[1:] = np.log(np.arange(1, n + 1)) + np.maximum.accumulate(pre[:n])
    lpsuf = np.maximum.accumulate(log_p[n::-1])[::-1]
    head_l, lpsuf_l = head.tolist(), lpsuf.tolist()
    r = np.zeros((n + 1, n + 1))
    r[0, 0] = 1.0
    lo = np.zeros(n + 1, dtype=np.intp)  # set for the rows below `done`
    s = c = 0
    done = 1
    l1 = 0.0
    for k in range(1, n + 1):
        if s:
            bound = head_l[s] + lpsuf_l[k - s + 1] + a[k]
            if bound > log_share:
                # the bound grows with s: keep the starts below s that hold
                cand = head[1:s + 1] + lpsuf[k:k - s:-1] + a[k]
                s = int((cand <= log_share).sum())
                bound = float(cand[s - 1]) if s else LOG_ZERO
                # rows from `done` on start at c or later
                c = min(c, int(lo[s:done].min()))
            l1 += math.exp(bound)
        g = pre[s:k] + log_p[k - s:0:-1]
        g += a[k]
        np.exp(g, out=g)
        np.matmul(g, r[s:k, c:k], out=r[k, c + 1:k + 1])
        if k % _ADVANCE or k == n:
            continue
        cs = np.cumsum(r[done:k + 1, c:k + 1], axis=1)
        cut = (cs <= row_share).sum(1)
        l1 += float(np.where(cut > 0, cs[np.arange(cut.size), cut - 1],
                             0.0).sum())
        lo[done:k + 1] = c + cut
        done = k + 1
        cand = head[s + 1:k + 1] + lpsuf[k + 1 - s:1:-1] + a[k]
        s += int((cand <= log_share - 1.0).sum())
        c = int(lo[s:k + 1].min())
    return r[n], l1


@dataclass(frozen=True)
class ContactLaw:
    """Law of the contact number L_n; log_pmf[l] = log P[L_n = l], entry 0
    is -inf (the pinned endpoint forces L_n >= 1).  l1_bound bounds the L1
    distance of pmf() to the exact pmf from the terms the count DP left
    out (0 for the exact route); it does not cover roundoff."""

    n: int
    log_pmf: np.ndarray = field(repr=False)
    l1_bound: float = 0.0

    def pmf(self) -> np.ndarray:
        return np.exp(self.log_pmf)

    def tail_two_sided(self, u_values) -> np.ndarray:
        """P[|L_n - E L_n| > u] for each u of u_values."""
        p = self.pmf()
        l = np.arange(self.n + 1, dtype=float)
        dev = np.abs(l - float(l @ p))
        return np.array([p[dev > u].sum() for u in u_values])


@dataclass(frozen=True)
class CumulantVector:
    """kappa[k] is the k-th derivative of log Z in h; kappa[0] is log Z."""

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
    phi = normal_cdf(z)
    d_hi = np.abs(cdf - phi)
    d_lo = np.abs(np.concatenate(([0.0], cdf[:-1])) - phi)
    return float(max(d_hi.max(), d_lo.max())), mu, var


class QuenchedBlock:
    """Quenched environments at one (law, h, n), one charge row each, whose
    row-local tables are computed for all rows at once.

    charges is a (rows, >= n) array, row r holding omega_1..omega_n of
    environment r (columns past n are not read), or None for one row
    without disorder.  The prefix table, the suffix table, the avoidance
    profiles of a (window, start) and the excursion-capped log Z_n up to
    a cap are built for every row the first time any row asks, and
    cached.  The engines are row-local, so each row's tables are
    bit-identical to a one-row block's.  Tables are read-only: every row
    view shares them.  ``systems()`` yields the rows as QuenchedSystem
    views."""

    def __init__(self, law, h: float, charges, n: int):
        n = _checked(law, h, n)
        om = np.asarray(np.zeros((1, n)) if charges is None else charges,
                        dtype=float)
        if om.ndim != 2:
            raise ValueError(f"charges must be a (rows, n) array, "
                             f"got shape {om.shape}")
        if om.shape[1] < n:
            raise ValueError(f"omega has length {om.shape[1]} < n = {n}")
        self.law = law
        self.h = float(h)
        self.n = n
        self.rows = om.shape[0]
        # padded charges: c[r, a] = omega_a of row r for a = 1..n, c[r, 0] = 0
        c = np.zeros((self.rows, n + 1))
        c[:, 1:] = om[:, :n]
        bad = np.argwhere(~np.isfinite(c))
        if bad.size:
            r, a = (int(i) for i in bad[0])
            raise ValueError(f"charge omega_{a} of row {r} = {c[r, a]} "
                             f"is not finite")
        self.charges = _frozen(c)
        # h + omega_a, column 0 unused
        self.site_weight = _frozen(self.h + c)
        self._prefix = None
        self._suffix = None
        self._avoidance = {}  # (window, start) -> (rows, window + 1)
        self._excursion = np.empty((self.rows, 0))

    def systems(self):
        """The rows as QuenchedSystem views, in row order."""
        for r in range(self.rows):
            yield QuenchedSystem(self.law, self.h,
                                 _Row(self, r, self.charges[r, 1:]), self.n)

    @property
    def prefix_logZ(self) -> np.ndarray:
        """prefix[r, k] = log Z_{0,k} of row r for k = 0..n."""
        if self._prefix is None:
            self._prefix = _frozen(_forward(self.law.log_p,
                                            self.site_weight[:, 1:]))
        return self._prefix

    def suffix_logZ(self) -> np.ndarray:
        """suffix[r, a] = log Z_{[a, n]} of row r for a = 0..n."""
        if self._suffix is None:
            n, b = self.n, self.site_weight
            # the reversed chain's prefix at n-a is log Z_{[a,n]} + b[a] - b[n]
            rev = _forward(self.law.log_p, b[:, :n][:, ::-1])
            self._suffix = _frozen(rev[:, ::-1] - b + b[:, n:])
        return self._suffix

    def excursion_logZ(self, m: int) -> np.ndarray:
        """ex[r, b-1] = log Z_n of row r with every excursion capped at b,
        for b = 1..M with M >= m, 1 <= m < n.

        The caps past the cached M run as rows of _forward, one per
        missing (row, band) pair, band by band and at most _BAND_PASS per
        pass: the row's weights with the cap as its band."""
        m = _index("m", m, 1, self.n - 1)
        n, rows, have = self.n, self.rows, self._excursion.shape[1]
        if m > have:
            grown = np.empty((rows, m))
            grown[:, :have] = self._excursion
            # the missing (row, band) pairs, at column band - 1 of the table
            col, row = np.divmod(np.arange(have * rows, m * rows), rows)
            for lo in range(0, col.size, _BAND_PASS):
                c, r = col[lo:lo + _BAND_PASS], row[lo:lo + _BAND_PASS]
                grown[r, c] = _forward(self.law.log_p, self.site_weight[r, 1:],
                                       c + 1)[:, n]
            self._excursion = _frozen(grown)
        return self._excursion

    def two_replica_avoidance_log(self, window: int, start: int = 0) -> np.ndarray:
        """log a_j of every row for j = 1..window on [start, start+window],
        one row each; column 0 is nan.  See
        ``QuenchedSystem.two_replica_avoidance_log``."""
        window = _index("window", window, 1, self.n)
        start = _index("start", start, 0, self.n - window)
        prof = self._avoidance.get((window, start))
        if prof is None:
            bw = self.site_weight[:, start:start + window + 1]  # site start+x
            # log Z of the window cut at j: _forward on the window's weights,
            # bit for bit row `start` of the segment table
            zseg = _forward(self.law.log_p, bw[:, 1:])
            prof = _frozen(_pair_forward(self.law.log_p, bw, zseg))
            self._avoidance[window, start] = prof
        return prof


@dataclass(frozen=True)
class _Row:
    """Row `index` of a QuenchedBlock.  ``QuenchedBlock.systems()`` passes
    it as the omega of QuenchedSystem(law, h, omega, n), so a view is built
    by the same constructor as a standalone system; it also carries its
    charges omega_1..omega_n as `omega`, by which perfbench's tracer keys
    repeated builds."""

    block: QuenchedBlock
    index: int
    omega: np.ndarray


class QuenchedSystem:
    """Immutable quenched environment: one row of a QuenchedBlock.

    QuenchedSystem(law, h, omega, n) is the one row of its own block;
    ``QuenchedBlock.systems()`` builds the views of a larger block, which
    share its prefix, suffix, avoidance and excursion tables.  The segment
    table is per system, built lazily and cached; every public method is
    a pure read."""

    def __init__(self, law, h: float, omega, n: int):
        if isinstance(omega, _Row):  # built by QuenchedBlock.systems()
            block, row = omega.block, omega.index
        else:
            om = None if omega is None else np.asarray(omega, dtype=float)[None]
            block, row = QuenchedBlock(law, h, om, n), 0
        self._block, self._row = block, row
        self.law, self.h, self.n = block.law, block.h, block.n
        self.site_weight = block.site_weight[row]
        self._segments = None

    @property
    def prefix_logZ(self) -> np.ndarray:
        """prefix[k] = log Z_{0,k} for k = 0..n: the system's row of the
        block's prefix table, which the first read builds."""
        return self._block.prefix_logZ[self._row]

    @property
    def log_z(self) -> float:
        return float(self.prefix_logZ[self.n])

    # -- suffix and segment tables ----------------------------------------

    def suffix_logZ(self) -> np.ndarray:
        """suffix[a] = log Z_{[a, n]} for a = 0..n (suffix[0] = log Z)."""
        return self._block.suffix_logZ()[self._row]

    def segment_partitions(self, window: int) -> np.ndarray:
        """seg[i, l] = log Z_{[i, i+l]} for l = 0..width, cached.

        The segment system on [i, j] uses charges omega_{i+1}..omega_j, so
        row 0 coincides with the prefix table.  Entries past n are -inf.
        The cached width is shape[1] - 1: at least window, more when a
        wider table was asked for earlier."""
        window = _index("window", window, 0, self.n)
        if self._segments is None or self._segments.shape[1] - 1 < window:
            # row i runs on b[i+1..i+window]; -inf padding past n gives -inf
            padded = np.concatenate((self.site_weight[1:],
                                     np.full(window, LOG_ZERO)))
            rows = np.lib.stride_tricks.sliding_window_view(padded, window)
            self._segments = _forward(self.law.log_p, rows)
        return self._segments

    # -- contact observables ----------------------------------------------

    def contact_probability(self, a: int) -> float:
        """E_{n,h,omega}[X_a]."""
        a = _index("a", a, 0, self.n)
        if a == 0 or a == self.n:
            return 1.0
        suf = self.suffix_logZ()
        return min(1.0, math.exp(self.prefix_logZ[a] + suf[a] - self.log_z))

    # -- law of the contact number ----------------------------------------

    def contact_law(self, budget: float = 0.0) -> ContactLaw:
        """Pmf of L_n by the count-indexed DP ``_count_dp``, within L1
        budget of the exact one.

        It runs on per-level renewal probabilities (each level's
        first-excursion weights sum to 1), so everything stays in [0, 1]
        with nonnegative terms only; O(n^2) memory.  At budget 0 the law
        is exact (l1_bound 0) and a step costs O(k^2).  A budget > 0 lets
        the band and column window move, so that a step costs O(T C), T
        the band and C the columns that carry mass, and the law carries
        the certificate l1_bound <= budget on the terms left out.  That
        suits a caller that reads only the CDF to absolute accuracy
        (KS_L1_BUDGET, for the KS distances); a caller of the tails
        (relative accuracy far below the bulk) needs budget 0."""
        if not 0.0 <= budget < 1.0:
            raise ValueError(f"budget = {budget} is outside [0, 1)")
        if self.n == 0:
            return ContactLaw(0, np.zeros(1))
        row, l1 = _count_dp(self.prefix_logZ, self.law.log_p,
                            self.site_weight, budget)
        with np.errstate(divide="ignore"):
            log_pmf = np.log(row)
        return ContactLaw(self.n, log_pmf, l1)

    # -- cumulants ----------------------------------------------------------

    def cumulants(self, r_max: int) -> CumulantVector:
        """kappa_k = d^k/dh^k log Z for k = 1..r_max, r_max <=
        DEFAULT_JET_ORDER, and kappa_0 = log Z.

        The centred moment rows of _moments run at order r_max, centred at
        the homogeneous chain's contact density c at h
        (``InterArrivalLaw.contact_density``), which depends on the law
        and h only.  The cumulants of L_n - c n come from its moments by
        the log-series recursion, and kappa_1 adds c n.  Near the mean,
        the centred moments are far below the raw moments' n^m, so far
        less cancels; the further c sits from the mean, the more:
        tests/test_accuracy.py states the error of kappa_1..kappa_6 against
        a 40-digit moment DP.  kappa_0 is log Z of the Y_0 row: ``log_z``
        to roundoff (its step sums in another order), without the prefix
        DP.  Inside a ``cumulant_grid`` scope the call may read its
        column of the scope's one pass, which holds the bits of its own."""
        r_max = _index("r_max", r_max, 0, DEFAULT_JET_ORDER)
        if self.n == 0:
            return CumulantVector(np.zeros(r_max + 1))
        c = self.law.contact_density(self.h)
        order = max(r_max, 1)
        grid = _GRID.get()
        column = None if grid is None else grid.column(self, order)
        if column is None:
            sc, coef = _moments(self.law.log_p, self.site_weight[None, 1:],
                                order, c, [self.n])
            column = sc[0, 0], coef[0, 0]
        g = log_of_jet(*column)
        kappa = np.empty(r_max + 1)
        kappa[0] = g[0]
        for k in range(1, r_max + 1):
            kappa[k] = math.factorial(k) * g[k]
        if r_max:
            kappa[1] += c * self.n
        return CumulantVector(kappa)

    # -- two-replica avoidance ----------------------------------------------

    def two_replica_avoidance_log(self, window: int, start: int = 0) -> np.ndarray:
        """log a_j for j = 1..window on [start, start+window]; entry 0 is nan.

        Same functional as the subtractive reference
        ``oracle.two_replica_profiles``, evaluated by ``_pair_forward``: a
        sum over pairs of paths with disjoint interior contact sets, kept
        in scaled linear domain.  Every term is nonnegative, so values keep
        full relative precision far below the subtractive recursion's
        machine-epsilon floor.  The first row of a block to ask for a
        (window, start) runs the pair DP for every row of the block; the
        others read its cached rows.
        """
        return self._block.two_replica_avoidance_log(window, start)[self._row]

    # -- maximal excursion ----------------------------------------------------

    def max_excursion_cdf(self, m: int) -> float:
        """P[M_n <= m]: partition ratio with excursions restricted to <= m.

        Reads log Z_n^{(b)} from the block's excursion table: the first
        row of a block to ask for a cap past the table's runs the missing
        bands of every row (``QuenchedBlock.excursion_logZ``), so a caller
        that wants several caps should ask for the largest first: they
        then all come from the fewest passes.  Each entry is bit-identical
        whatever pass computed it."""
        m = _index("m", m, 1, math.inf)
        if self.n == 0 or m >= self.n:
            return 1.0
        logz = self._block.excursion_logZ(m)[self._row, m - 1]
        return min(1.0, math.exp(logz - self.log_z))


class _Grid:
    """The state of a cumulant_grid scope: the grid's h (row i of the
    pass) and n (column j), and once run, the pass's law, order, site
    weights b (one row per h, on [1, max n]) and columns (sc, coef)."""

    def __init__(self, h_values, n_values):
        hs = dict.fromkeys(float(h) for h in h_values)
        ns = sorted({int(n) for n in n_values})
        self.rows = {h: i for i, h in enumerate(hs)}
        self.cols = {n: j for j, n in enumerate(ns)}
        self.top = max(self.cols)
        self.law = None

    def column(self, system: QuenchedSystem, order: int):
        """(log Z_n, coefficients at n) of system from the pass, which the
        first call at the top n runs; None when system is not served."""
        i, j = self.rows.get(system.h), self.cols.get(system.n)
        if i is None or j is None:
            return None
        n = system.n
        if self.law is None:
            if n != self.top:
                return None
            self._run(system, order)
        elif not (system.law is self.law and order == self.order
                  and (n == self.top or self.untilted)):
            return None
        if system.site_weight[1:].tobytes() != self.b[i, :n].tobytes():
            return None
        return self.sc[i, j], self.coef[i, j]

    def _run(self, system: QuenchedSystem, order: int):
        law = system.law
        charges = system._block.charges[system._row, 1:]
        self.b = np.array(list(self.rows))[:, None] + charges
        centres = np.array([law.contact_density(h) for h in self.rows])
        self.sc, self.coef = _moments(law.log_p, self.b, order, centres,
                                      list(self.cols))
        # the smaller n share the pass's route only when it is untilted
        self.untilted = _moment_certificate(law.log_p, self.top, order)[0]
        self.law, self.order = law, order


# the state of the open cumulant_grid scope, or None outside one
_GRID: contextvars.ContextVar = contextvars.ContextVar("cumulant_grid",
                                                       default=None)


@contextlib.contextmanager
def cumulant_grid(h_values, n_values):
    """Serve ``QuenchedSystem.cumulants`` on the grid h_values x n_values
    of one environment from one moment pass, until the scope closes.

    The first cumulants(r) at n = max(n_values) and an h of h_values runs
    _moments once at that n, one row per h of the grid (its site weights
    h + omega, centred at its own contact density), and keeps the columns
    of the grid's n.  A later call reads its column when it has the
    pass's law and order, an h and an n of the grid, and on [1, n] the
    site weights the pass gave that h: its chain is then the first n
    sites of the pass's row.  A call at a smaller n is served only when
    the pass ran the untilted law, which then passes the certificate at
    n too (see _moment_certificate), so both take one route.  Every other
    call runs its own pass.  A served column holds the bits of the call's
    own pass: rows are row-local, and a column does not depend on how far
    the pass runs past it.  ``pinlab compute`` opens one scope around its
    cells and asks the largest n first."""
    token = _GRID.set(_Grid(h_values, n_values))
    try:
        yield
    finally:
        _GRID.reset(token)
