"""Exact dynamic programming for a fixed environment (n, h, omega).

All weights enter as e^{h+omega_a} per contact and p(t) per excursion, so
every quantity here is a deterministic functional of the charge vector.
Every partition table comes from one O(n^2) forward recursion,

    Z_{0,k} = sum_{t=1..k} Z_{0,k-t} p(t) e^{h+omega_k},

run by ``_forward`` over a batch of weight rows under one law p: the
prefix table is one row, the suffix table is the recursion on the
reversed weights, and the segment tables run one row per start site.
``_forward`` steps in linear domain: each row is stored as Z_{0,j}
e^{-C_r} under one log scale C_r, and a step is one 2-D product of the
rows with p(k-j)/p(1), then one log and one exp per row, so no term pays
an exp.  A new entry above e^300 of the scale becomes the scale, so the
window of a row always keeps an entry of at least 1; entries below
1e-290 of the scale are exact zeros, and the product skips the columns
that are zero in every row.  A flush certificate computed from the law
decides whether that is exact to double precision.  A law that spans
too many nats on [1, n] runs the same step under the tilted law p(t)
e^{lam t}: the gaps of a path pinned at k sum to k, so the tilt
multiplies Z_{0,k} by e^{lam k}, and lam k is subtracted from its log.
The tilt flattens the geometric law exactly; a law it cannot bring under
the certificate, one far from log-linear, is refused with a ValueError.

The maximal-excursion CDF P[M_n <= m] comes from the prefix table by a
normalised capped recursion (``_capped_cdf``), whose terms are
probabilities and need no scale.

Derivatives of log Z in h (cumulants of the contact number L) come from
the same call at an order R >= 1: the linear step carries, besides Z,
the rows Y_m[k], the sums over paths pinned at k of (L_k - c k)^m times
their weight for m <= R, under Y_0's scale, with the R+1 entries of a
column side by side.  The centre c is the homogeneous chain's contact
density at h (``InterArrivalLaw.contact_density``), a function of the
law and h only, so a row's cumulants depend on nothing but its weights.
The route of a pass is picked by its centre alone.  One float centre
for the whole pass (a block of disorder samples at one h, of any size,
and every log Z table, at the default 0.0) runs it fused: one 2-D
product per step, the rows padded to the BLAS kernel's row tile, so that
a row's bits depend neither on its block-mates nor on their number.  One
centre per row (a system, the grid of pinlab compute) runs one product
per row.
Moment rows flush entries below a level theta certified from the law
(about e^-85 on scan's law), far above 1e-290, so the windows start
late and the stored state keeps only the columns they read.  A moment
pass serves ``QuenchedSystem.cumulants`` (one row), the per-sample log
Z, cumulant and kappa_1 kernels of disorder Monte Carlo (a block of
samples at one h, one pass for the whole n grid inside a run memo), and
the grid of ``pinlab compute`` (one row per h, see
``_seed_cumulants``); ``at`` keeps only the columns k a caller reads.
The tilt multiplies every Y_m[k] by the same e^{lam k}, so it leaves the
moments unchanged.  ``_forward`` states the routes, the locality
contract they keep, the flush certificate and the tilt.

The two-replica avoidance runs ``_pair_forward``, a recursion over the
pair of the two replicas' latest contacts, batched over windows and kept
in scaled linear domain (one log scale per column of the pair state), so
a step costs two matrix-vector products and O(t) exp/log rather than one
per state entry.

A ``QuenchedBlock`` holds the environments of one (law, h, n), one charge
row each, and runs the row-local engines once for all rows, each the
first time any row asks: the prefix table, the suffix table, each
(window, start) pair DP, the excursion CDF up to a cap m and the
contact laws at a budget.  A reader of log Z and the cumulants alone,
such as
``pinlab compute``, takes log Z as kappa_0 of
``QuenchedSystem.cumulants``, whose moment rows carry Z as Y_0, and so
runs no prefix DP.  A
``QuenchedSystem`` is the view of one row; a standalone one is the one
row of its own block, so there is one code path, and every row reads
the bytes a one-row block would compute.  The count DP of the exact
contact laws, whose (n+1)^2 table per row is 34 MB for 64 rows at n =
256, runs in chunks of rows whose tables fit in _LAW_BYTES (7 rows at n
= 256); the budgeted laws run _BAND_ROWS rows per banded count DP.
The block keeps no segment tables (8.5 MB at 64 x 256 x 64):
their one production reader, C7's mixing ratio, runs ``_segment_tables``
on a few rows at a time and reduces each chunk where it reads it.

The contact law's count DP, ``_count_dp``, O(n^3) in full, steps in
blocks of _ADVANCE steps: one stacked product per block adds the share
of the finished rows to all of the block's steps (a BLAS-3 product),
and a small product per step the share of the block's own rows.  It
takes an L1 budget.  At budget 0 it is exact.  At a budget > 0
(KS_L1_BUDGET for the callers that read only the law's CDF, the KS
distances) it leaves out the old rows and the low columns whose mass a
bound computed at run time keeps within the budget, so a block costs
O(B T C), not O(B k^2), T the band and C the columns that carry mass,
and it holds only that band of the table, O(T C) memory a row;
the law carries the sum of those bounds as ``l1_bound``, a certificate
on its L1 distance to the full DP (roundoff not included).  The KS
readers (C2, scan) run a block's rows _BAND_ROWS at a time, the tail
readers (C3, C13) stay at budget 0; both read a block's laws, computed
once for all its rows.

Inside ``run_memo()`` (the CLI opens one around each command) three
tables are kept for the rest of the command, each under the law and
everything else its computation reads (``_memoised``): a block's exact
contact laws (h, charges), a system's moment column at n (h, order,
charges), both with the charges by shape and digest, and the per-block
rows of the disorder Monte Carlo kernels, under the stream the block
is drawn from (see ``disorder_mc._sampled``).  A block or a system built
again on the same charges reads its table from the memo, whatever built
it, and ``_seed_cumulants`` keeps the columns of a whole
(h, n) grid of one environment from one pass.  Outside a memo every
table is computed where it is asked.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import DEFAULT_JET_ORDER, LOG_ZERO, log_of_jet, normal_cdf

# (row, cap) pairs per _capped_cdf pass of QuenchedBlock.excursion_cdf, so
# that caps near n cost O(64 n) memory, not O(n^2)
_CAP_PASS = 64


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


# the entries of the open run memo, or None outside one
_MEMO: contextvars.ContextVar = contextvars.ContextVar("run_memo",
                                                       default=None)


@contextlib.contextmanager
def run_memo():
    """Keep every table that ``_memoised`` computes until the scope closes,
    and serve a later ask under the same key from it.  Entries hold
    tables, not charges."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memoised(law, key, compute) -> np.ndarray:
    """The array compute() returns, kept inside a run memo.

    Outside a memo every call computes.  Inside one, the first call keeps
    a read-only copy under (id(law), *key), an array in key standing for
    its shape and a blake2b digest of its bytes, and later calls with
    that key return it.  A caller that can name its inputs without their
    bytes (``disorder_mc._sampled``: the stream a block is drawn from)
    passes no array, and no digest is taken.  The entry holds the law, so
    its id is not reused while the entry lives.  key must hold everything
    compute reads besides the law."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    key = (id(law), *((k.shape, hashlib.blake2b(k, digest_size=20).digest())
                      if isinstance(k, np.ndarray) else k for k in key))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (law, _frozen(np.array(compute())))
    return entry[1]


# The linear step of _forward stores row r as y[r, j] = Z_{0,j} e^{-C_r}.
# An entry below _FLUSH is stored as an exact 0; a new entry above
# e^_RESCALE becomes the row's scale (y = 1).  Moment rows flush at a
# higher, certified level (_moment_flush)
_FLUSH = 1e-290
_LOG_FLUSH = math.log(_FLUSH)
_RESCALE = 300.0
# a step's dot runs over the columns k-L..k-1, L a multiple of _LANE: the
# BLAS dot then puts column j in the same accumulator lane, whatever L is
_LANE = 32
# a fused moment pass runs its rows as one 2-D product per step, padded to
# a multiple of _TILE rows and of at most _SMALL_GEMM multiply-adds: the
# size of OpenBLAS's small-matrix dgemm, in which a row's bits do not
# depend on the other rows (see _forward; tests/test_blas_contract.py)
_TILE = 4
_SMALL_GEMM = 100 ** 3
# the columns a pass stores at first; see _forward
_COLUMNS = 512
# the certificate's margins, in nats: partial sums stay below e^_OVERFLOW,
# and the flushed share of a step's sum below e^_DROPPED (2^-60)
_OVERFLOW = 700.0
_DROPPED = -60.0 * math.log(2.0)
# the reductions of a step, without the array methods' wrappers
_max, _min = np.maximum.reduce, np.minimum.reduce


def _gap_weights(q: np.ndarray, d: np.ndarray, width: int) -> np.ndarray:
    """q(t) d(t)^e / e! for e < width, one row per gap t: the weights of
    _forward's moment step for the gaps whose q and d entries are given."""
    e = np.arange(width)
    inv_fact = 1.0 / np.array([math.factorial(i) for i in e], dtype=float)
    return q[:, None] * (d[:, None] ** e) * inv_fact


def _moment_flush(log_p: np.ndarray, order: int) -> float:
    """theta, the level below which moment rows of order R >= 1 store an
    entry as an exact 0 (see _forward):

        theta = max(_FLUSH, e^{-60 log 2 - (2R+1) log N - span}),

    span = max log q - min log q on [1, N], q = p / p(1), over the whole
    table log_p[0..N].  A pass runs at n <= N, and theta only falls as N
    grows, so it is certified at every n; and a law gets one theta at
    every n, so a column does not depend on how far its pass runs past
    it."""
    lp = log_p[1:]
    return max(_FLUSH, math.exp(_DROPPED - (2 * order + 1) * math.log(lp.size)
                                - (_max(lp) - _min(lp))))


def _forward(log_p: np.ndarray, b: np.ndarray, order: int = 0,
             centre=0.0, at=None):
    """The linear engine: log Z_{0,k} of every row of the (rows, n)
    weights b, and at an order R >= 1 the centred moments of its contact
    number too.

    Row r is the chain whose site k carries log weight b[r, k-1], and
    whose excursions follow the one law log_p (log p(t) at index t),
    finite on [1, n] (see InterArrivalLaw).  At order 0 it returns the
    (rows, n+1) table of log Z_{0,k}, k = 0..n (zeros when n or rows is
    0).  At order R >= 1, n >= 1, it returns (sc, coef) with sc[r, k] =
    log Z_{0,k} and coef[r, k, m] = E[(L_k - c_r k)^m] / m! for m = 0..R:
    the Taylor coefficients in s of E[e^{s (L_k - c_r k)}], L_k the
    contacts of the chain pinned at k.  centre is c_r, 0 <= c_r <= 1: one
    float for every row, or one per row.  So kappa_1 of row r at k is
    coef[r, k, 1] + c_r k, and the higher cumulants come from coef[r, k]
    by the log-series recursion.  With at, a list of columns, sc and coef
    keep only the columns k of at, in its order: the pass is the same,
    and those columns keep their bits.

    Step.  With Y_m[k] the sum over paths pinned at k of (L_k - c k)^m
    times their weight (Y_0[k] = Z_{0,k}), a contact at k after a gap t
    moves L - c k by d(t) = 1 - c t, so

        Y_m[k] = p(1) e^{b[r, k-1]} sum_{i <= m} C(m, i) S[i, m-i],
        S[i, e] = sum_j Y_i[j] q(k-j) d(k-j)^e,  q = p / p(1).

    Row r is stored as y[r, j, m] = Y_m[j] / m! e^{-C_r} under one log
    scale C_r (m = 0 alone at order 0), so column j's R+1 entries are
    adjacent, and step k is one product of the window against q d^e / e!
    and the antidiagonal sums i + e = m, then one log and one exp per row:

        log Z_{0,k} = C_r + log S[0, 0] + log p(1) + b[r, k-1].

    p is divided by p(1), so step 1 gives exactly log p(1) + b[r, 0], and
    q is built once for all rows.  Rescale rule: the scale starts at C =
    0 (y[r, 0, 0] = 1), and a new entry above e^_RESCALE becomes the
    scale, y = 1: the row's entries are multiplied by one factor.  A
    row's window (every j < k) thus always holds an entry of at least 1.
    A pass stores the columns from lo on only, lo the first column
    nonzero in some row (every row is 0 below it): it starts with
    _COLUMNS, and when column k finds no room, it drops the columns below
    lo if they are at least half the buffer, and else doubles it.

    Route of a step, over the window of columns k-L..k-1 (L a multiple of
    _LANE, from lo on), picked by centre alone:
      * fused: one float centre, the default 0.0 included, so every
        order-0 pass (the prefix, suffix, segment and oracle tables) and
        every pass of disorder_mc.  The antidiagonal map is folded into
        one (depth, R+1, R+1) table wf[j, i, m] = w[j, m-i], so that one
        2-D product y[:, window].reshape(rows, (R+1) L) @
        wf[window].reshape((R+1) L, R+1) gives every row's new column.
        At order 0 the table is q beside a zero column: numpy runs a
        one-column product as a dgemv, which splits a window of over
        2048 columns at points set by its start, that is by lo.  The
        rows, one or more, are padded with copies of the last row to a
        multiple of _TILE, and the product runs in groups of a multiple
        of _TILE rows of at most _SMALL_GEMM multiply-adds each (one
        group for scan's 64 x 512).
      * per row: a sequence of one centre per row (QuenchedSystem.cumulants
        passes [c], pinlab compute's grid one per h): one stacked product
        per row, (R+1, L) @ (L, R+1) against the row's own table q d^e /
        e!, grown as the windows widen, whose antidiagonal sums are a
        second, fixed product per row.

    Locality contract.  A row's bits depend on its weights, law and
    centre, and on its route, and on nothing else: not on the other rows'
    values or positions, the number of rows, the leading zeros of its
    window (lo, the min over rows, sets them), or how far the pass runs
    past a column.  The window ends at k and spans a multiple of _LANE
    columns, so the BLAS accumulators see each column in the same lane
    whatever L is, and a per-row product is its row's alone.  The fused
    product rests on what was measured of OpenBLAS 0.3.31 (numpy 2.4):
    a dgemm of a multiple of _TILE rows and at most _SMALL_GEMM
    multiply-adds runs the small-matrix kernel, which accumulates each
    output along the window in order, four rows at a time; rows of a
    1-3 row tail, and products past that size (the blocked kernel splits
    the window), do not keep their bits.  So a row of a fused pass keeps
    its bits in any block, one row included, and a moment row sits
    within roundoff of the same row run per row.  The groups keep that
    while _TILE (R+1) max(R+1, 2) L <= _SMALL_GEMM: windows up to
    125,000 columns at order 0, 27,000 at order 2, 3,000 at order 8.
    tests/test_blas_contract.py checks both BLAS assumptions at the
    pass's shapes.

    Flush.  A column whose Y_0 falls below the flush level of its row's
    scale is stored as exact 0s, every m together: _FLUSH at order 0,
    theta = _moment_flush at order R >= 1 (about e^-85 for scan's law
    against e^-667).  The scale entry never leaves a row's window, so
    every step's S[0, 0] is at least min q.  For 0 <= c <= 1, |L_j - c j|
    <= j <= n and |d| <= n, so |Y_i[j]| <= n^i Y_0[j], and the flushed
    columns, at most n, add at most level n^(2R+1) max q to any S[i, e],
    i + e <= 2R: at most 2^-60 S[0, 0] when

        log level + (2R+1) log n + span <= -60 log 2,

    span = log(max q / min q) on [1, n].  theta meets this by its
    definition.  _FLUSH meets it wherever the certificate holds, since
    2R log(2n) >= 2R log n.  So each coefficient m of a new column moves
    by at most 2^-60 2^m / m!.  The flush at a rescale is what moves lo,
    and with it the window's start.

    Certificate (_certified).  The margin 2 R log(2n) nats covers the
    factor n^(2R) by which a term of S[i, e] can exceed its Y_0 term.  A
    law passes at n when both of these hold:
      * flush: log n + margin + log _FLUSH + span <= -60 log 2 (the
        bound above at _FLUSH);
      * overflow: log n + margin + _RESCALE + log max q <= _OVERFLOW, so
        that no partial sum overflows.
    Both read the max and min of log p on [1, n] only, so a law whose
    p(t) is not monotone is covered.  The margin, log n and the span all
    grow with n, so a law that passes at n passes at every smaller n.

    Tilt.  A law that fails runs the same step under the tilted law p(t)
    e^{lam t} (see _tilted).  At order 0 a decreasing law fails when its
    log p spans more than 626 - log n nats on [1, n]: the geometric law
    from n = 895 on.  The gaps of a path pinned at k sum to k, so the tilt
    multiplies every Y_m[k] by the same e^{lam k}: the coefficients keep
    their values, and lam k is subtracted from log Z_{0,k}.  A law whose
    tilted form fails too raises a ValueError.  So every row's table
    depends only on its weights, its law, its centre and n.

    -inf weights give -inf entries, never NaN."""
    rows, n = b.shape
    if not order and not (n and rows):
        return np.zeros((rows, n + 1))
    lam = 0.0
    if not _certified(log_p, n, order):
        log_p, lam = _tilted(log_p, n, order)
    lp1 = log_p[1]
    pad = _LANE
    width = order + 1
    # qrev[pad + n - t] = p(t) / p(1) for t = 1..n, so the weights of an
    # L-column window ending at k are qrev[pad+n-L:pad+n].
    # np.exp and np.log only ever see contiguous arrays: on other layouts
    # numpy may take a loop whose last bit differs, and a row's bits would
    # then depend on its batch's shape
    qrev = np.full(pad + n, LOG_ZERO)
    np.subtract(log_p[n:0:-1], lp1, out=qrev[pad:])
    np.exp(qrev, out=qrev)
    # the step's weights are the last `depth` entries of w, those of the
    # gaps depth - pad .. 1 (a zero weight where that is below 1)
    depth = pad + n
    # w[..., depth - t, e] = q(t) d(t)^e / e!, d(t) = 1 - c t: the gap t
    # moves L - c k by d(t).  With y[:, j, i] = Y_i / i!, the step's
    # products are s[:, i, e] = S[i, e] / (i! e!), and the coefficient of
    # m is the sum of its antidiagonal i + e = m.  At order 0, w is q
    gaps = np.zeros(pad + n)
    gaps[pad:] = np.arange(n, 0, -1)
    real = rows
    fused = np.ndim(centre) == 0
    if fused:
        # as a (depth (R+1), R+1) matrix, whose window is a slice; at
        # order 0, q beside a zero column (see Route in the docstring)
        w = _gap_weights(qrev, 1.0 - float(centre) * gaps, width)
        wf = np.zeros((depth, width, max(width, 2)))
        for i in range(width):
            wf[:, i, i:width] = w[:, :width - i]
        wf = wf.reshape(depth * width, -1)
        rows = -(-rows // _TILE) * _TILE
        s = np.empty((rows, wf.shape[1]))
        s0 = s[:, 0]
    else:
        # one table per row, grown as the windows widen: the windows
        # rarely span all of [1, n]
        centre = np.asarray(centre, dtype=float)
        w, depth = np.empty((rows, 0, width)), 0
        e = np.arange(width)
        antidiag = (e[:, None, None] + e[None, :, None]
                    == e[None, None, :]).astype(float).reshape(-1, width)
    # log p(1) + b, one row per step, the padding rows copies of the last
    bb = np.empty((n, rows))
    np.add(b.T, lp1, out=bb[:, :real])
    bb[:, real:] = bb[:, real - 1:real]
    flush = _moment_flush(log_p, order) if order else _FLUSH
    ratio = np.empty(rows)
    log_flush = math.log(flush)
    # a new entry is at least min q e^{log p(1) + b} of the scale (a row's
    # window keeps its scale entry): unless that can fall below the flush
    # level, no new column is ever flushed
    flushable = (_min(log_p[1:n + 1]) + _min(b, axis=None)
                 < log_flush + 1.0)
    # slot[k]: the column of z and coef that keeps k, or -1
    slot = range(n + 1)
    if at is not None:
        slot = [-1] * (n + 1)
        for j, k in enumerate(at):
            slot[k] = j
    z = np.empty((rows, n + 1 if at is None else len(at)))
    if slot[0] >= 0:
        z[:, slot[0]] = 0.0
    if order:
        coef = np.zeros(z.shape + (width,))
        if slot[0] >= 0:
            coef[:, slot[0], 0] = 1.0
    # y[:, pad + j - base] holds column j; the pad columns stay 0
    cap = min(n + 1, _COLUMNS)
    base = 0
    y = np.zeros((rows, pad + cap, width))
    y[:, pad, 0] = 1.0
    flat = y.reshape(rows, -1)
    scale = np.zeros(rows)
    t = np.empty(rows)
    col = np.empty(rows)
    # row r is 0 below first[r] in its window; lo is the min over rows
    first = np.zeros(rows, dtype=np.intp)
    lo = 0
    for k in range(1, n + 1):
        if k - base == cap:
            # no room for column k: keep the columns lo..k-1
            live = y[:, pad + lo - base:pad + k - base]
            if 2 * (lo - base) < cap:
                cap = min(2 * cap, n + 1 - lo)
                grown = np.zeros((rows, pad + cap, width))
                grown[:, pad:pad + k - lo] = live
                y = grown
                flat = y.reshape(rows, -1)
            else:
                y[:, pad:pad + k - lo] = live
            base = lo
        j = pad + k - base
        cols = -(-(k - lo) // _LANE) * _LANE
        if fused:
            # in row groups of a multiple of _TILE, each within _SMALL_GEMM
            # (wf.size // depth multiply-adds a row and window column)
            group = max(_TILE, _SMALL_GEMM // (wf.size // depth * cols)
                        // _TILE * _TILE)
            win = flat[:, (j - cols) * width:j * width]
            wwin = wf[(depth - cols) * width:]
            if group >= rows:
                np.matmul(win, wwin, out=s)
            else:
                for a in range(0, rows, group):
                    np.matmul(win[a:a + group], wwin, out=s[a:a + group])
        else:
            if cols > depth:
                # at least double the per-row tables, new gaps in front
                grow = min(pad + n, max(cols, 2 * depth)) - depth
                part = np.empty((rows, grow, width))
                at_gaps = slice(pad + n - depth - grow, pad + n - depth)
                for r in range(rows):
                    part[r] = _gap_weights(qrev[at_gaps],
                                           1.0 - centre[r] * gaps[at_gaps],
                                           width)
                w = np.concatenate((part, w), axis=1)
                depth += grow
            s = np.matmul(y[:, j - cols:j].transpose(0, 2, 1),
                          w[..., depth - cols:, :])
            # one product per row over the fixed antidiagonal map
            s = np.matmul(s.reshape(rows, 1, width * width), antidiag)[:, 0]
            s0 = s[:, 0]
        np.log(s0, out=t)
        t += bb[k - 1]
        if slot[k] >= 0:
            np.add(scale, t, out=z[:, slot[k]])
            if order:
                np.divide(s, s0[:, None], out=coef[:, slot[k]])
        if _max(t) > _RESCALE:
            # the new entry is the rows' scale: their stored entries are
            # multiplied by one factor each, and those whose Y_0 falls
            # below the flush level flushed, every m of the column together
            r = np.flatnonzero(t > _RESCALE)
            zk = scale[r] + t[r]
            seg = y[r, pad + lo - base:j]
            seg = seg * np.exp(scale[r] - zk)[:, None, None]
            np.copyto(seg, 0.0, where=seg[:, :, :1] < flush)
            y[r, pad + lo - base:j] = seg
            nz = seg[:, :, 0] != 0.0
            first[r] = lo + np.where(nz.any(1), nz.argmax(1), k - lo)
            lo = int(first.min())
            scale[r] = zk
            t[r] = 0.0
        np.exp(t, out=col)
        if flushable and _min(t) < log_flush:
            col[col < flush] = 0.0
        if order:
            # Y_m[k] / m! = (S_m / S_0) e^t, every m of a row by one factor
            np.divide(col, s0, out=ratio)
            np.multiply(s, ratio[:, None], out=y[:, j])
        else:
            y[:, j, 0] = col
    if lam:
        z -= lam * (np.arange(n + 1) if at is None else np.asarray(at))
    return (z[:real], coef[:real]) if order else z[:real]


def _margin(n: int, order: int) -> float:
    """The certificate's margin at n and order R, 2 R log(2n) nats (see
    _forward); 0 at order 0."""
    return 2 * order * math.log(2.0 * n)


def _certified(log_p: np.ndarray, n: int, order: int = 0) -> bool:
    """Whether the law log_p passes the linear step's certificate at n and
    order (see _forward)."""
    lp = log_p[1:n + 1]
    # the extremes of log q = log p - log p(1) on [1, n]
    top = _max(lp) - lp[0]
    low = _min(lp) - lp[0]
    log_n = math.log(n) + _margin(n, order)
    return bool(log_n + _RESCALE + top <= _OVERFLOW
                and log_n + _LOG_FLUSH + top - low <= _DROPPED)


def _segment_tables(log_p: np.ndarray, b: np.ndarray,
                    window: int) -> np.ndarray:
    """seg[r, a, l] = log Z_{[a, a+l]} of row r of the (rows, n) weights b,
    for a = 0..n and l = 0..window: one _forward pass in which the row
    of (r, a) runs on b[r, a..a+window-1], -inf past n, so entries past n
    are -inf.  _forward is row-local: each table has the bytes of a
    one-row pass, and row 0 of a table is its prefix table."""
    rows, n = b.shape
    padded = np.concatenate((b, np.full((rows, window), LOG_ZERO)), axis=1)
    weights = np.lib.stride_tricks.sliding_window_view(
        padded, window, axis=1).reshape(rows * (n + 1), window)
    return _forward(log_p, weights).reshape(rows, n + 1, window + 1)


def _tilted(log_p: np.ndarray, n: int,
            order: int = 0) -> tuple[np.ndarray, float]:
    """The law log_p on [0, n], tilted for the linear step: (log p(t) +
    lam t for t = 0..n, lam), lam the chord slope (log p(1) - log p(n)) /
    (n - 1) of log p on [1, n].  That tilt gives p(1) and p(n) the same
    weight, so it flattens the geometric law exactly, and for a
    log-convex law (a power law) it is the tilt of least span.  A
    ValueError names the span when the tilted law still fails the
    certificate at n and order (see _forward)."""
    lam = (log_p[1] - log_p[n]) / (n - 1) if n > 1 else 0.0
    tilted = log_p[:n + 1] + lam * np.arange(n + 1)
    if not _certified(tilted, n, order):
        # both bounds hold when the span is at most the overflow bound's
        # room, the smaller of the two
        span = tilted[1:].max() - tilted[1:].min()
        room = _OVERFLOW - _RESCALE - math.log(n) - _margin(n, order)
        raise ValueError(
            f"log p spans {span:.1f} nats on [1, {n}] after the tilt by "
            f"{lam:.6g} per step, past the {room:.1f} nats that the linear "
            f"step certifies at n = {n}")
    return tilted, lam


def _pass_columns(log_p: np.ndarray, n_values, order: int) -> list:
    """The columns of the sorted n_values that one _forward pass at their
    largest n and at order serves with the bits of a pass at each
    column's own n: all of them when the pass at the top is untilted (the
    certificate then holds at every smaller n too, see _forward), the top
    alone when it is tilted, since a smaller n would take another route."""
    grid = sorted(set(n_values))
    return grid if _certified(log_p, grid[-1], order) else grid[-1:]


def _capped_cdf(pre: np.ndarray, log_p: np.ndarray, b: np.ndarray,
                row: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """P[M_n <= cap[i]] of row row[i] of the (rows, n+1) prefix tables pre
    and site weights b (column 0 not read), for every pair i, 1 <= cap[i]
    <= n: Q_n of the normalised capped recursion

        Q_k = sum_{d <= min(cap, k)} g_k(k-d) Q_{k-d},  Q_0 = 1,
        g_k(j) = exp((pre[j] - pre[k]) + (log p(k-j) + b_k)),

    g_k(j) the probability that the last contact before k is at j, so Q_k
    is P[M_k <= cap] of the chain pinned at k.  Every term is a
    probability in [0, 1], so the pass needs no scale.  pre[j] and pre[k]
    are close, so their difference, taken first, is exact, and the
    roundoff of pre enters only through that of pre[n]: along a path the
    factors e^{pre[j] - pre[k]} telescope.

    A pair's terms are summed for d = 1..top in order (np.add.accumulate
    along d; the weight of a gap d past its cap or k is an exact 0 that
    adds nothing), and np.exp sees a contiguous array, so each value's
    bytes depend on its row and cap alone, not on the other pairs of the
    pass.  Memory is two (n+1, pairs) tables."""
    n, top = pre.shape[1] - 1, int(cap.max())
    # log p(d) for d = 1..top, -inf past each pair's cap
    d = np.arange(1, top + 1)[:, None]
    lp = np.where(d <= cap, log_p[1:top + 1, None], LOG_ZERO)
    pt = np.ascontiguousarray(pre[row].T)
    q = np.empty((n + 1, row.size))
    q[0] = 1.0
    g, w = np.empty((top, row.size)), np.empty((top, row.size))
    for k in range(1, n + 1):
        m = min(top, k)
        s = g[:m]
        # row d-1 of s is the term of the gap d, j = k - d
        np.subtract(pt[k - m:k][::-1], pt[k], out=s)
        s += np.add(lp[:m], b[row, k], out=w[:m])
        np.exp(s, out=s)
        s *= q[k - m:k][::-1]
        np.add.accumulate(s, axis=0, out=s)
        q[k] = s[-1]
    return q[n]


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
# steps in a block of the count DP, whose band and column window move
# once per block
_ADVANCE = 32
# bytes of the count DP tables of one chunk of QuenchedBlock.contact_laws
_LAW_BYTES = 4 << 20
# rows of one banded count DP of QuenchedBlock.contact_laws at a budget >
# 0: at scan's (h, n) = (1.5, 512) 4 rows peak at 1.9 MB under tracemalloc,
# less than one row's (n+1)^2 table (2.1 MB), and 16 rows at 7.6 MB
_BAND_ROWS = 4


def _toeplitz(v: np.ndarray, top: int, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) view t[i, j] = v[top + i - j] of the contiguous 1-D
    array v, without a copy; numpy refuses a view that leaves v."""
    return np.ndarray((rows, cols), buffer=v, offset=v.itemsize * top,
                      strides=(v.itemsize, -v.itemsize))


def _log_pmf(pmf: np.ndarray) -> np.ndarray:
    """log pmf, read-only, with log 0 = -inf."""
    with np.errstate(divide="ignore"):
        return _frozen(np.log(pmf))


def _count_dp(pre: np.ndarray, log_p: np.ndarray, b: np.ndarray,
              budget: float) -> tuple[np.ndarray, np.ndarray]:
    """Row n of the count DP of QuenchedSystem.contact_law for every row of
    the (rows, n+1) prefix tables pre and site weights b (column 0 not
    read), with at most budget of L1 mass left out: returns (r, l1), the
    (rows, n+1) pmfs of L_n as computed and one bound l1[i] <= budget per
    row on its L1 distance to the pmf of the full DP.

    Step k is r_k[l] = sum_j g_k(j) r_j[l-1] over the last contact j < k,
    with g_k(j) = exp(pre[j] + log p(k-j) + b_k - pre[k]), which sum to 1
    over j < k.  The steps run in blocks of _ADVANCE, k0 <= k < k1, over
    the rows j >= s and the columns l >= c of the block:
      * one exp gives the block's weights g_k(j), s <= j < k1, as a
        (rows, k1-k0, k1-s) array, 0 where j >= k, and each step's row of
        weights is normalised to sum to 1, so that the roundoff of pre
        does not leak into the law's mass;
      * one stacked product g[:, :, :k0-s] @ r[:, s:k0, c:k0] adds the
        share of the finished rows j < k0 to every step of the block (in
        two column panels);
      * then step k adds the share of the block's rows k0 <= j < k, one
        small product each.
    A stacked product runs one BLAS call per matrix, and every other
    operation is elementwise or along a row, so a row's bits do not
    depend on the other rows or on how many there are
    (tests/test_blas_contract.py checks the first).  The rows share s and
    c, though, so at a budget > 0 a row's law depends on the other rows
    through the terms that they keep.

    At budget 0, s = c = 0, and l1 is exactly 0.  At a budget > 0 each
    step is stochastic over the rows it reads, so the L1 error of r_k is
    at most twice the weight m_k = sum_{j<s} g_k(j) it leaves out (once
    for the rows left out, once for the weight moved onto the others by
    the normalisation) plus the largest error of a row it reads (with
    that row's columns left out), and the errors add up along the steps
    to at most
      * the band: 2 m_k with m_k <= s exp(max pre[:s] + max_{t>k-s}
        log p(t) + b_k - pre[k]), in log domain (so nothing overflows);
        s is the largest start at which this bound holds against a share
        budget / 4n at every step of the block and in every row;
      * the columns: after each block its rows get lo[j], the largest
        column whose prefix mass is at most budget / 2n, and that prefix
        mass is added; c is the min of lo over the finished rows read.
    l1 sums both.

    Memory: the bound reads pre and b only, so every block's s is known
    before the first step, and so is the least s of the blocks still to
    run; no later block reads a row below it, nor a column below the
    least lo of the rows from it on (a new row's lo is at least its
    block's c).  The table of all r_k is therefore held as a band: a
    (rows, R, C) buffer of the rows from rb and the columns from cb.
    When a block finds no room, the rows and columns that no later block
    reads are dropped, and the rest moves to a new buffer with room for
    _ADVANCE more steps.  At budget 0 nothing is dropped: the buffer is
    the (rows, n+1, n+1) table, and its base never moves."""
    rows, n = pre.shape[0], pre.shape[1] - 1
    if not n:
        return np.ones((rows, 1)), np.zeros(rows)
    step = _ADVANCE
    a = b - pre  # a[:, k] = b_k - pre[k]
    # lpg[step + d] = log p(d), and a 0 weight for the gaps d <= 0 of a block
    lpg = np.full(step + n + 1, LOG_ZERO)
    lpg[step + 1:] = log_p[1:n + 1]
    k0s = range(1, n + 1, step)
    # each block's s, and the band's share of l1 at it
    starts = np.zeros(len(k0s), dtype=np.intp)
    band = np.zeros((len(k0s), rows))
    if budget:
        # two logs: budget / 4n underflows to 0 for a subnormal budget
        log_share = math.log(budget) - math.log(4 * n)
        col_share = budget / (2 * n)
        # head[:, m] = log(m+1) + max pre[:m+1], for the start m + 1;
        # lpsuf[t] = max of log p on [t, n]
        head = np.log(np.arange(1, n + 1)) + np.maximum.accumulate(
            pre[:, :n], axis=1)
        lpsuf = np.ascontiguousarray(
            np.maximum.accumulate(log_p[n::-1])[::-1])
        lo = np.zeros((rows, n + 1), dtype=np.intp)
        s = 0
        for i, k0 in enumerate(k0s[1:], 1):
            k1 = min(k0 + step, n + 1)
            # the bounds at the starts from the last block's on, or from 1
            # when a step of this block fails at that one; they grow with
            # the start, so the starts that hold are a prefix
            for first in (max(s, 1), 1):
                bound = (head[:, None, first - 1:k0 - 1]
                         + _toeplitz(lpsuf, k0 - first + 1, k1 - k0,
                                     k0 - first)
                         + a[:, k0:k1, None])
                held = int((bound <= log_share).sum(2).min())
                if held or first == 1:
                    break
            s = starts[i] = first - 1 + held
            if held:
                band[i] = 2.0 * np.exp(bound[:, :, held - 1]).sum(1)
    # keep[i]: the least s of block i and the blocks after it
    keep = np.minimum.accumulate(starts[::-1])[::-1]
    # r[:, j - rb, l - cb] is entry l of r_j
    rb = cb = 0
    size = n + 1 if not budget else min(n + 1, 2 * step + 1)
    r = np.zeros((rows, size, size))
    r[:, 0, 0] = 1.0
    l1 = np.zeros(rows)
    c = 0
    for i, k0 in enumerate(k0s):
        k1, s = min(k0 + step, n + 1), int(starts[i])
        if budget and k0 > 1:
            l1 += band[i]
            c = int(lo[:, s:k0].min())
        if k1 - rb > r.shape[1] or k1 - cb > r.shape[2]:
            # no room for the block: keep the rows and columns still read
            top, left = int(keep[i]), int(lo[:, keep[i]:k0].min())
            moved = np.zeros((rows, min(n + 1 - top, k1 - top + step),
                              min(n + 1 - left, k1 - left + step)))
            moved[:, :k0 - top, :k0 - left] = r[:, top - rb:k0 - rb,
                                                left - cb:k0 - cb]
            r, rb, cb = moved, top, left
        g = pre[:, None, s:k1] + _toeplitz(lpg, step + k0 - s, k1 - k0, k1 - s)
        g += a[:, k0:k1, None]
        np.exp(g, out=g)
        g /= g.sum(2, keepdims=True)
        new = r[:, k0 - rb:k1 - rb]  # the block's rows
        # in two column panels: row j is 0 past column j, so the columns
        # from m on read the rows from m on only (a quarter fewer terms at
        # budget 0, and each product's output buffer half as large)
        m = max(s, (c + k0) // 2)
        np.matmul(g[:, :, :k0 - s], r[:, s - rb:k0 - rb, c - cb:m - cb],
                  out=new[:, :, c + 1 - cb:m + 1 - cb])
        np.matmul(g[:, :, m - s:k0 - s],
                  r[:, m - rb:k0 - rb, m - cb:k0 - cb],
                  out=new[:, :, m + 1 - cb:k0 + 1 - cb])
        for k in range(k0 + 1, k1):
            row = new[:, k - k0, None, c + 1 - cb:k + 1 - cb]
            row += np.matmul(g[:, k - k0, None, k0 - s:k - s],
                             new[:, :k - k0, c - cb:k - cb])
        if budget and k1 <= n:
            # the new rows' cuts: the longest prefix of columns within the
            # share, whose mass is the largest partial sum within it
            cs = np.cumsum(new[:, :, c - cb:k1 - cb], axis=2)
            within = cs <= col_share
            lo[:, k0:k1] = c + within.sum(2)
            cs *= within
            l1 += cs.max(2).sum(1)
            del cs, within  # before the next block's buffer is made
    out = np.zeros((rows, n + 1))
    out[:, cb:cb + r.shape[2]] = r[:, n - rb]
    return out, l1


@dataclass(frozen=True)
class ContactLaw:
    """Law of the contact number L_n; log_pmf[l] = log P[L_n = l], entry 0
    is -inf (the pinned endpoint forces L_n >= 1).  l1_bound bounds the L1
    distance of pmf() to the exact pmf from the terms the count DP left
    out (0 for the exact route); it does not cover roundoff."""

    log_pmf: np.ndarray = field(repr=False)
    l1_bound: float = 0.0

    @property
    def n(self) -> int:
        return self.log_pmf.size - 1

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
    profiles of a (window, start), the excursion CDF P[M_n <= b] up to a
    cap and the contact laws at a budget are built for every row the
    first time any row asks, and cached.  The engines are row-local, so
    each row's tables are bit-identical to a one-row block's; only the
    laws at a budget > 0 share a band among _BAND_ROWS rows.  Tables are
    read-only: every row view shares them.  ``systems()`` yields the rows
    as QuenchedSystem views."""

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
        self._laws = {}  # budget -> (log_pmf, l1)

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

    def excursion_cdf(self, m: int) -> np.ndarray:
        """ex[r, b-1] = P[M_n <= b] of row r, the probability that no
        excursion is longer than b, for b = 1..M with M >= m, 1 <= m < n.

        The caps past the cached M run ``_capped_cdf`` on the block's
        prefix table, one pair per missing (row, cap), at most _CAP_PASS
        pairs per pass."""
        m = _index("m", m, 1, self.n - 1)
        rows, have = self.rows, self._excursion.shape[1]
        if m > have:
            grown = np.empty((rows, m))
            grown[:, :have] = self._excursion
            # the missing (row, cap) pairs, at column cap - 1 of the table
            col, row = np.divmod(np.arange(have * rows, m * rows), rows)
            for lo in range(0, col.size, _CAP_PASS):
                c, r = col[lo:lo + _CAP_PASS], row[lo:lo + _CAP_PASS]
                grown[r, c] = _capped_cdf(self.prefix_logZ, self.law.log_p,
                                          self.site_weight, r, c + 1)
            self._excursion = _frozen(grown)
        return self._excursion

    def contact_laws(self, budget: float = 0.0) -> tuple:
        """(log_pmf, l1): log_pmf[r, l] = log P[L_n = l] of row r for l =
        0..n, within L1 budget of the exact law, and l1[r] <= budget, the
        certificate of ``_count_dp`` on the terms row r left out; computed
        on the first ask at each budget and cached read-only.

        At budget 0 the laws are exact (l1 0).  The count DP runs the rows
        in chunks whose (n+1)^2 tables fit in _LAW_BYTES, at least one row
        a chunk; it is row-local, so each row holds the bytes of its own
        one-row run.  Inside a run memo the table is kept under the law, h
        and the shape (which holds n) and digest of the block's charges, so
        a block built later on the same charges reads it and runs no count
        DP.  A budget > 0 runs the banded count DP on _BAND_ROWS rows at a
        time, which share the widest band and column window that any of
        them needs: a row's law may differ from its one-row run by terms
        that either run left out, within the two certificates.  These laws
        stay on the block, not in the memo."""
        if not 0.0 <= budget < 1.0:
            raise ValueError(f"budget = {budget} is outside [0, 1)")
        if budget not in self._laws:
            if budget:
                pmf, l1 = self._count_rows(budget, _BAND_ROWS)
                log_pmf = _log_pmf(pmf)
            else:
                chunk = max(1, _LAW_BYTES // (8 * (self.n + 1) ** 2))
                log_pmf = _memoised(
                    self.law, ("contact_laws", self.h, self.charges),
                    lambda: _log_pmf(self._count_rows(0.0, chunk)[0]))
                l1 = np.zeros(self.rows)
            self._laws[budget] = (log_pmf, _frozen(l1))
        return self._laws[budget]

    def _count_rows(self, budget: float, chunk: int):
        """(pmf, l1) of every row by ``_count_dp``, chunk rows a run."""
        pmf, l1 = np.empty((self.rows, self.n + 1)), np.empty(self.rows)
        for lo in range(0, self.rows, chunk):
            hi = lo + chunk
            pmf[lo:hi], l1[lo:hi] = _count_dp(self.prefix_logZ[lo:hi],
                                              self.law.log_p,
                                              self.site_weight[lo:hi], budget)
        return pmf, l1

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
            # bit for bit row `start` of the row's segment table
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
    share its prefix, suffix, avoidance, excursion and contact-law
    tables.  Every public method is a pure read."""

    def __init__(self, law, h: float, omega, n: int):
        if isinstance(omega, _Row):  # built by QuenchedBlock.systems()
            block, row = omega.block, omega.index
        else:
            om = None if omega is None else np.asarray(omega, dtype=float)[None]
            block, row = QuenchedBlock(law, h, om, n), 0
        self._block, self._row = block, row
        self.law, self.h, self.n = block.law, block.h, block.n
        self.site_weight = block.site_weight[row]

    @property
    def prefix_logZ(self) -> np.ndarray:
        """prefix[k] = log Z_{0,k} for k = 0..n: the system's row of the
        block's prefix table, which the first read builds."""
        return self._block.prefix_logZ[self._row]

    @property
    def log_z(self) -> float:
        return float(self.prefix_logZ[self.n])

    def suffix_logZ(self) -> np.ndarray:
        """suffix[a] = log Z_{[a, n]} for a = 0..n (suffix[0] = log Z)."""
        return self._block.suffix_logZ()[self._row]

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
        budget of the exact one: the system's row of the block's
        ``contact_laws(budget)``, which the first row to ask computes for
        every row.

        It runs on per-level renewal probabilities (each level's
        first-excursion weights, normalised to sum to 1), so everything
        stays in [0, 1] with nonnegative terms only.  At budget 0 the law
        is exact (l1_bound 0), a step costing O(k^2) and the table O(n^2)
        memory per row.  A budget > 0 lets the band and column window
        move and holds only the band of the table, so that a step costs
        O(T C) and the rows O(T C) memory, T the band and C the columns
        that carry mass, and the law carries the certificate l1_bound <=
        budget on the terms left out.  The block runs _BAND_ROWS rows per
        count DP, which share their band and window, so a row may keep
        more terms than it would alone.  That suits a caller that reads
        only the CDF to absolute accuracy (KS_L1_BUDGET, for the KS
        distances); a caller of the tails (relative accuracy far below
        the bulk) needs budget 0."""
        log_pmf, l1 = self._block.contact_laws(budget)
        return ContactLaw(log_pmf[self._row], float(l1[self._row]))

    # -- cumulants ----------------------------------------------------------

    def cumulants(self, r_max: int) -> CumulantVector:
        """kappa_k = d^k/dh^k log Z for k = 1..r_max, r_max <=
        DEFAULT_JET_ORDER, and kappa_0 = log Z.

        The centred moment rows of _forward run at order r_max, centred at
        the homogeneous chain's contact density c at h
        (``InterArrivalLaw.contact_density``), which depends on the law
        and h only.  The cumulants of L_n - c n come from its moments by
        the log-series recursion, and kappa_1 adds c n.  Near the mean,
        the centred moments are far below the raw moments' n^m, so far
        less cancels; the further c sits from the mean, the more:
        tests/test_accuracy.py states the error of kappa_1..kappa_6 against
        a 40-digit moment DP.  kappa_0 is log Z of the Y_0 row: ``log_z``
        to roundoff (its step sums in another order), without the prefix
        DP.  Inside a run memo the column of moments at n is kept under
        h, the order and the digest of the system's charges, so a later
        call on the same chain, or one whose column ``_seed_cumulants``
        kept, reads it."""
        r_max = _index("r_max", r_max, 0, DEFAULT_JET_ORDER)
        if self.n == 0:
            return CumulantVector(np.zeros(r_max + 1))
        c = self.law.contact_density(self.h)
        order = max(r_max, 1)

        def own_pass():
            sc, coef = _forward(self.law.log_p, self.site_weight[None, 1:],
                                order, [c], [self.n])
            return np.concatenate((sc[0], coef[0, 0]))
        # the key _seed_cumulants keeps a column under
        column = _memoised(self.law, ("cumulants", self.h, order,
                                      self._block.charges[self._row, 1:]),
                           own_pass)
        g = log_of_jet(column[0], column[1:])
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
        """P[M_n <= m], the probability that no excursion is longer than m,
        clamped to at most 1, which roundoff can pass.

        Reads the block's excursion table (``_capped_cdf``): the first row
        of a block to ask for a cap past the table's runs the missing caps
        of every row (``QuenchedBlock.excursion_cdf``), so a caller that
        wants several caps should ask for the largest first: they then
        all come from the fewest passes.  Each entry is bit-identical
        whatever pass computed it."""
        m = _index("m", m, 1, math.inf)
        if self.n == 0 or m >= self.n:
            return 1.0
        return min(1.0, float(self._block.excursion_cdf(m)[self._row, m - 1]))


def _seed_cumulants(law, omega, h_values, n_values, order: int):
    """Keep in the open run memo, for every h of h_values and every n of
    _pass_columns(n_values), the column that
    QuenchedSystem(law, h, omega[:n], n).cumulants(r), max(r, 1) = order,
    reads, from one _forward pass at the largest n with one row per h
    (its site weights h + omega, centred at its own contact density).  A
    column holds the bits of the cell's own pass: rows are row-local, and
    a column does not depend on how far the pass runs past it.  Cells it
    does not keep run their own pass.  Outside a run memo it does
    nothing."""
    if _MEMO.get() is None:
        return
    at = _pass_columns(law.log_p, n_values, order)
    hs = [float(h) for h in h_values]
    sc, coef = _forward(law.log_p, np.array(hs)[:, None] + omega[:at[-1]],
                        order, np.array([law.contact_density(h) for h in hs]),
                        at)
    for i, h in enumerate(hs):
        for j, n in enumerate(at):
            _memoised(law, ("cumulants", h, order, omega[:n]),
                      lambda: np.concatenate(([sc[i, j]], coef[i, j])))
