"""Dynamic programs against the exhaustive-enumeration ground truth.

Every observable of QuenchedSystem has an independent brute-force twin in
the oracle module; these tests drive both over random small instances and
require agreement at near machine precision.
"""

import math
import tracemalloc
from itertools import chain

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinlab.model import (
    build_law,
    gaussian_disorder,
    geometric_test_law,
    law_from_table,
    zero_disorder,
)
from pinlab.numerics import DEFAULT_JET_ORDER, _log_series
from pinlab.oracle import (
    contact_covariance,
    contact_moment,
    enumerate_avoidance,
    enumerate_contact_pmf,
    enumerate_contact_probabilities,
    enumerate_excursion_cdf,
    enumerate_joint_cumulant,
    enumerate_moment,
    enumerate_partition,
    two_replica_avoidance,
    two_replica_avoidance_lse,
    two_replica_profiles,
    ursell,
)
from pinlab import quenched
from pinlab.quenched import (
    _LANE,
    _TILE,
    KS_L1_BUDGET,
    QuenchedBlock,
    QuenchedSystem,
    _forward,
    _moment_flush,
    _pair_forward,
    _segment_tables,
    ks_to_standard_normal,
)
from support import mp_log_prefix, mp_prefix, random_instance

GEOM = geometric_test_law(64)


def _systems(seed, count, n_lo=1, n_hi=14, extreme=False):
    """Random instances; extreme ones sit at the edge of the supported
    range, h in [-40, 60] and charges up to |omega| = 800."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        law, h, omega, n = random_instance(rng, n_lo=n_lo, n_hi=n_hi)
        if extreme:
            h = float(rng.uniform(-40.0, 60.0))
            omega = rng.uniform(-800.0, 800.0, n)
        yield law, h, omega, n, QuenchedSystem(law, h, omega, n)


# -- partition functions ------------------------------------------------------

def test_log_z_matches_enumeration():
    for law, h, omega, n, sys_ in chain(_systems(10, 60),
                                        _systems(110, 30, extreme=True)):
        want = enumerate_partition(law, h, omega, n)
        assert sys_.log_z == pytest.approx(want, rel=1e-14, abs=1e-11)


def test_prefix_and_suffix_assemble():
    for law, h, omega, n, sys_ in chain(_systems(12, 10, n_lo=2),
                                        _systems(112, 10, n_lo=2, extreme=True)):
        assert sys_.prefix_logZ[0] == 0.0
        assert sys_.prefix_logZ[n] == pytest.approx(sys_.log_z, abs=1e-12)
        # prefix at k is the partition of the chain cut at k
        for k in range(1, n):
            cut = QuenchedSystem(law, h, omega[:k], k)
            assert sys_.prefix_logZ[k] == pytest.approx(cut.log_z, abs=1e-11)
        suf = sys_.suffix_logZ()
        assert suf[n] == 0.0
        assert suf[0] == pytest.approx(sys_.log_z, rel=1e-14, abs=1e-11)
        # suffix at a is the partition of the chain started at a
        for a in range(n):
            want = enumerate_partition(law, h, omega[a:], n - a)
            assert suf[a] == pytest.approx(want, rel=1e-14, abs=1e-11)


def test_segment_table_matches_shifted_chains():
    for law, h, omega, n, sys_ in chain(_systems(13, 8, n_lo=3, n_hi=10),
                                        _systems(113, 8, n_lo=3, n_hi=10,
                                                 extreme=True)):
        seg = _segment_tables(law.log_p, sys_.site_weight[None, 1:], n)[0]
        for i in range(n):
            for j in range(i + 1, n + 1):
                sub = QuenchedSystem(law, h, omega[i:j], j - i)
                assert seg[i, j - i] == pytest.approx(sub.log_z, abs=1e-10)
                want = enumerate_partition(law, h, omega[i:j], j - i)
                assert seg[i, j - i] == pytest.approx(want, rel=1e-14,
                                                      abs=1e-10)


def test_degenerate_empty_chain():
    sys_ = QuenchedSystem(GEOM, 0.3, np.zeros(0), 0)
    assert sys_.log_z == 0.0
    np.testing.assert_allclose(sys_.contact_law().pmf(), [1.0])
    assert sys_.contact_law().n == 0
    assert sys_.max_excursion_cdf(1) == 1.0
    assert np.all(sys_.cumulants(3).kappa[1:] == 0.0)


def test_horizon_guard():
    with pytest.raises(ValueError):
        QuenchedSystem(geometric_test_law(8), 0.0, np.zeros(9), 9)


def test_non_finite_input_is_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="h = "):
            QuenchedSystem(GEOM, bad, np.zeros(4), 4)
        omega = np.zeros(6)
        omega[2] = bad
        with pytest.raises(ValueError, match="omega_3"):
            QuenchedSystem(GEOM, 0.5, omega, 6)
    # charges past n are never read, so they are not checked
    QuenchedSystem(GEOM, 0.5, np.array([0.0, 0.0, math.nan]), 2)


# -- the forward engine -------------------------------------------------------

def _assert_moment_rows_close(sc, coef, want, order):
    """(sc, coef) of _forward at an order R within roundoff of want, the
    same rows by another route: the same -inf entries of log Z, each
    finite log Z_k within 1e-13 of max(1, max_{j <= k} |log Z_j|), and
    each coefficient m of column k within 1e-13 (2k)^m / m!, the scale of
    E[(L_k - c k)^m] / m! (the bounds of
    test_moment_rows_under_extreme_charges)."""
    want_sc, want_coef = want
    fin = np.isfinite(want_sc)
    assert np.array_equal(np.isfinite(sc), fin)
    assert np.array_equal(sc[~fin], want_sc[~fin])
    size = np.maximum.accumulate(np.where(fin, np.abs(want_sc), 0.0), axis=1)
    gap = np.zeros(sc.shape)
    gap[fin] = np.abs(sc[fin] - want_sc[fin])
    assert np.all(gap <= 1e-13 * np.maximum(1.0, size))
    m = np.arange(order + 1)
    inv_fact = 1.0 / np.array([math.factorial(i) for i in m], dtype=float)
    scale = (2.0 * np.maximum(np.arange(sc.shape[1]), 1))[:, None] ** m
    assert np.all(np.abs(coef - want_coef) <= 1e-13 * scale * inv_fact)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=48),
       st.sampled_from(["C", "F", "window"]),
       st.integers(min_value=0, max_value=2 ** 32),
       st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
       st.booleans())
def test_forward_rows_match_single_row_runs(rows, n, layout, seed, order,
                                            long):
    # a row's table is bit-identical whatever batch it is computed in;
    # with an order R the engine returns log Z and the centred moment
    # rows, at a random centre: a float centre runs the rows fused, a
    # centre per row (here distinct or all equal) one product per row,
    # and the columns it keeps with `at` are those of the full table.  A
    # long chain (n past 900) puts the geometric law past its certificate,
    # which holds up to n = 894 at order 0 and less far at higher orders:
    # the rows run the tilted law
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 1.0, rows)
    fused = order is not None and rng.random() < 0.5
    if fused or rng.random() < 0.5:
        centres[:] = centres[0]
    law = GEOM
    if long:
        law = geometric_test_law(1000)
        n += 900
    if order is not None:
        n = max(n, 1)
    if layout == "window":
        # overlapping rows as in the segment table, -inf past the end
        flat = rng.normal(0.0, 3.0, rows + n - 1)
        flat[n:] = -math.inf
        b = np.lib.stride_tricks.sliding_window_view(flat, n)
    else:
        b = np.asarray(rng.normal(0.0, 3.0, (rows, n)), order=layout)

    def run(weights, centre):
        if order is None:
            return (_forward(law.log_p, weights),)
        return _forward(law.log_p, weights, order, centre)

    def centre_of(r):
        """Row r's centre as the batch passes it: a float, or [c_r]."""
        return float(centres[r]) if fused else centres[r:r + 1]

    batch_centre = float(centres[0]) if fused else centres
    batched = run(b, batch_centre)
    assert batched[0].shape == (rows, n + 1)
    for table in batched:
        assert not np.isnan(table).any()
    # a row keeps its bits run alone on its route (fused, one row padded
    # to a row tile), and fused (every order-0 pass) in the batch reversed
    # too; a fused moment row sits within roundoff of the same row run
    # per row
    for r in range(rows):
        one = np.ascontiguousarray(b[r:r + 1])
        alone = run(one, centre_of(r))
        for table, single in zip(batched, alone):
            assert table[r].tobytes() == single[0].tobytes()
        if fused:
            _assert_moment_rows_close(batched[0][r:r + 1],
                                      batched[1][r:r + 1],
                                      run(one, centres[r:r + 1]), order)
    if fused or order is None:
        for table, back in zip(batched, run(b[::-1], batch_centre)):
            back = np.ascontiguousarray(back[::-1])
            assert table.tobytes() == back.tobytes()
    if order is not None:
        at = sorted(rng.choice(n + 1, int(rng.integers(1, n + 2)),
                               replace=False).tolist(), reverse=True)
        for table, kept in zip(batched, _forward(law.log_p, b, order,
                                                 batch_centre, at)):
            assert kept.tobytes() == np.ascontiguousarray(table[:, at]).tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([1, 2, 4, 8]),
       st.integers(min_value=16, max_value=512))
@example(7, 8, 512)
def test_fused_moment_rows_are_row_local(seed, order, n):
    # the locality contract of _forward's fused route, as disorder_mc
    # runs it (rows of one law, h and centre, a float): a row's log Z and
    # coefficients keep their bits in a pass of 1 (padded to 4), 4, 6
    # (padded to 8), 8 or 64 rows, at any position, with its block-mates
    # permuted, and with block-mates that rescale and flush at other
    # columns (h +- 2 and charges of 4 sigma); the same row on the per-row
    # route (centre [c]) agrees with it within the README bounds of log Z,
    # kappa_1 and kappa_2.  At order 8, 64 rows and windows past 192
    # columns a step's product runs in row groups, to stay within
    # _SMALL_GEMM
    rng = np.random.default_rng(seed)
    law = build_law(1.0, None, 512)
    h = float(rng.uniform(1.0, 3.5))
    c = law.contact_density(h)
    at = sorted({int(k) for k in rng.integers(1, n, 2)} | {n})
    row = h + rng.normal(0.0, 1.0, n)

    def mates(count, wild):
        if wild:
            shift = rng.choice([-2.0, 2.0], (count, 1))
            return h + shift + rng.normal(0.0, 4.0, (count, n))
        return h + rng.normal(0.0, 1.0, (count, n))

    def passed(size, wild):
        """The row's (log Z, coefficients) in a pass of size rows."""
        b = mates(size, wild)
        i = int(rng.integers(size))
        b[i] = row
        sc, coef = _forward(law.log_p, b, order, c, at)
        perm = rng.permutation(size)
        back = _forward(law.log_p, b[perm], order, c, at)
        j = int(np.flatnonzero(perm == i)[0])
        assert back[0][j].tobytes() == sc[i].tobytes()
        assert back[1][j].tobytes() == coef[i].tobytes()
        return sc[i], coef[i]

    want_sc, want_coef = passed(4, False)
    for size in (1, 4, 6, 8, 64):
        for wild in (False, True):
            sc, coef = passed(size, wild)
            assert sc.tobytes() == want_sc.tobytes(), (size, wild)
            assert coef.tobytes() == want_coef.tobytes(), (size, wild)
    sc, coef = _forward(law.log_p, row[None], order, [c], at)
    assert np.all(np.abs(sc[0] - want_sc)
                  <= 1e-14 * np.maximum(1.0, np.abs(sc[0])))
    fact = np.array([math.factorial(m) for m in range(order + 1)], dtype=float)
    got, want = (_log_series(x)[:, 1:3] * fact[1:3]
                 for x in (coef[0], want_coef))
    got[:, 0] += c * np.asarray(at)
    want[:, 0] += c * np.asarray(at)
    bounds = np.array([1e-14, 1e-13])[:order]
    assert np.all(np.abs(got - want) <= bounds * np.abs(want))


def test_moment_columns_do_not_depend_on_how_far_the_pass_runs():
    # a column keeps its bits whether the pass ends there or runs on (the
    # rule the grid passes of disorder_mc and pinlab compute rely on), on
    # both routes, with the rows rescaled and flushed at theta before it:
    # theta is the law's, not the pass's
    law = build_law(1.0, None, 512)
    rng = np.random.default_rng(31)
    b = 3.5 + rng.normal(0.0, 1.0, (6, 512))
    for centre in (law.contact_density(3.5), rng.uniform(0.8, 1.0, 6)):
        sc, coef = _forward(law.log_p, b, 2, centre, [128, 256, 512])
        assert sc[:, 0].min() > quenched._RESCALE
        for j, n in enumerate((128, 256)):
            short = _forward(law.log_p, b[:, :n], 2, centre, [n])
            assert short[0][:, 0].tobytes() == sc[:, j].tobytes()
            assert short[1][:, 0].tobytes() == coef[:, j].tobytes()


def test_steep_law_with_a_falling_partition_function():
    # p(t) = 2^-t at h = -5 without disorder: Z_k = 2^-k e^h (1 + e^h)^(k-1)
    # falls as fast as p, so the term of j = 0 stays as large as the latest
    # ones.  log p spans 1386 nats on [1, 2000], past the linear step's
    # certificate: the rows run the tilted law, flat here, and no entry is
    # lost
    n, h = 2000, -5.0
    z = _forward(geometric_test_law(4096).log_p, np.full((1, n), h))[0]
    with mp.workdps(40):
        want = np.array([float(-k * mp.log(2) + h + (k - 1) * mp.log1p(mp.exp(h)))
                         for k in range(1, n + 1)])
    assert np.isfinite(z).all()
    assert (np.abs(z[1:] - want) / np.abs(want)).max() <= 1e-14


def test_first_step_is_exact():
    # step 1 is log p(1) + b[:, 0] bit for bit; so the pair DP's log a_1 =
    # 2 (log p(1) + b_1) - 2 log Z_1 is exactly 0
    rng = np.random.default_rng(44)
    power = build_law(1.0, None, 64).log_p
    b = rng.normal(0.0, 3.0, (6, 40))
    for log_p in (GEOM.log_p, power):
        got = _forward(log_p, b)[:, 1]
        assert got.tobytes() == (log_p[1] + b[:, 0]).tobytes()
    for h in (-1.0, 1.0, 3.0):
        sys_ = QuenchedSystem(build_law(1.0, None, 64), h,
                              rng.normal(0.0, 1.0, 64), 64)
        for start in (0, 7):
            assert sys_.two_replica_avoidance_log(32, start)[1] == 0.0


def _full_window_jet_forward(log_p, b, order):
    """Reference for the moment rows: the recursion in log domain with each
    entry a Taylor jet in h, every step over its full window.  Returns
    (sc, coef), sc[r, k] = log Z_{0,k} and coef[r, k, j] = E[L_k^j] / j!,
    the coefficients of d^j Z_{0,k} / dh^j / (j! Z_{0,k})."""
    rows, n = b.shape
    j = np.arange(order + 1)
    inv_fact = 1.0 / np.array([math.factorial(i) for i in j], dtype=float)
    cols = np.tril(inv_fact[np.abs(j[:, None] - j[None, :])])[:, :, None]
    sc = np.empty((rows, n + 1))
    coef = np.zeros((rows, n + 1, order + 1))
    sc[:, 0] = 0.0
    coef[:, 0, 0] = 1.0
    for k in range(1, n + 1):
        w = sc[:, :k] + log_p[k:0:-1]
        m = w.max(1)
        u = np.exp(w - m[:, None])
        acc = np.matmul(u[:, None, :], coef[:, :k])
        conv = np.matmul(acc[:, None], cols)[:, :, 0, 0]
        c0 = conv[:, 0]
        sc[:, k] = m + np.log(c0) + b[:, k - 1]
        coef[:, k] = conv / c0[:, None]
    return sc, coef


def _bumpy_log_p(rng, size):
    """log p(t), t = 0..size, of a table law that decays at a random slope
    but jumps up by hundreds at random t, so p is far from monotone."""
    t = np.arange(1, size + 1)
    lp = -float(rng.uniform(0.5, 4.0)) * t
    bumps = rng.random(size) < 0.1
    lp[bumps] += rng.uniform(100.0, 1500.0, int(bumps.sum()))
    return np.concatenate(([-math.inf], lp))


def _long_chain_weights(rng, rows, n):
    """Weights of long chains: each row has its own h in [-40, 60], charges
    up to |omega| = 800, and may carry an early burst of +800 charges, a
    run of -800 charges (a row's early terms then dominate its late ones)
    or -inf weights."""
    b = np.empty((rows, n))
    for r in range(rows):
        spread = float(rng.choice([0.0, 1.0, 30.0, 800.0]))
        b[r] = float(rng.uniform(-40.0, 60.0)) + rng.uniform(-spread, spread, n)
        if rng.random() < 0.5:
            lo = int(rng.integers(0, n // 4))
            b[r, lo:lo + int(rng.integers(1, 10))] += 800.0
        if rng.random() < 0.5:
            lo = int(rng.integers(0, n))
            b[r, lo:lo + int(rng.integers(1, n))] -= 800.0
        if rng.random() < 0.2:
            b[r, rng.random(n) < 0.1] = -math.inf
        if rng.random() < 0.1:
            b[r, int(rng.integers(0, n)):] = -math.inf
    return b


def _centred_jets(coef, centre):
    """The coefficients E[(L_k - c k)^m] / m! from the jets' E[L_k^m] / m!:
    the Cauchy product of each jet with the series of e^{-s c k}."""
    rows, size, width = coef.shape
    m = np.arange(width)
    inv_fact = 1.0 / np.array([math.factorial(i) for i in m], dtype=float)
    shift = (-centre * np.arange(size))[:, None] ** m * inv_fact
    out = np.zeros_like(coef)
    for top in m:
        for i in range(top + 1):
            out[:, :, top] += coef[:, :, i] * shift[:, top - i]
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=200, max_value=1000),
       st.sampled_from(["geometric", "power", "bumpy"]),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2 ** 32))
# in row 4, log Z reaches 896 at k = 107, then falls to 0.12 at k = 290,
# where it is 8e-13 off the jets: a bound relative to that entry alone
# fails at the roundoff the entry carries from the larger ones before it
@example(5, 563, "geometric", 1, 0.0, 563)
@example(3, 900, "geometric", 2, 0.5, 900)
def test_moment_rows_under_extreme_charges(rows, n, law_kind, order, centre,
                                           seed):
    # long chains with extreme charges: the moment rows stay finite (a
    # RuntimeWarning fails the test), keep the -inf entries of _forward,
    # and, on finite weights, sit within roundoff of the full-window jets:
    # log Z_k within 1e-13 of max(1, max_{j <= k} |log Z_j|) (a late
    # entry carries the roundoff of the largest one before it), and each
    # coefficient m of column k within 1e-13 (2k)^m / m!, the scale of
    # E[(L_k - c k)^m] / m!.  The flush bound of the moment rows, 2^-60
    # 2^m / m! per step, is far below that.  The geometric law past its
    # certificate (n of 874 on at order 1, 727 on at order 8; the second
    # example) runs the tilted law; the bumpy law, far from log-linear, is
    # refused
    rng = np.random.default_rng(seed)
    if law_kind == "geometric":
        log_p = geometric_test_law(n).log_p
    elif law_kind == "power":
        log_p = build_law(1.0, None, n).log_p
    else:
        log_p = _bumpy_log_p(rng, n)
    b = _long_chain_weights(rng, rows, n)
    if law_kind == "bumpy":
        with pytest.raises(ValueError, match=rf"spans .* nats on \[1, {n}\]"):
            _forward(log_p, b, order, centre)
        return
    sc, coef = _forward(log_p, b, order, centre)
    assert np.isfinite(coef).all()
    z = _forward(log_p, b)
    assert np.array_equal(np.isfinite(sc), np.isfinite(z))
    finite = np.where(np.isinf(b), -40.0, b)  # the jets take finite weights
    sc, coef = _forward(log_p, finite, order, centre)
    want_sc, want_coef = _full_window_jet_forward(log_p, finite, order)
    scale = np.maximum(1.0, np.maximum.accumulate(np.abs(want_sc), axis=1))
    assert (np.abs(sc - want_sc) / scale).max() <= 1e-13
    m = np.arange(order + 1)
    inv_fact = 1.0 / np.array([math.factorial(i) for i in m], dtype=float)
    scale = (2.0 * np.maximum(np.arange(n + 1), 1))[:, None] ** m * inv_fact
    assert np.all(np.abs(coef - _centred_jets(want_coef, centre))
                  <= 1e-13 * scale)


def test_moment_flush_keeps_the_floor():
    # theta = max(_FLUSH, e^{-60 log 2 - (2R+1) log n - span}), span the
    # nats log p spans on [1, n].  Scan's law (power, alpha 1) at n = 512
    # and order 2 gets about e^-85.  The geometric law at n = 700 spans 699
    # log 2 nats; its own theta falls below _FLUSH from order 11 on, and
    # keeps _FLUSH there, while the law tilted at 700 (the law a pass
    # there runs from order 10 on, past the certificate), flat, gets
    # e^{-60 log 2 - (2R+1) log 700}
    power = build_law(1.0, None, 512)
    assert abs(math.log(_moment_flush(power.log_p, 2)) + 85.0) < 1.0
    law = geometric_test_law(700)
    tilted, _ = quenched._tilted(law.log_p, 700)
    below = []
    for order in (2, 10, 11, 12):
        top = quenched._DROPPED - (2 * order + 1) * math.log(700.0)
        raw = top - 699 * math.log(2.0)
        below.append(raw < math.log(quenched._FLUSH))
        theta = _moment_flush(law.log_p, order)
        if below[-1]:
            assert theta == quenched._FLUSH
        else:
            assert theta == pytest.approx(math.exp(raw), rel=1e-9)
        assert _moment_flush(tilted, order) == pytest.approx(
            math.exp(top), rel=1e-9)
    assert below == [False, False, True, True]


def test_long_chains_match_mpmath():
    # long chains with extreme charges against the 40-digit DP, within
    # 1e-14 relative to max(1, |log Z|), and -inf exactly where it is:
    # the geometric law at n = 512 runs the linear step, at n = 700 the
    # tilted law.  The bumpy law (log p spans thousands of nats, and no
    # tilt flattens it) is refused
    rng = np.random.default_rng(45)
    for n in (512, 700):
        log_p = geometric_test_law(n).log_p
        b = _long_chain_weights(rng, 2, n)
        z = _forward(log_p, b)
        for got, w in zip(z, b):
            want = mp_log_prefix(log_p, w)
            fin = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), fin)
            assert np.array_equal(got[~fin], want[~fin])
            d = np.abs(got[fin] - want[fin]) / np.maximum(1.0, np.abs(want[fin]))
            assert d.max() <= 1e-14
    for _ in range(2):
        log_p = _bumpy_log_p(rng, 512)
        with pytest.raises(ValueError, match=r"spans .* nats on \[1, 512\]"):
            _forward(log_p, _long_chain_weights(rng, 2, 512))


def test_forward_takes_one_exp_and_log_per_row_and_step(monkeypatch):
    # the linear step: one log and one exp per row and step, besides one
    # exp per entry of p when the law is set up and one per row rescaled;
    # on a long localized chain a rescale is rare (Z grows ~2 nats a step).
    # The 3 rows run as one tile of _TILE rows, the last row padding it
    n, rows = 512, 3
    tiled = -(-rows // _TILE) * _TILE
    law = build_law(1.0, None, n)
    b = 3.0 + np.random.default_rng(3).normal(0.0, 1.0, (rows, n))
    terms = {"exp": [], "log": []}
    for name in terms:
        def counting(x, *args, _f=getattr(np, name), _to=terms[name], **kw):
            _to.append(np.size(x))
            return _f(x, *args, **kw)
        monkeypatch.setattr(np, name, counting)
    z = _forward(law.log_p, b)
    monkeypatch.undo()
    assert terms["log"] == [tiled] * n
    setup, steps = terms["exp"][0], terms["exp"][1:]
    assert setup == n + _LANE
    assert steps.count(tiled) == n
    assert sum(steps) <= tiled * n + tiled * n // 64
    for got, w in zip(z, b):
        want = mp_log_prefix(law.log_p, w)
        assert (np.abs(got - want) / np.maximum(1.0, np.abs(want))).max() <= 1e-14


# -- contact observables ------------------------------------------------------

def test_contact_probabilities_match_oracle():
    for law, h, omega, n, sys_ in chain(_systems(20, 40, n_lo=2),
                                        _systems(120, 20, n_lo=2, extreme=True)):
        want = enumerate_contact_probabilities(law, h, omega, n)
        got = [sys_.contact_probability(a) for a in range(n + 1)]
        np.testing.assert_allclose(got, want, atol=1e-11)


def test_contact_moments_match_oracle():
    rng = np.random.default_rng(21)
    for law, h, omega, n, sys_ in _systems(21, 25, n_lo=3):
        k = int(rng.integers(1, 4))
        sites = sorted(rng.choice(np.arange(1, n), size=min(k, n - 1),
                                  replace=False).tolist())
        want = enumerate_moment(law, h, omega, n, sites)
        assert contact_moment(sys_, sites) == pytest.approx(want, abs=1e-11)


def test_covariance_and_ursell_match_oracle():
    rng = np.random.default_rng(22)
    for law, h, omega, n, sys_ in _systems(22, 20, n_lo=4, n_hi=10):
        a, b = sorted(rng.choice(np.arange(1, n), size=2, replace=False).tolist())
        want = enumerate_joint_cumulant(law, h, omega, n, [a, b])
        assert contact_covariance(sys_, a, b) == pytest.approx(want, abs=1e-11)
        assert ursell(sys_, [a, b]) == pytest.approx(want, abs=1e-11)
        assert ursell(sys_, [a]) == pytest.approx(
            sys_.contact_probability(a), abs=1e-12)


# -- contact-number law -------------------------------------------------------

def test_contact_law_matches_oracle(monkeypatch):
    # budgets of the one count DP: 0 (exact, the band never moves), the
    # KS consumers' budget, a budget that leaves out real mass, and a
    # subnormal budget (budget / 2n underflows to 0).  The band moves
    # every _ADVANCE steps: every 2nd here, so that it engages at these
    # n <= 14
    monkeypatch.setattr(quenched, "_ADVANCE", 2)
    for budget in (0.0, KS_L1_BUDGET, 0.1, 5e-324):
        for law, h, omega, n, sys_ in chain(_systems(30, 30),
                                            _systems(130, 20, extreme=True)):
            want = enumerate_contact_pmf(law, h, omega, n)
            cl = sys_.contact_law(budget)
            assert cl.n == n and 0.0 <= cl.l1_bound <= budget
            np.testing.assert_allclose(cl.pmf(), want,
                                       atol=1e-11 + cl.l1_bound)
            assert np.abs(cl.pmf() - want).sum() <= cl.l1_bound + 1e-11
            assert cl.pmf().sum() == pytest.approx(1.0,
                                                   abs=1e-10 + cl.l1_bound)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=2, max_value=8),
       st.booleans())
@example(3, 64, 7, True)
def test_exact_laws_keep_their_bytes_in_any_chunk(seed, n, chunk, extreme):
    # the count DP is row-local: a row's exact pmf has the same bytes run
    # alone (a one-row block), in chunks of 2..8 rows and in the one
    # chunk of a 64-row block, under charges up to +-800 too; its steps
    # run in blocks of _ADVANCE, so n <= 64 reaches the in-block steps,
    # the stacked product of the finished rows and a last partial block
    rng = np.random.default_rng(seed)
    law = build_law(float(rng.uniform(1.0, 2.5)), None, 64)
    h = float(rng.uniform(-40.0, 60.0) if extreme else rng.uniform(0.0, 4.0))
    charges = (rng.uniform(-800.0, 800.0, (64, n)) if extreme
               else rng.normal(0.0, 1.0, (64, n)))
    block = QuenchedBlock(law, h, charges, n)
    laws, l1 = block.contact_laws()
    assert not l1.any()
    pre, b = block.prefix_logZ, block.site_weight
    for lo in range(0, 64, chunk):
        pmf, l1 = quenched._count_dp(pre[lo:lo + chunk], law.log_p,
                                     b[lo:lo + chunk], 0.0)
        assert not l1.any()
        with np.errstate(divide="ignore"):
            assert np.log(pmf).tobytes() == laws[lo:lo + chunk].tobytes()
    for r in rng.choice(64, 4, replace=False):
        alone = QuenchedSystem(law, h, charges[r], n).contact_law()
        assert alone.log_pmf.tobytes() == laws[r].tobytes(), r


def test_exact_laws_of_a_block_fit_the_chunk_cap():
    # the 64 exact laws of a block at n = 256 run in chunks of 7 rows,
    # whose (n+1)^2 tables stay within _LAW_BYTES (4 MiB): the tracemalloc
    # peak stays within the cap plus 1 MB (measured 4.8 MB, 3.7 MB of it
    # the chunk's table), not the 34 MB that one 64-row table would take
    n = 256
    law = build_law(1.0, None, n)
    charges = np.random.default_rng(8).normal(0.0, 1.0, (64, n))
    block = QuenchedBlock(law, 3.0, charges, n)
    block.prefix_logZ
    tracemalloc.start()
    try:
        block.contact_laws()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= quenched._LAW_BYTES + 1e6, peak


def test_contact_law_rejects_a_bad_budget():
    sys_ = QuenchedSystem(GEOM, 1.0, np.zeros(8), 8)
    for budget in (-1e-14, 1.0, math.nan):
        with pytest.raises(ValueError, match="budget"):
            sys_.contact_law(budget)


@pytest.mark.parametrize("budget", [0.1, 1e-3])
def test_band_moves_back_where_old_contacts_return(budget):
    # sites 33..80 carry -800: past site 32 the last contact before k is
    # ever older, so the mass of the rows the band left out at step 32
    # grows past its share within the next steps, and the band must move
    # back for the certificate to stay within budget
    n = 80
    omega = np.zeros(n)
    omega[32:] = -800.0
    sys_ = QuenchedSystem(build_law(1.0, None, n), 1.0, omega, n)
    cl = sys_.contact_law(budget)
    assert 0.0 < cl.l1_bound <= budget
    assert np.abs(cl.pmf() - sys_.contact_law().pmf()).sum() \
        <= cl.l1_bound + 1e-12


@pytest.mark.parametrize("h", [-40.0, 60.0])
def test_budgeted_contact_law_under_extreme_charges(h):
    # charges of +-800 at n = 400: the band's bound is checked in log
    # domain, so no exp overflows (a RuntimeWarning fails the test) and the
    # certificate is finite.  The two routes sum in different orders, and
    # at these charges the count DP's roundoff could exceed the
    # certificate: with unnormalised steps the exact law's mass was 1 to
    # within 5.2e-11 and 3.4e-10, hence the 1e-10.  Measured with the
    # normalised steps: mass within 2.2e-16, the two laws 2.1e-17 and
    # 7.0e-18 apart in L1
    n = 400
    omega = np.random.default_rng(47).uniform(-800.0, 800.0, n)
    sys_ = QuenchedSystem(build_law(1.0, None, n), h, omega, n)
    exact, cl = sys_.contact_law(), sys_.contact_law(KS_L1_BUDGET)
    assert exact.l1_bound == 0.0
    assert math.isfinite(cl.l1_bound) and cl.l1_bound <= KS_L1_BUDGET
    assert np.abs(cl.pmf() - exact.pmf()).sum() <= cl.l1_bound + 1e-10


@pytest.mark.parametrize("extreme", [False, True])
def test_budgeted_laws_of_a_block_keep_their_certificates(extreme):
    # a block's laws at a budget run _BAND_ROWS rows per banded count DP,
    # which share the widest band and column window any of them needs, so
    # a row's law is not its one-row run's; each row stays within its own
    # l1_bound of its exact law, and each bound within the budget.  The
    # extreme rows take h in [-40, 60] and charges up to +-800.  Row 5
    # carries -800 past site 32, so that at budget 1e-3 the band of its
    # chunk moves back (from 15 to 14 at h = 1 and from 27 to 26 at h = 3
    # on these charges), to a row that band storage must have kept
    rng = np.random.default_rng(61 + extreme)
    n, rows = 200, 10
    law = build_law(1.5, None, n)
    for h in (rng.uniform(-40.0, 60.0, 2) if extreme else (1.0, 3.0)):
        charges = (rng.uniform(-800.0, 800.0, (rows, n)) if extreme
                   else rng.normal(0.0, 1.0, (rows, n)))
        charges[5, 32:] = -800.0
        block = QuenchedBlock(law, float(h), charges, n)
        exact = np.exp(block.contact_laws()[0])
        for budget in (KS_L1_BUDGET, 1e-3):
            log_pmf, l1 = block.contact_laws(budget)
            assert np.all((0.0 <= l1) & (l1 <= budget)), (h, budget)
            dist = np.abs(np.exp(log_pmf) - exact).sum(1)
            assert np.all(dist <= l1 + 1e-11), (h, budget, dist - l1)
            # a chunk's rows are those of the count DP on the chunk alone,
            # and every row view reads its row of the block's laws
            for lo in range(0, rows, quenched._BAND_ROWS):
                hi = lo + quenched._BAND_ROWS
                pmf, bound = quenched._count_dp(block.prefix_logZ[lo:hi],
                                                law.log_p,
                                                block.site_weight[lo:hi],
                                                budget)
                with np.errstate(divide="ignore"):
                    assert np.log(pmf).tobytes() == log_pmf[lo:hi].tobytes()
                assert bound.tobytes() == l1[lo:hi].tobytes()
            for r, sys_ in enumerate(block.systems()):
                cl = sys_.contact_law(budget)
                assert cl.log_pmf.tobytes() == log_pmf[r].tobytes()
                assert cl.l1_bound == l1[r]


def test_budgeted_laws_run_once_per_block_outside_the_memo(monkeypatch):
    # every row's contact_law at a budget reads the block's laws, which the
    # first row to ask computes in chunks of _BAND_ROWS rows; they are kept
    # on the block, not in the run memo, and a new block recomputes them
    runs = []
    count_dp = quenched._count_dp

    def counted(pre, *args):
        runs.append(pre.shape[0])
        return count_dp(pre, *args)
    monkeypatch.setattr(quenched, "_count_dp", counted)
    charges = np.random.default_rng(62).normal(0.0, 1.0, (10, 96))
    with quenched.run_memo():
        block = QuenchedBlock(GEOM, 1.0, charges, 64)
        laws = [s.contact_law(KS_L1_BUDGET) for s in block.systems()]
        assert runs == [4, 4, 2] and not quenched._MEMO.get()
        assert block.contact_laws(KS_L1_BUDGET) is block.contact_laws(
            KS_L1_BUDGET)
        again = QuenchedBlock(GEOM, 1.0, charges, 64).systems()
        for law, sys_ in zip(laws, again):
            assert sys_.contact_law(KS_L1_BUDGET).log_pmf.tobytes() \
                == law.log_pmf.tobytes()
    assert runs == [4, 4, 2] * 2


@pytest.mark.parametrize("h", [1.0, 2.0, 3.0])
def test_band_storage_keeps_the_rows_a_later_band_reads(h):
    # sites 65..300 carry -800, so the band start of a later block falls
    # below that of an earlier one, after band storage has made room for
    # new rows: the rows it kept must reach back to the least start of the
    # blocks still to run (keeping only the current band's fails here)
    n = 300
    omega = np.zeros(n)
    omega[64:] = -800.0
    sys_ = QuenchedSystem(build_law(1.0, None, n), h, omega, n)
    exact = sys_.contact_law().pmf()
    for budget in (KS_L1_BUDGET, 1e-3):
        cl = sys_.contact_law(budget)
        assert 0.0 < cl.l1_bound <= budget
        assert np.abs(cl.pmf() - exact).sum() <= cl.l1_bound + 1e-11


def test_a_budgeted_law_holds_only_its_band():
    # band storage: one law at KS_L1_BUDGET at C2's (h, n) = (3, 1024)
    # holds the rows and columns its later steps read, not the (n+1)^2
    # table of the count DP (8.4 MB): measured 0.34 MB under tracemalloc
    n = 1024
    omega = np.random.default_rng(63).normal(0.0, 1.0, n)
    sys_ = QuenchedSystem(build_law(1.0, None, n), 3.0, omega, n)
    sys_.prefix_logZ
    tracemalloc.start()
    try:
        cl = sys_.contact_law(KS_L1_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert 0.0 < cl.l1_bound <= KS_L1_BUDGET
    assert cl.pmf().sum() == pytest.approx(1.0, abs=1e-12)


def test_contact_law_summaries():
    for law, h, omega, n, sys_ in _systems(31, 10, n_lo=2):
        cl = sys_.contact_law()
        pmf = cl.pmf()
        l = np.arange(pmf.size)
        mean = float(l @ pmf)
        # two-sided tails on a u grid against direct mass counts
        sd = math.sqrt(max(float((l - mean) ** 2 @ pmf), 1e-12))
        us = (0.0, 0.8 * sd, 2.0 * sd)
        direct = [float(pmf[np.abs(l - mean) > u].sum()) for u in us]
        assert cl.tail_two_sided(us) == pytest.approx(direct, abs=1e-12)


# -- derivatives in h ---------------------------------------------------------

def test_cumulants_match_contact_law_moments():
    for law, h, omega, n, sys_ in _systems(40, 20, n_lo=2, n_hi=12):
        kap = sys_.cumulants(4).kappa
        cl = sys_.contact_law()
        pmf = cl.pmf()
        l = np.arange(pmf.size, dtype=float)
        m1 = float(l @ pmf)
        c2 = float((l - m1) ** 2 @ pmf)
        c3 = float((l - m1) ** 3 @ pmf)
        c4 = float((l - m1) ** 4 @ pmf) - 3.0 * c2 ** 2
        assert kap[1] == pytest.approx(m1, rel=1e-10, abs=1e-10)
        assert kap[2] == pytest.approx(c2, rel=1e-10, abs=1e-10)
        assert kap[3] == pytest.approx(c3, rel=1e-8, abs=1e-9)
        assert kap[4] == pytest.approx(c4, rel=1e-8, abs=1e-8)


def test_cumulants_match_finite_differences():
    step = 1e-3
    for law, h, omega, n, sys_ in _systems(41, 10, n_lo=2, n_hi=12):
        kap = sys_.cumulants(3).kappa
        z = [QuenchedSystem(law, h + k * step, omega, n).log_z
             for k in (-2, -1, 0, 1, 2)]
        d1 = (z[3] - z[1]) / (2 * step)
        d2 = (z[3] - 2 * z[2] + z[1]) / step ** 2
        d3 = (z[4] - 2 * z[3] + 2 * z[1] - z[0]) / (2 * step ** 3)
        assert kap[1] == pytest.approx(d1, rel=1e-4, abs=1e-6)
        assert kap[2] == pytest.approx(d2, rel=1e-4, abs=1e-4)
        assert kap[3] == pytest.approx(d3, rel=1e-3, abs=1e-3)


def test_cumulant_order_guard():
    sys_ = QuenchedSystem(GEOM, 0.5, np.zeros(8), 8)
    with pytest.raises(ValueError, match="^r_max = "):
        sys_.cumulants(DEFAULT_JET_ORDER + 1)
    kap = sys_.cumulants(DEFAULT_JET_ORDER).kappa
    assert kap.size == DEFAULT_JET_ORDER + 1 and np.all(np.isfinite(kap))


# -- the cumulant cells of pinlab compute in a run memo ----------------------

def _counted_passes(monkeypatch):
    """The shapes of the weights of every _forward call at an order R >= 1
    (a moment pass) from now on."""
    shapes = []
    forward = quenched._forward

    def counted(log_p, b, order=0, *args, **kwargs):
        if order:
            shapes.append(b.shape)
        return forward(log_p, b, order, *args, **kwargs)
    monkeypatch.setattr(quenched, "_forward", counted)
    return shapes


@pytest.mark.parametrize("kind", ["power", "geometric"])
def test_seeded_cells_read_the_bytes_of_fresh_passes(kind, monkeypatch):
    # inside a run memo, every cell of the grid, largest n first as pinlab
    # compute asks them, gives the bytes of its own one-row pass.  The
    # power law is untilted at every n, so one pass with a row per h
    # serves all; the geometric law is tilted at 900, so the pass serves
    # the top only and the smaller n run their own passes
    if kind == "power":
        law, ns = build_law(1.0, None, 512), (64, 200, 512)
    else:
        law, ns = geometric_test_law(900), (300, 850, 900)
    hs = (0.5, 1.5, 3.0)
    omega = np.random.default_rng(3).normal(0.0, 1.0, max(ns))
    fresh = {(h, n): QuenchedSystem(law, h, omega[:n], n).cumulants(4)
             .kappa.tobytes() for h in hs for n in ns}
    passes = _counted_passes(monkeypatch)
    with quenched.run_memo():
        quenched._seed_cumulants(law, omega, hs, ns, 4)
        for h in hs:
            for n in sorted(ns, reverse=True):
                kappa = QuenchedSystem(law, h, omega[:n], n).cumulants(4).kappa
                assert kappa.tobytes() == fresh[h, n], (h, n)
    assert passes[0] == (len(hs), max(ns))
    smaller = 0 if kind == "power" else len(hs) * (len(ns) - 1)
    assert passes[1:] == [(1, n) for h in hs for n in ns[-2::-1]][:smaller]


def test_moment_pass_keeps_only_live_columns(monkeypatch):
    # pinlab compute's pass (one row and centre per h in {1.5, 2.5, 3.5},
    # order 4, n = 8192) stores the moment state from lo on, lo the first
    # column nonzero in some row, which the flush at theta moves: its
    # tracemalloc peak is below 0.8 MB (0.74 MB; 1.72 MB with every column
    # kept and flushed at _FLUSH), and it keeps the bits of a pass whose
    # buffer never has to move
    n = 8192
    law = build_law(1.0, None, n)
    hs = np.array([1.5, 2.5, 3.5])
    b = hs[:, None] + np.random.default_rng(7).normal(0.0, 1.0, n)
    centres = [law.contact_density(h) for h in hs]
    tracemalloc.start()
    try:
        sc, coef = _forward(law.log_p, b, 4, centres, [2048, 4096, n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8e6, peak
    monkeypatch.setattr(quenched, "_COLUMNS", n + 1)
    whole = _forward(law.log_p, b, 4, centres, [2048, 4096, n])
    assert whole[0].tobytes() == sc.tobytes()
    assert whole[1].tobytes() == coef.tobytes()


def test_cells_the_seeded_pass_does_not_hold_run_their_own(monkeypatch):
    # inside a run memo, a cell the seeded pass does not hold runs its own
    # pass, with the bytes of a call outside the memo: other charges,
    # another order, an h or an n off the grid.  A cell that ran its own
    # pass is kept too, so asking it again runs nothing
    law = build_law(1.0, None, 256)
    rng = np.random.default_rng(5)
    omega, other = rng.normal(0.0, 1.0, (2, 128))
    calls = [(2.0, other, 64, 4), (2.0, omega, 64, 2), (1.5, omega, 128, 4),
             (2.0, omega, 100, 4), (2.0, omega, 64, 4), (1.0, omega, 128, 4),
             (2.0, other, 64, 4)]
    fresh = [QuenchedSystem(law, h, om[:n], n).cumulants(r).kappa.tobytes()
             for h, om, n, r in calls]
    passes = _counted_passes(monkeypatch)
    with quenched.run_memo():
        quenched._seed_cumulants(law, omega, (1.0, 2.0), (64, 128), 4)
        for (h, om, n, r), want in zip(calls, fresh):
            kappa = QuenchedSystem(law, h, om[:n], n).cumulants(r).kappa
            assert kappa.tobytes() == want, (h, n, r)
    # the seeded pass, then the four cells it does not hold
    assert passes == [(2, 128), (1, 64), (1, 64), (1, 128), (1, 100)]
    # outside a memo nothing is kept, so seeding runs no pass
    passes.clear()
    quenched._seed_cumulants(law, omega, (1.0, 2.0), (64, 128), 4)
    assert passes == []


def test_run_memo_closes_after_a_refused_law():
    law = law_from_table([0.5, 1e-300, 0.25])
    with pytest.raises(ValueError, match="log p spans"):
        with quenched.run_memo():
            quenched._seed_cumulants(law, np.zeros(3), (1.0,), (3,), 4)
    assert quenched._MEMO.get() is None


# -- maximal excursion --------------------------------------------------------

def test_max_excursion_cdf_matches_oracle():
    for law, h, omega, n, sys_ in chain(_systems(50, 25, n_lo=2, n_hi=10),
                                        _systems(150, 25, n_lo=2, n_hi=16,
                                                 extreme=True)):
        want = enumerate_excursion_cdf(law, h, omega, n)
        got = [sys_.max_excursion_cdf(m) for m in range(1, n + 1)]
        np.testing.assert_allclose(got, want[1:], atol=1e-10)


def test_max_excursion_trivial_cases():
    sys_ = QuenchedSystem(GEOM, 0.0, np.zeros(2), 2)
    assert sys_.max_excursion_cdf(1) == pytest.approx(0.5, abs=1e-14)
    assert sys_.max_excursion_cdf(2) == 1.0
    assert sys_.max_excursion_cdf(7) == 1.0
    with pytest.raises(ValueError):
        sys_.max_excursion_cdf(0)


def test_max_excursion_cdf_rejects_non_integer_m():
    sys_ = QuenchedSystem(GEOM, 0.0, np.zeros(6), 6)
    for bad in (True, np.True_, 2.5, 3.0, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="m = "):
            sys_.max_excursion_cdf(bad)
    for good in (np.int64(3), np.int32(3), np.uint8(3)):
        assert sys_.max_excursion_cdf(good) == sys_.max_excursion_cdf(3)


def test_max_excursion_cdf_is_independent_of_query_order():
    # the cached cap table grows by one pass per larger m asked; every
    # entry must come out with the same bytes whatever the order of asks
    rng = np.random.default_rng(7)
    wide = build_law(1.0, None, 300)
    # at small h the wide caps stay below 1, so no clamp hides a last bit
    wide_systems = [(wide, h, rng.normal(0.0, 1.0, 300), 300, None)
                    for h in (0.5, -1.0)]
    for law, h, omega, n, _ in chain(_systems(51, 20, n_lo=2, n_hi=16),
                                     _systems(151, 40, n_lo=2, n_hi=16,
                                              extreme=True),
                                     wide_systems):
        ms = np.arange(1, min(n, 40) + 1)
        orders = (ms, ms[::-1], rng.permutation(ms))
        got = []
        for order in orders:
            sys_ = QuenchedSystem(law, h, omega, n)
            vals = {int(m): sys_.max_excursion_cdf(int(m)) for m in order}
            got.append(np.array([vals[m] for m in ms]))
        assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()


def test_max_excursion_cdf_memory_is_one_band_pass():
    # caps near n extend the excursion table at most 64 (row, cap) pairs a
    # pass, so the peak allocation stays O((n+1) * 64) floats, not the
    # (n+1) x m of a single pass; entries across the pass boundaries agree
    # with the 40-digit capped DP within 1e-12 relative (3.4e-13: the
    # roundoff of log Z_n, which every entry shares)
    n, m_top = 512, 400
    law = build_law(1.0, None, n)
    w = 0.2 + np.random.default_rng(8).normal(0.0, 1.0, n)
    sys_ = QuenchedSystem(law, 0.0, w, n)
    tracemalloc.start()
    try:
        sys_.max_excursion_cdf(m_top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n + 1) * 64 * 8
    table = sys_._block.excursion_cdf(m_top)
    assert table.shape == (1, m_top)
    with mp.workdps(40):
        z_n = mp_prefix(law.log_p, sys_.site_weight[1:])[n]
        for m in (1, 63, 64, 65, 128, 129, 257, 399, 400):
            want = mp_prefix(law.log_p, sys_.site_weight[1:], m)[n] / z_n
            assert sys_.max_excursion_cdf(m) == min(1.0, table[0, m - 1])
            assert abs(table[0, m - 1] - want) <= 1e-12 * want


def test_max_excursion_cdf_under_extreme_charges():
    # charges up to |omega| = 800: the weights g_k(j) of the capped
    # recursion span hundreds of nats, and every value stays a probability
    # in [0, 1] within 1e-12 of the 40-digit capped DP, plus the stated
    # bound of log Z_n (1e-14 |log Z_n|), whose roundoff every value
    # shares: log Z_n reaches 6.7e4 here, and an error of 2.9e-11 in it
    # (two ulps) moves P[M_n <= m] = 1 by 3.0e-11, the worst case
    law = build_law(1.0, None, 512)
    rng = np.random.default_rng(42)
    for trial in range(6):
        n = int(rng.integers(100, 400))
        h = float(rng.uniform(-40.0, 60.0))
        sys_ = QuenchedSystem(law, h, rng.uniform(-800.0, 800.0, n), n)
        b = sys_.site_weight[1:]
        top = int(rng.integers(8, 40))
        got = [sys_.max_excursion_cdf(m) for m in range(top, 0, -1)][::-1]
        assert all(0.0 <= v <= 1.0 for v in got)
        with mp.workdps(40):
            z_n = mp_prefix(law.log_p, b)[n]
            bound = 1e-12 + 1e-14 * abs(float(mp.log(z_n)))
            for m in (1, 2, top // 2, top):
                want = mp_prefix(law.log_p, b, m)[n] / z_n
                assert abs(got[m - 1] - want) <= bound


# -- two-replica avoidance ----------------------------------------------------

def test_avoidance_matches_pair_enumeration():
    for law, h, omega, n, sys_ in _systems(60, 25, n_lo=2, n_hi=12):
        j_top = min(n, 8)
        lin = two_replica_avoidance(sys_, j_top)
        log = np.exp(sys_.two_replica_avoidance_log(j_top))
        assert math.isnan(lin[0]) and math.isnan(log[0])
        for j in range(1, j_top + 1):
            want = enumerate_avoidance(law, h, omega, j)
            assert lin[j] == pytest.approx(want, abs=1e-11)
            assert log[j] == pytest.approx(want, abs=1e-11)
        assert np.all(lin[1:] >= -1e-15) and np.all(lin[1:] <= 1.0 + 1e-12)


def test_avoidance_routes_agree_far_below_linear_floor():
    # deep windows: the subtractive route loses eps-level mass, the pair
    # route keeps full relative precision; both exist down to ~1e-12
    sys_ = QuenchedSystem(geometric_test_law(128), 2.5, np.zeros(64), 64)
    lin = two_replica_avoidance(sys_, 24)
    log = sys_.two_replica_avoidance_log(24)
    for j in range(1, 25):
        if lin[j] > 1e-10:
            assert lin[j] == pytest.approx(math.exp(log[j]), rel=1e-6)
    assert log[24] < math.log(1e-8)  # genuinely deep decay reached


def test_shifted_avoidance_windows():
    rng = np.random.default_rng(61)
    law, h, omega, n = random_instance(rng, n_lo=10, n_hi=12)
    sys_ = QuenchedSystem(law, h, omega, n)
    for start in (1, 3):
        j_top = min(n - start, 6)
        prof = two_replica_profiles(sys_, j_top, np.array([start]))[0]
        log = sys_.two_replica_avoidance_log(j_top, start=start)
        for j in range(1, j_top + 1):
            want = enumerate_avoidance(law, h, omega[start:], j)
            assert prof[j] == pytest.approx(want, abs=1e-10)
            assert math.exp(log[j]) == pytest.approx(want, abs=1e-10)


def _assert_log_avoidance_close(got, want):
    # same finite pattern, then |delta log a_j| / max(1, |log a_j|) <= 1e-14
    assert math.isnan(got[0]) and math.isnan(want[0])
    fin = np.isfinite(want[1:])
    assert np.array_equal(np.isfinite(got[1:]), fin)
    assert np.array_equal(got[1:][~fin], want[1:][~fin])
    g, w = got[1:][fin], want[1:][fin]
    assert np.all(np.abs(g - w) <= 1e-14 * np.maximum(1.0, np.abs(w)))


def test_avoidance_matches_log_domain_reference():
    # the scaled linear-domain engine against the log-sum-exp recursion:
    # small windows (1..3 included) at every start, ordinary and extreme
    for law, h, omega, n, sys_ in chain(_systems(62, 30),
                                        _systems(162, 30, extreme=True)):
        for start in range(n):
            for window in {*range(1, min(3, n - start) + 1), n - start}:
                _assert_log_avoidance_close(
                    sys_.two_replica_avoidance_log(window, start),
                    two_replica_avoidance_lse(sys_, window, start))


def test_avoidance_matches_log_domain_reference_extreme_wide():
    # h at the ends of [-40, 60], |omega| up to 800, wide shifted windows:
    # log a_j reaches -1e4, far below the subtractive route's floor
    law = build_law(1.0, None, 512)
    rng = np.random.default_rng(63)
    for h, window, start in ((-40.0, 400, 37), (60.0, 160, 5), (3.0, 96, 0)):
        omega = rng.uniform(-800.0, 800.0, 440)
        sys_ = QuenchedSystem(law, h, omega, 440)
        got = sys_.two_replica_avoidance_log(window, start)
        _assert_log_avoidance_close(
            got, two_replica_avoidance_lse(sys_, window, start))
        assert got[window] < -1e3


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=48),
       st.floats(min_value=-40.0, max_value=60.0),
       st.floats(min_value=0.0, max_value=800.0),
       st.integers(min_value=0, max_value=2 ** 32))
def test_pair_forward_rows_match_single_row_runs(rows, window, h, spread,
                                                 seed):
    # a row's log a_j are bit-identical whatever batch they are computed in
    law = build_law(1.0, None, 64)
    rng = np.random.default_rng(seed)
    bw = h + rng.uniform(-spread, spread, (rows, window + 1))
    zseg = _forward(law.log_p, bw[:, 1:])
    batched = _pair_forward(law.log_p, bw, zseg)
    assert batched.shape == (rows, window + 1)
    assert np.isnan(batched[:, 0]).all()
    assert not np.isnan(batched[:, 1:]).any()
    for r in range(rows):
        alone = _pair_forward(law.log_p, bw[r:r + 1], zseg[r:r + 1])
        assert batched[r].tobytes() == alone[0].tobytes()


def test_avoidance_window_guard():
    sys_ = QuenchedSystem(GEOM, 0.0, np.zeros(4), 4)
    with pytest.raises(ValueError):
        two_replica_avoidance(sys_, 5)
    with pytest.raises(ValueError):
        sys_.two_replica_avoidance_log(3, start=2)
    with pytest.raises(ValueError):
        two_replica_avoidance_lse(sys_, 3, start=2)


# -- blocks of rows -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=24),
       st.floats(min_value=-40.0, max_value=60.0),
       st.floats(min_value=0.0, max_value=800.0),
       st.integers(min_value=0, max_value=2 ** 32))
def test_block_rows_match_standalone_systems(rows, n, h, spread, seed):
    # every row view of a block reads the bytes of a standalone system of
    # its charges: the prefix, the suffix, log a_j at random (window,
    # start) and P[M_n <= m] at random caps m, whichever row asks first
    # and in whatever order the starts and caps come; the standalone
    # profile is the pair DP on the window's weights against row `start`
    # of the system's own segment table (``_segment_tables``)
    law = build_law(1.0, None, 64)
    rng = np.random.default_rng(seed)
    charges = rng.uniform(-spread, spread, (rows, n))
    asks = []
    for window in rng.integers(1, n + 1, 4):
        asks.append((int(window), int(rng.integers(0, n - window + 1))))
    caps = [int(m) for m in rng.integers(1, n + 1, 5)]
    want = []
    for r in range(rows):
        alone = QuenchedSystem(law, h, charges[r], n)
        b = alone.site_weight
        pair = {}
        for window, start in asks:
            zseg = _segment_tables(law.log_p, b[None, 1:], window)[0, start]
            pair[window, start] = _pair_forward(
                law.log_p, b[None, start:start + window + 1], zseg[None])[0]
        cdf = {m: alone.max_excursion_cdf(m) for m in caps}
        want.append((alone.prefix_logZ, alone.suffix_logZ(), pair, cdf))
    for row_order in (rng.permutation(rows), np.arange(rows)[::-1]):
        views = list(QuenchedBlock(law, h, charges, n).systems())
        assert [v.n for v in views] == [n] * rows
        for r in row_order:
            prefix, suffix, pair, cdf = want[r]
            for i in rng.permutation(len(asks)):
                window, start = asks[i]
                got = views[r].two_replica_avoidance_log(window, start)
                assert got.tobytes() == pair[window, start].tobytes()
            for i in rng.permutation(len(caps)):
                got = views[r].max_excursion_cdf(caps[i])
                assert (np.float64(got).tobytes()
                        == np.float64(cdf[caps[i]]).tobytes())
            assert views[r].suffix_logZ().tobytes() == suffix.tobytes()
            assert views[r].prefix_logZ.tobytes() == prefix.tobytes()


def test_block_memory_stays_far_below_a_segment_block():
    # C7's shape: one 64-row block at n = 256 with its suffix and 8 pair
    # profiles of window 64 holds (rows, n+1) tables and one pair DP state
    # of (rows, window, window) floats, 3.4 MB at its peak, far below the
    # (rows, n+1, window+1) of a block of segment tables, 8.6 MB
    rows, n, window = 64, 256, 64
    law = build_law(1.0, None, n)
    charges = np.random.default_rng(9).normal(0.0, 1.0, (rows, n))
    offsets = np.unique(np.linspace(0, n - window, 8).round()).astype(int)
    tracemalloc.start()
    try:
        for sys_ in QuenchedBlock(law, 3.0, charges, n).systems():
            sys_.suffix_logZ()
            for start in offsets:
                sys_.two_replica_avoidance_log(window, int(start))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    segment_block = 8 * rows * (n + 1) * (window + 1)
    assert peak < segment_block / 2


def test_block_rejects_bad_charges():
    law = geometric_test_law(8)
    with pytest.raises(ValueError, match="rows, n"):
        QuenchedBlock(law, 0.0, np.zeros(4), 4)
    with pytest.raises(ValueError, match="length 3 < n = 4"):
        QuenchedBlock(law, 0.0, np.zeros((2, 3)), 4)
    bad = np.zeros((3, 5))
    bad[2, 1] = math.inf
    with pytest.raises(ValueError, match="omega_2 of row 2"):
        QuenchedBlock(law, 0.0, bad, 5)


def test_integer_arguments_are_checked_where_they_enter():
    # bools, floats (even integral ones) and other types are refused with
    # the argument's name, and so are out-of-range integers; numpy
    # integers are accepted
    non_integers = (True, np.True_, 2.0, 2.5, np.float64(3.0), "2", None)
    for bad in non_integers + (-1, 65):
        with pytest.raises(ValueError, match="^n = "):
            QuenchedSystem(GEOM, 0.0, np.zeros(70), bad)
    sys_ = QuenchedSystem(GEOM, 0.5, np.zeros(8), 8)
    calls = {
        "window": ((lambda v: sys_.two_replica_avoidance_log(v, 0)),
                   (0, 9)),
        "start": ((lambda v: sys_.two_replica_avoidance_log(4, v)),
                  (-1, 5)),
        "a": (sys_.contact_probability, (-1, 9)),
        "m": (sys_.max_excursion_cdf, (0, -3)),
        "r_max": (sys_.cumulants, (-1, DEFAULT_JET_ORDER + 1)),
    }
    for name, (call, out_of_range) in calls.items():
        for bad in non_integers + out_of_range:
            with pytest.raises(ValueError, match=f"^{name} = "):
                call(bad)
    for good in (np.int64(3), np.int32(3), np.uint8(3)):
        assert (sys_.two_replica_avoidance_log(good, good).tobytes()
                == sys_.two_replica_avoidance_log(3, 3).tobytes())
        assert sys_.contact_probability(good) == sys_.contact_probability(3)
        assert QuenchedSystem(GEOM, 0.5, np.zeros(8), good).n == 3


# -- invariances --------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.integers(min_value=0, max_value=2 ** 32))
def test_shift_covariance(delta, seed):
    rng = np.random.default_rng(seed)
    law, h, omega, n = random_instance(rng, n_lo=2, n_hi=8)
    base = QuenchedSystem(law, h, omega, n)
    shifted = QuenchedSystem(law, h + delta, omega - delta, n)
    assert shifted.log_z == pytest.approx(base.log_z, abs=1e-10)
    np.testing.assert_allclose(shifted.contact_law().pmf(),
                               base.contact_law().pmf(), atol=1e-10)
    j = min(n, 5)
    np.testing.assert_allclose(two_replica_avoidance(shifted, j)[1:],
                               two_replica_avoidance(base, j)[1:], atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_monotone_in_h_and_omega(seed):
    rng = np.random.default_rng(seed)
    law, h, omega, n = random_instance(rng, n_lo=1, n_hi=8)
    base = QuenchedSystem(law, h, omega, n).log_z
    assert QuenchedSystem(law, h + 0.3, omega, n).log_z >= base - 1e-12
    bumped = omega.copy()
    bumped[int(rng.integers(0, n))] += 0.4
    assert QuenchedSystem(law, h, bumped, n).log_z >= base - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_thermal_variance_nonnegative(seed):
    rng = np.random.default_rng(seed)
    law, h, omega, n = random_instance(rng, n_lo=1, n_hi=10)
    sys_ = QuenchedSystem(law, h, omega, n)
    assert sys_.cumulants(2).kappa[2] >= -1e-10


# -- standardization helper ---------------------------------------------------

def test_ks_to_standard_normal_units():
    # binomial-like contact law of a long pure chain is near gaussian
    sys_ = QuenchedSystem(geometric_test_law(512), math.log(3.0),
                          np.zeros(512), 512)
    cl = sys_.contact_law()
    ks, mean, var = ks_to_standard_normal(cl)
    assert 0.0 < ks < 0.05
    pmf = cl.pmf()
    l = np.arange(pmf.size)
    assert mean == pytest.approx(float(l @ pmf))
    assert var == pytest.approx(float((l - mean) ** 2 @ pmf))
    # degenerate law: KS distance saturates
    point = QuenchedSystem(GEOM, 0.0, np.zeros(1), 1).contact_law()
    assert ks_to_standard_normal(point)[0] == 1.0
