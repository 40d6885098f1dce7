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
from pinlab.numerics import DEFAULT_JET_ORDER
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
    KS_L1_BUDGET,
    QuenchedBlock,
    QuenchedSystem,
    _forward,
    _moments,
    _pair_forward,
    ks_to_standard_normal,
)
from support import mp_log_prefix, random_instance

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
        seg = sys_.segment_partitions(window=n)
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

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=48),
       st.one_of(st.none(), st.lists(st.integers(min_value=1, max_value=48),
                                     min_size=6, max_size=6)),
       st.sampled_from(["C", "F", "window"]),
       st.integers(min_value=0, max_value=2 ** 32),
       st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
       st.booleans())
def test_forward_rows_match_single_row_runs(rows, n, bands, layout, seed,
                                            order, long):
    # a row's table is bit-identical whatever batch it is computed in, and
    # with bands (one per row) whatever the other rows' bands are; with an
    # order R the engine is _moments (log Z and the centred moment rows,
    # at a random centre, shared or one per row: rows with distinct
    # centres get a weight table each), and the columns it keeps with
    # `at` are those of the full table.  A long chain (n and bands past
    # 600) puts the geometric law past its certificate: bands above 606,
    # and every moment row, run the tilted law, beside the untilted rows
    # of the same call
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 1.0, rows)
    if rng.random() < 0.5:
        centres[:] = centres[0]
    law = GEOM
    if long:
        law = geometric_test_law(700)
        n += 600
        bands = None if bands is None else [600 + band for band in bands]
    if order is not None:
        bands = None
        n = max(n, 1)
    if bands is not None:
        bands = np.array(bands[:rows])
    if layout == "window":
        # overlapping rows as in the segment table, -inf past the end
        flat = rng.normal(0.0, 3.0, rows + n - 1)
        if bands is None:
            flat[n:] = -math.inf
        b = np.lib.stride_tricks.sliding_window_view(flat, n)
    else:
        b = np.asarray(rng.normal(0.0, 3.0, (rows, n)), order=layout)

    def run(weights, band, centre):
        if order is None:
            return (_forward(law.log_p, weights, band),)
        return _moments(law.log_p, weights, order, centre)

    batched = run(b, bands, centres)
    assert batched[0].shape == (rows, n + 1)
    for table in batched:
        assert not np.isnan(table).any()
    for r in range(rows):
        alone = run(np.ascontiguousarray(b[r:r + 1]),
                    None if bands is None else bands[r:r + 1],
                    float(centres[r]))
        for table, single in zip(batched, alone):
            assert table[r].tobytes() == single[0].tobytes()
    if order is not None:
        at = sorted(rng.choice(n + 1, int(rng.integers(1, n + 2)),
                               replace=False).tolist(), reverse=True)
        for table, kept in zip(batched, _moments(law.log_p, b, order,
                                                 centres, at)):
            assert kept.tobytes() == np.ascontiguousarray(table[:, at]).tobytes()


def test_banded_rows_match_mpmath():
    # some bands of a batch, one row each, against the 40-digit banded
    # DP: within 1e-14 relative to max(1, |log Z|)
    law = build_law(1.0, None, 512)
    rng = np.random.default_rng(41)
    worst = 0.0
    for trial in range(8):
        n = int(rng.integers(1, 400))
        w = float(rng.uniform(-2.0, 4.0)) + rng.normal(0.0, 1.0, n)
        top = int(rng.integers(1, 40))
        bands = np.arange(1, top + 1)
        batched = _forward(law.log_p, np.broadcast_to(w, (top, n)), bands)
        for band in {1, min(2, top), top // 2 + 1, top}:
            want = mp_log_prefix(law.log_p, w, band)
            d = np.abs(batched[band - 1] - want) / np.maximum(1.0, np.abs(want))
            worst = max(worst, float(d.max()))
    assert worst <= 1e-14


def test_banded_rows_keep_their_entries_under_extreme_charges():
    # charges up to |omega| = 800: a truncated row's window falls hundreds
    # of nats below the entry that set its scale, and must be rebuilt, not
    # flushed.  Every entry stays finite, as in the 40-digit DP, within
    # 1e-14 of the row's largest |log Z| (an entry can be a small sum of
    # +-800 charges, so its own relative error is not bounded)
    law = build_law(1.0, None, 512)
    rng = np.random.default_rng(42)
    for trial in range(6):
        n = int(rng.integers(100, 400))
        w = float(rng.uniform(-40.0, 60.0)) + rng.uniform(-800.0, 800.0, n)
        top = int(rng.integers(8, 40))
        bands = np.arange(1, top + 1)
        batched = _forward(law.log_p, np.broadcast_to(w, (top, n)), bands)
        for band in (1, 2, top // 2, top):
            want = mp_log_prefix(law.log_p, w, band)
            got = batched[band - 1]
            assert np.isfinite(want).all() and np.isfinite(got).all()
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= 1e-14 * scale


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
    # step 1 is log p(1) + b[:, 0] bit for bit, without bands and with one
    # per row; so the pair DP's log a_1 = 2 (log p(1) + b_1) - 2 log Z_1
    # is exactly 0
    rng = np.random.default_rng(44)
    power = build_law(1.0, None, 64).log_p
    b = rng.normal(0.0, 3.0, (6, 40))
    for log_p, band in ((GEOM.log_p, None), (power, None),
                        (power, np.array([1, 2, 5, 9, 40, 64]))):
        got = _forward(log_p, b, band)[:, 1]
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
       st.integers(min_value=200, max_value=700),
       st.sampled_from(["geometric", "power", "bumpy"]),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2 ** 32))
# in row 4, log Z reaches 896 at k = 107, then falls to 0.12 at k = 290,
# where it is 8e-13 off the jets: a bound relative to that entry alone
# fails at the roundoff the entry carries from the larger ones before it
@example(5, 563, "geometric", 1, 0.0, 563)
def test_moment_rows_under_extreme_charges(rows, n, law_kind, order, centre,
                                           seed):
    # long chains with extreme charges: the moment rows stay finite (a
    # RuntimeWarning fails the test), keep the -inf entries of _forward,
    # and, on finite weights, sit within roundoff of the full-window jets:
    # log Z_k within 1e-13 of max(1, max_{j <= k} |log Z_j|) (a late
    # entry carries the roundoff of the largest one before it), and each
    # coefficient m of column k within 1e-13 (2k)^m / m!, the scale of
    # E[(L_k - c k)^m] / m!.  The flush bound of _moments, 2^-60 2^m / m!
    # per step, is far below that.  The geometric law past its
    # certificate (n of about 500 at order 1) runs the tilted law; the
    # bumpy law, far from log-linear, is refused
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
            _moments(log_p, b, order, centre)
        return
    sc, coef = _moments(log_p, b, order, centre)
    assert np.isfinite(coef).all()
    z = _forward(log_p, b)
    assert np.array_equal(np.isfinite(sc), np.isfinite(z))
    finite = np.where(np.isinf(b), -40.0, b)  # the jets take finite weights
    sc, coef = _moments(log_p, finite, order, centre)
    want_sc, want_coef = _full_window_jet_forward(log_p, finite, order)
    scale = np.maximum(1.0, np.maximum.accumulate(np.abs(want_sc), axis=1))
    assert (np.abs(sc - want_sc) / scale).max() <= 1e-13
    m = np.arange(order + 1)
    inv_fact = 1.0 / np.array([math.factorial(i) for i in m], dtype=float)
    scale = (2.0 * np.maximum(np.arange(n + 1), 1))[:, None] ** m * inv_fact
    assert np.all(np.abs(coef - _centred_jets(want_coef, centre))
                  <= 1e-13 * scale)


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
    # on a long localized chain a rescale is rare (Z grows ~2 nats a step)
    n, rows = 512, 3
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
    assert terms["log"] == [rows] * n
    setup, steps = terms["exp"][0], terms["exp"][1:]
    assert setup == n + _LANE
    assert steps.count(rows) == n and sum(steps) <= rows * n + rows * n // 64
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
            assert 0.0 <= cl.l1_bound <= budget
            np.testing.assert_allclose(cl.pmf(), want,
                                       atol=1e-11 + cl.l1_bound)
            assert np.abs(cl.pmf() - want).sum() <= cl.l1_bound + 1e-11
            assert cl.pmf().sum() == pytest.approx(1.0,
                                                   abs=1e-10 + cl.l1_bound)


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
    # certificate is finite.  The two loops sum in different orders, and at
    # these charges the count DP's roundoff is far above the certificate:
    # the exact law's mass is 1 to within 4e-11 and 3e-10, and the two
    # laws are 1.0e-11 and 1.9e-11 apart in L1, hence the 1e-10
    n = 400
    omega = np.random.default_rng(47).uniform(-800.0, 800.0, n)
    sys_ = QuenchedSystem(build_law(1.0, None, n), h, omega, n)
    exact, cl = sys_.contact_law(), sys_.contact_law(KS_L1_BUDGET)
    assert exact.l1_bound == 0.0
    assert math.isfinite(cl.l1_bound) and cl.l1_bound <= KS_L1_BUDGET
    assert np.abs(cl.pmf() - exact.pmf()).sum() <= cl.l1_bound + 1e-10


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


# -- the cumulant grid of pinlab compute -------------------------------------

def _counted_passes(monkeypatch):
    """The shapes of the weights of every _moments call from now on."""
    shapes = []
    moments = quenched._moments

    def counted(log_p, b, *args, **kwargs):
        shapes.append(b.shape)
        return moments(log_p, b, *args, **kwargs)
    monkeypatch.setattr(quenched, "_moments", counted)
    return shapes


@pytest.mark.parametrize("kind", ["power", "geometric"])
def test_cumulant_grid_serves_the_bytes_of_fresh_calls(kind, monkeypatch):
    # every cell of the grid, largest n first as pinlab compute asks them,
    # gives the bytes of its own pass.  The power law is untilted at every
    # n, so one pass with a row per h serves all; the geometric law is
    # tilted at 700, so its smaller n run their own passes
    if kind == "power":
        law, ns = build_law(1.0, None, 512), (64, 200, 512)
    else:
        law, ns = geometric_test_law(700), (300, 650, 700)
    hs = (0.5, 1.5, 3.0)
    omega = np.random.default_rng(3).normal(0.0, 1.0, max(ns))
    fresh = {(h, n): QuenchedSystem(law, h, omega[:n], n).cumulants(4)
             .kappa.tobytes() for h in hs for n in ns}
    passes = _counted_passes(monkeypatch)
    with quenched.cumulant_grid(hs, ns):
        for h in hs:
            for n in sorted(ns, reverse=True):
                kappa = QuenchedSystem(law, h, omega[:n], n).cumulants(4).kappa
                assert kappa.tobytes() == fresh[h, n], (h, n)
    assert passes[0] == (len(hs), max(ns))
    smaller = 0 if kind == "power" else len(hs) * (len(ns) - 1)
    assert passes[1:] == [(1, n) for h in hs for n in ns[-2::-1]][:smaller]


def test_cumulant_grid_falls_back_to_fresh_passes(monkeypatch):
    # a call the pass cannot serve runs its own pass, with the bytes of a
    # call outside the scope: a smaller n asked before the pass has run,
    # other charges, another order, an h or an n off the grid
    law = build_law(1.0, None, 256)
    rng = np.random.default_rng(5)
    omega, other = rng.normal(0.0, 1.0, (2, 128))
    calls = [(1.0, omega, 64, 4), (1.0, omega, 128, 4), (2.0, other, 64, 4),
             (2.0, omega, 64, 2), (1.5, omega, 128, 4), (2.0, omega, 100, 4),
             (2.0, omega, 64, 4)]
    fresh = [QuenchedSystem(law, h, om[:n], n).cumulants(r).kappa.tobytes()
             for h, om, n, r in calls]
    passes = _counted_passes(monkeypatch)
    with quenched.cumulant_grid((1.0, 2.0), (64, 128)):
        for (h, om, n, r), want in zip(calls, fresh):
            kappa = QuenchedSystem(law, h, om[:n], n).cumulants(r).kappa
            assert kappa.tobytes() == want, (h, n, r)
    # the last call is the only one the pass (the second call) serves
    assert passes == [(1, 64), (2, 128), (1, 64), (1, 64), (1, 128), (1, 100)]
    assert quenched._GRID.get() is None


def test_cumulant_grid_scope_closes_when_a_cell_raises():
    law = law_from_table([0.5, 1e-300, 0.25])
    with pytest.raises(ValueError, match="log p spans"):
        with quenched.cumulant_grid((1.0,), (3,)):
            QuenchedSystem(law, 1.0, None, 3).cumulants(4)
    assert quenched._GRID.get() is None


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
    # the cached band vector grows by one pass per larger m asked; every
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
    # caps near n extend the excursion table at most 64 bands at a time:
    # every entry has the bytes of its one-row run with the cap as its
    # band, and the peak allocation stays O((n+1) * 64) floats, not the
    # (n+1) x m of a single pass
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
    table = sys_._block.excursion_logZ(m_top)
    assert table.shape == (1, m_top)
    for m in (1, 63, 64, 65, 128, 129, 257, 399, 400):
        one = _forward(law.log_p, sys_.site_weight[None, 1:], [m])[0, n]
        want = min(1.0, math.exp(one - sys_.log_z))
        assert sys_.max_excursion_cdf(m) == want
        assert table[0, m - 1].tobytes() == one.tobytes()


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
    # of the system's own segment table
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
            zseg = alone.segment_partitions(window)[start, :window + 1]
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
    for bad in non_integers + (-1, 9):
        with pytest.raises(ValueError, match="^window = "):
            sys_.segment_partitions(bad)
    for good in (np.int64(3), np.int32(3), np.uint8(3)):
        assert (sys_.two_replica_avoidance_log(good, good).tobytes()
                == sys_.two_replica_avoidance_log(3, 3).tobytes())
        assert sys_.contact_probability(good) == sys_.contact_probability(3)
        assert (sys_.segment_partitions(good).tobytes()
                == sys_.segment_partitions(3).tobytes())
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
