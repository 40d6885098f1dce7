"""The two BLAS assumptions of the linear step, checked on random data at
the shapes of its passes.

``quenched._forward`` promises that a row's bits depend on its own
inputs and route only.  Two properties of numpy's BLAS carry that
promise, and an upgrade of numpy or OpenBLAS could break either one;
these tests then fail with a message that names the assumption, before
any end-to-end output drifts:

* the lanes: a stacked per-row product (rows, R+1, L) @ (L, R+1) over a
  window that ends at column k and spans a multiple of ``_LANE`` columns
  gives the same bits whatever the window's leading zeros (the per-row
  route, a sequence of centres);
* the row tile: a 2-D product (rows, (R+1) L) @ ((R+1) L, R+1) whose row
  count is a multiple of ``_TILE`` and whose multiply-adds are at most
  ``_SMALL_GEMM`` gives each row the same bits whatever the other rows
  hold, where it sits, how many rows there are, and how many leading
  zeros its window has (the fused route: every log Z table at R = 0,
  where the product is (rows, L) @ (L, 2) against q and a zero column,
  and every moment pass with one float centre).

``quenched._count_dp`` rests on a third: a stacked ``np.matmul`` runs one
BLAS call per matrix, so each matrix of the stack gets the bits of its
product run alone (the count DP's chunks of rows).
"""

import numpy as np
import pytest

from pinlab.quenched import _ADVANCE, _LANE, _SMALL_GEMM, _TILE

LANES = f"BLAS assumption broken: _LANE = {_LANE} accumulator lanes"
TILE = (f"BLAS assumption broken: a {_TILE}-row dgemm tile within "
        f"{_SMALL_GEMM} multiply-adds")
STACK = ("BLAS assumption broken: a stacked matmul gives each matrix the "
         "bits of its product alone")

# window lengths of the passes, multiples of _LANE (scan's reach 544 =
# 512 + _LANE, and the log Z tables of C6 at n = 4096), and the extra
# leading columns of a window that starts at another row's lo
LENGTHS = tuple(_LANE * m for m in (1, 3, 7, 17, 128))
LEADS = tuple(_LANE * m for m in (1, 3, 8))


def _scaled(rng, shape):
    """Positive entries spread over many binades, as the state's are."""
    return rng.random(shape) * np.exp(rng.normal(0.0, 20.0, shape[:-1] + (1,)))


@pytest.mark.parametrize("width", [2, 3, 5, 9])
@pytest.mark.parametrize("length", LENGTHS)
def test_per_row_products_ignore_leading_zeros(width, length):
    # the per-row moment step: (R+1, L) @ (L, R+1) per row, read from the
    # (rows, L, R+1) state through a transposed view
    rng = np.random.default_rng(100 * width + length)
    state = _scaled(rng, (3, length + max(LEADS), width))
    state[:, :max(LEADS)] = 0.0
    w = rng.random((length + max(LEADS), width))
    want = np.matmul(state[:, -length:].transpose(0, 2, 1), w[-length:])
    for lead in LEADS:
        cols = length + lead
        got = np.matmul(state[:, -cols:].transpose(0, 2, 1), w[-cols:])
        assert got.tobytes() == want.tobytes(), (LANES, lead)
        alone = np.matmul(state[1:2, -cols:].transpose(0, 2, 1), w[-cols:])
        assert alone[0].tobytes() == want[1].tobytes(), (LANES, "one row")


def _fused(state, table):
    """The fused step: one 2-D product over the rows of a state window."""
    rows, cols, width = state.shape
    return state.reshape(rows, cols * width) @ table.reshape(cols * width, -1)


def _table(rng, length, width):
    """Random step weights of the fused product, (length, R+1, out): out =
    R+1, or at R = 0 two columns, q's and a zero one, as _forward pads it
    so that numpy runs a dgemm (a dgemv splits windows past 2048
    columns at points set by the window's start)."""
    table = np.zeros((length, width, max(width, 2)))
    table[..., :width] = rng.random((length, width, width))
    return table


@pytest.mark.parametrize("width", [1, 2, 3, 5, 9])
def test_fused_rows_keep_their_bits_in_any_tile(width):
    rng = np.random.default_rng(width)
    for length in LENGTHS:
        # the largest multiple of _TILE rows that stays within the bound
        top = min(64, _SMALL_GEMM // (width * max(width, 2)
                                      * (length + max(LEADS))))
        top -= top % _TILE
        if top < _TILE:
            continue
        state = _scaled(rng, (top, length, width))
        table = _table(rng, length, width)
        want = _fused(state, table)
        for rows in range(_TILE, top + 1, _TILE):
            # other rows, another position, another row count
            other = _scaled(rng, (rows, length, width))
            at = int(rng.integers(rows))
            other[at] = state[0]
            got = _fused(other, table)[at]
            assert got.tobytes() == want[0].tobytes(), (TILE, length, rows, at)
        perm = rng.permutation(top)
        assert _fused(state[perm], table).tobytes() == want[perm].tobytes(), \
            (TILE, length, "permuted")
        for lead in LEADS:
            led = np.concatenate((np.zeros((top, lead, width)), state), axis=1)
            front = _table(rng, lead, width)
            got = _fused(led, np.concatenate((front, table)))
            assert got.tobytes() == want.tobytes(), (TILE, length, lead)


@pytest.mark.parametrize("steps", [1, 2, _ADVANCE])
def test_stacked_products_match_each_matrix_alone(steps):
    # the count DP's products, read from the (rows, n+1, n+1) table
    # through windows: the finished rows' share (rows, steps, T) @ (rows,
    # T, C) of a block and a step's (rows, 1, i) @ (rows, i, C), for
    # chunks of up to 8 rows; each matrix must get the bits of the same
    # product on its own one-row table
    rng = np.random.default_rng(steps)
    n = 300
    for inner, cols in ((1, 1), (7, 33), (64, 64), (200, 257)):
        table = _scaled(rng, (8, n + 1, n + 1))
        g = rng.random((8, steps, inner))
        for rows in range(1, 9):
            got = np.matmul(g[:rows], table[:rows, 40:40 + inner, 5:5 + cols])
            for i in range(rows):
                alone = np.matmul(g[i:i + 1],
                                  table[i:i + 1, 40:40 + inner, 5:5 + cols])
                assert got[i].tobytes() == alone[0].tobytes(), \
                    (STACK, steps, inner, cols, rows, i)
