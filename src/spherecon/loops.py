"""Loops of a trial's shape, the part of its state that the iteration's
rotation symmetry leaves: at d = 2 its agents' angles relative to agent 1.
The distances between shapes, the geometry of the turn the quasi-periodic
test reads (`dynamics._turns`) over a window up to its first return, which
the kernel's streamed detector (`dynamics._Watch`) finds, and the Lyapunov
exponents along a loop.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .state import column_sums, tangent_basis
from .tolerances import QP_STEP_FLOOR

# steps per piece of a loop's product: a piece's matrices stay within a few hundred KB
LOOP_PIECE = 64


def shapes(rows: np.ndarray) -> np.ndarray:
    """The shape of (..., n, 2) rows on the circle: the angles of agents
    2 .. n relative to agent 1, each in (-2 pi, 2 pi)."""
    angles = np.arctan2(rows[..., 1], rows[..., 0])
    return angles[..., 1:] - angles[..., :1]


def wrap(angles: np.ndarray) -> np.ndarray:
    """Angles less their nearest multiple of 2 pi, in place."""
    turns = angles / (2.0 * np.pi)
    np.rint(turns, out=turns)
    turns *= 2.0 * np.pi
    angles -= turns
    return angles


def squared_distances(shapes: np.ndarray, origins: np.ndarray, real=1.0) -> np.ndarray:
    """Squared distances of (..., k) shapes from origins, modulo 2 pi per
    angle, each offset times real (0 on a pad agent); the squares are summed
    column by column (`column_sums`), so trailing zero columns change no bit."""
    offsets = wrap(shapes - origins)
    offsets *= real
    offsets *= offsets
    return column_sums(offsets)


def exponents(m: np.ndarray, states: np.ndarray, norms: np.ndarray, ends: np.ndarray,
              trials: np.ndarray) -> np.ndarray:
    """The Lyapunov exponents, largest first, of the trials `trials` of a
    window's (T, C, n, d) states and the (T - 1, C, n) row norms of its steps,
    with their (C', n, n) matrices m, each over its loop from state 0 to
    ends[c], taken a piece at a time so the window is never copied. The reduced
    matrix of the step from state t, blocks m_ij B_i(t + 1)^T B_j(t) /
    ||row i of M X_t|| in the tangent bases B, maps the tangent space at t to
    that at t + 1. Their product over the loop, in pieces of LOOP_PIECE
    steps, each a tree of stacked matmuls (identity past the loop's end),
    maps the tangent space at its start to that at its return, all but the
    same; the exponents are the logs of its eigenvalue moduli over the loop's
    length. Over a closed loop these are exact for a periodic orbit and carry
    no start-up transient: the QR method over a window of 1024 steps read
    the neutral exponents of these orbits up to 0.004 off 0."""
    last, (count, n, _), d = int(ends.max()), m.shape, states.shape[-1]
    size = n * (d - 1)
    spread = m.repeat(d - 1, axis=-1).repeat(d - 1, axis=-2)  # m_ij over block (i, j)
    eye = np.eye(size)
    product = np.broadcast_to(eye, (count, size, size))
    for lo in range(0, last, LOOP_PIECE):
        hi = min(lo + LOOP_PIECE, last)
        bases = tangent_basis(states[lo:hi + 1, trials]).blocks
        # B_i(t + 1)^T / ||row i of M X_t|| as the rows of one matrix, B_j(t) as the columns
        left = (np.swapaxes(bases[1:], -1, -2) / norms[lo:hi, trials, ..., None, None]).reshape(
            hi - lo, count, size, d)
        right = np.moveaxis(bases[:-1], -2, -3).reshape(hi - lo, count, d, size)
        reduced = left[..., 0, None] * right[..., 0, None, :]
        for a in range(1, d):
            reduced += left[..., a, None] * right[..., a, None, :]
        reduced *= spread
        if hi > ends.min():
            reduced[np.arange(lo, hi)[:, None] >= ends] = eye
        while len(reduced) > 1:  # the later matrix of each pair on the left
            if len(reduced) % 2:
                reduced = np.concatenate([reduced, np.broadcast_to(eye, reduced[:1].shape)])
            reduced = reduced[1::2] @ reduced[0::2]
        product = reduced[0] @ product
    return -np.sort(-np.log(np.abs(np.linalg.eigvals(product))), axis=-1) / ends[:, None]


class Loop(NamedTuple):
    """Per trial of a window (`geometry`): the end of its loop (its first
    return, or the window's last state if it has none or its shape did not
    step off its start), the end of its turn, the squared return distance
    there, whether it returned with (b) and (c) of `dynamics._turns`
    holding, and whether the window ends before that is decided, the sweep
    short of 2 pi."""

    ends: np.ndarray
    lag: np.ndarray
    away: np.ndarray
    turned: np.ndarray
    undecided: np.ndarray


def geometry(states: np.ndarray, returns: np.ndarray) -> Loop:
    """The `Loop` of each trial of a window's (T, C, n, 2) states, given
    each trial's first return in the window as the return detector of
    `dynamics._Watch` finds it, T if it has none."""
    angles = shapes(states)
    length, count, k = angles.shape
    shift = np.zeros(angles.shape)  # the shape's steps, then the lifted shape less its start
    moves = wrap(np.subtract(angles[1:], angles[:-1], out=shift[1:]))
    steps = np.sqrt(column_sums(moves * moves))
    returned = (returns < length) & (steps[0] > QP_STEP_FLOOR)  # a turn starts with a step
    ends = np.where(returned, returns, length - 1)
    away = squared_distances(angles[ends, np.arange(count)], angles[0])
    del angles
    np.cumsum(moves, axis=0, out=moves)
    winds = np.rint(shift[ends, np.arange(count)] / (2.0 * np.pi)).any(-1)
    t = np.arange(length)[:, None]
    lag, swept, short = ends.copy(), np.zeros(count, dtype=bool), np.full(count, k > 1)
    if k > 1 and returned.any():  # the angle about the loop's centroid in its principal plane
        loop = (t <= ends).astype(float)
        shift -= np.einsum("tck,tc->ck", shift, loop) / (ends + 1)[:, None]
        offset = np.moveaxis(shift, 0, 1)  # (C, T, k)
        spread = np.swapaxes(offset * loop.T[..., None], 1, 2) @ offset
        plane = offset @ np.linalg.eigh(spread)[1][..., -2:]
        sweep = np.unwrap(np.arctan2(plane[..., 1], plane[..., 0]), axis=1).T
        full = np.abs(sweep - sweep[0]) >= 2.0 * np.pi
        short = ~full.any(0)
        lag = np.where(winds, ends, np.where(short, length, full.argmax(0)))
        turning, inside = np.diff(sweep, axis=0), t[:-1] < lag
        swept = ~short & (((turning > 0) | ~inside).all(0) | ((turning < 0) | ~inside).all(0))
    moving = np.where(t[:-1] < lag, steps, np.inf).min(0) > QP_STEP_FLOOR
    return Loop(ends, lag, away, returned & (winds | swept) & moving, ~returned | (~winds & short))
