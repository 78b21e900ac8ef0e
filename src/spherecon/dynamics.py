"""The sphere-projection iteration: each agent replaces its state by the
normalized conical combination of its neighbors' states. Includes the
quadratic potential, the lockstep kernel behind every trajectory (`run_batch`,
which `run` calls on a stack of one), which can keep each trial's smallest
per-step change of its potential and stops a trial that is certified never
to converge (a rigid rotation, or a full turn on an attracting circle), and
the descent mode used to locate non-consensus fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .state import (Configuration, ConfigurationClass, agent_blocks, as_array,
                    classify_configuration, relative_rank, tangent_basis)
from .tolerances import (FP_TOL, LIMIT_RANK_TOL, MIN_ROW_NORM, QP_EXCURSION, QP_EXPONENT_MARGIN,
                         QP_NEUTRAL_BAND, QP_RETURN_TOL, QP_STEP_FLOOR, RE_FIT_TOL,
                         RE_ORBIT_MARGIN, RE_STEP_FLOOR, STEP_FILTER_MARGIN)
from .weights import WeightMatrix, descent_matrix

MAX_ITER = 10 ** 6
# numpy adds fewer terms than this in one plain loop, and more pairwise
PAIRWISE_SUM_FROM = 8
# steps a block takes between two exit decisions: spreads their calls thin, wastes few steps
BLOCK_STEPS = 32
# floats of one block's states (256 KB), which stay in cache; a larger working set steps singly
BLOCK_FLOATS = 2 ** 15
# steps between two relative-equilibrium tests of the running trials: the test is an SVD and,
# for the few that pass its fit, an eigenvalue problem; no sweep trial runs this long
RE_CHECK_EVERY = 1024
# the most steps a quasi-periodic test looks back over: two relative-equilibrium tests apart,
# so that loops of up to about 2000 steps fit
TURN_WINDOW = 2 * RE_CHECK_EVERY
# quasi-periodic tests a trial is given: each of the 197 trials of 30 theorem2 rounds (n = 5,
# 40 trials) that passed did so within its first 13; one that does not turn is watched no longer
TURN_TESTS = 16
# trials per quasi-periodic test and steps per piece of a loop's product: a test's arrays stay
# within a few hundred KB, so that it leaves the peak memory of a run all but unchanged
TURN_STACK = 2
LOOP_PIECE = 64

# the ways a trial ends, one per trial in BatchResult.status: it reached a fixed point; it
# turns rigidly (a relative equilibrium); it turns around an attracting circle of shapes that
# holds no fixed point (quasi-periodic); it ran to max_iter; its row image vanished
FIXED_POINT = "fixed-point"
RELATIVE_EQUILIBRIUM = "relative-equilibrium"
QUASI_PERIODIC = "quasi-periodic"
AT_MAX_ITER = "max-iter"
ZERO_NORM = "zero-norm"
STATUSES = (FIXED_POINT, RELATIVE_EQUILIBRIUM, QUASI_PERIODIC, AT_MAX_ITER, ZERO_NORM)


def _step(entries: np.ndarray, rows: np.ndarray):
    """One update on raw rows; returns (new rows, row norms of entries@rows).
    Both may carry leading batch axes (a stack of trials).

    A vanishing row image is impossible for strictly diagonally dominant
    weight matrices; it is checked here whatever the matrix.
    """
    z = entries @ rows
    norms = np.linalg.norm(z, axis=-1)
    if norms.min() <= MIN_ROW_NORM:
        *trial, agent = np.unravel_index(np.argmin(norms), norms.shape)
        raise ZeroDivisionError(
            "".join(f"trial {t}, " for t in trial)
            + f"agent {agent + 1}: combined state has near-zero norm, projection undefined")
    return z / norms[..., None], norms


def iterate(m, c: Configuration) -> Configuration:
    """Apply the iteration map once: row i becomes the normalized i-th row of
    M X."""
    rows, _ = _step(as_array(m), c.rows)
    return Configuration._unchecked(rows)


def potential(a: WeightMatrix, c: Configuration) -> float:
    """tr(X^T A X) = sum_ij a_ij x_i . x_j; maximized exactly on consensus."""
    return float(np.einsum("ij,ik,jk->", a.entries, c.rows, c.rows))


@dataclass(frozen=True)
class TrajectoryResult:
    final: Configuration
    iterations: int
    residual: float
    converged: bool
    status: str  # FIXED_POINT, RELATIVE_EQUILIBRIUM, QUASI_PERIODIC or AT_MAX_ITER
    min_potential_step: Optional[float] = None
    # populated by the descent mode
    classification: Optional[ConfigurationClass] = None
    residual_weight: Optional[float] = None


class Rotation(NamedTuple):
    """A relative equilibrium F(X) = XQ: the largest angle by which Q turns
    the real agents' row space, the rank of their rows, and the largest
    eigenvalue modulus of the linearization off the rotation orbit."""

    angle: float
    rank: int
    off_orbit_modulus: float


class Turn(NamedTuple):
    """A full turn of a trial's shape on an attracting circle: the steps
    the turn took from the start of its window, the distance of the shape's
    first return to where it started, and the three largest Lyapunov
    exponents over that loop (the rotation's, the circle's, the next)."""

    lag: int
    return_distance: float
    exponents: tuple


@dataclass(frozen=True)
class BatchResult:
    """Per-trial outcome of a lockstep run; iterating it yields (rows, iters,
    residual, status). status names how each trial ended: FIXED_POINT,
    RELATIVE_EQUILIBRIUM, QUASI_PERIODIC, AT_MAX_ITER or ZERO_NORM; the
    residual of a ZERO_NORM trial is inf. rotations maps each trial that
    stopped at a relative equilibrium to its Rotation, and turns each
    quasi-periodic one to its Turn.
    min_potential_step, with potential tracking, holds each trial's smallest
    change of its potential tr(X^T M X) over a step it took up to the rows
    it keeps, inf if it took none."""

    rows: np.ndarray
    iters: np.ndarray
    residual: np.ndarray
    status: np.ndarray
    rotations: dict
    turns: dict
    min_potential_step: Optional[np.ndarray] = None

    def __iter__(self):
        return iter((self.rows, self.iters, self.residual, self.status))


def _norm(flat: np.ndarray) -> float:
    """sqrt of one BLAS dot: the reduction of np.linalg.norm on a vector."""
    return np.sqrt(np.dot(flat, flat))


def _rotations(m: np.ndarray, before: np.ndarray, after: np.ndarray, norms: np.ndarray,
               agents: np.ndarray) -> list:
    """The relative-equilibrium test of a stack of trials at a state X
    (before) and its image F(X) (after), both over the trials' padded
    agents, with the row norms of M X; agents holds each trial's real agent
    count. Returns, per trial, its Rotation if it passes, else None.

    Over the real agents alone (a pad row stays e_1 while the real rows
    turn), Q is the orthogonal Procrustes fit, U V^T from the SVD of X^T F(X),
    and the fit is ||XQ - F(X)||. A trial whose fit is at most RE_FIT_TOL is
    linearized: X is a fixed point of X -> F(X) Q^T, whose differential in
    the tangent bases B at X and Q^T B at its image is the reduced matrix
    with blocks m_ij (Q^T B_i)^T B_j / ||row i of M X||. Its eigenvalues on
    the rotation orbit, d(d-1)/2 - (d-r)(d-r-1)/2 of them at rank r, have
    modulus 1. The trial passes if every other one has modulus at most
    rho <= 1 - RE_ORBIT_MARGIN, so the rotation is linearly stable, and if
    fit / (1 - rho), the rows' distance to the rotation they approach in
    the linearization, is at most RE_FIT_TOL / 2: their Gram matrix, which
    moves at most about twice as far, then stays within RE_FIT_TOL. The rank
    is taken at LIMIT_RANK_TOL, as the records take it: a rank too low
    keeps an orbit eigenvalue in the test, which then fails.
    """
    found = [None] * len(agents)
    d = before.shape[-1]
    real = (np.arange(before.shape[1]) < agents[:, None])[..., None]
    x, y = before * real, after * real
    u, _, vt = np.linalg.svd(np.swapaxes(x, -1, -2) @ y)
    q = u @ vt
    fits = np.linalg.norm(x @ q - y, axis=(-2, -1))
    fitting = np.flatnonzero(fits <= RE_FIT_TOL)
    for n in np.unique(agents[fitting]):
        ps = fitting[agents[fitting] == n]
        rows = before[ps, :n]
        basis = tangent_basis(rows).blocks
        turned = np.swapaxes(q[ps], -1, -2)[:, None] @ basis
        reduced = agent_blocks(m[ps, :n, :n] / norms[ps, :n, None], basis,
                               np.swapaxes(turned, -1, -2))
        moduli = -np.sort(-np.abs(np.linalg.eigvals(reduced)), axis=-1)
        moduli = np.pad(moduli, ((0, 0), (0, 1)))  # modulus 0 past the last
        _, sv, space = np.linalg.svd(rows)
        ranks = relative_rank(sv, LIMIT_RANK_TOL)
        orbit = d * (d - 1) // 2 - (d - ranks) * (d - ranks - 1) // 2
        off = moduli[np.arange(len(ps)), orbit]
        for p, r, v, largest in zip(ps, ranks, space, off):
            if largest <= 1.0 - RE_ORBIT_MARGIN and 2.0 * fits[p] <= RE_FIT_TOL * (1.0 - largest):
                turn = v[:r] @ q[p] @ v[:r].T  # Q on the rows' span, which it maps onto itself
                angle = float(np.abs(np.angle(np.linalg.eigvals(turn))).max())
                found[p] = Rotation(angle, int(r), float(largest))
    return found


def _shapes(rows: np.ndarray) -> np.ndarray:
    """The shape of (..., n, 2) rows on the circle: the angles of agents
    2 .. n relative to agent 1, each in (-2 pi, 2 pi)."""
    angles = np.arctan2(rows[..., 1], rows[..., 0])
    return angles[..., 1:] - angles[..., :1]


def _loop_exponents(m: np.ndarray, shapes: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The Lyapunov exponents, largest first, of (C, n, n) iteration
    matrices along the orbits whose shapes (C, T, n - 1) a window holds, each
    over its loop from the window's first state to state ends[c].

    A state is rebuilt from its shape with agent 1 at angle 0. The map
    commutes with rotations, and in the quarter-turn tangent bases of d = 2
    a rotated state has the same tangent coordinates, so the reduced
    matrices of the rebuilt states chain up as those of the orbit would.
    Their product over the loop, built in pieces of LOOP_PIECE steps, each a
    tree of stacked matmuls (identity past the loop's end), maps the tangent
    space at the loop's start to that at its return, which is all but the
    same; the exponents are the logs of its eigenvalue moduli over the
    loop's length. Over a closed loop these are exact for a periodic orbit
    and carry no start-up transient: the QR method over a window of 1024
    steps read the neutral exponents of these orbits up to 0.004 off 0,
    more than ten times QP_NEUTRAL_BAND."""
    count, n, _ = m.shape
    product = np.broadcast_to(np.eye(n), m.shape)
    for lo in range(0, int(ends.max()), LOOP_PIECE):
        angles = np.zeros((count, min(LOOP_PIECE, shapes.shape[1] - 1 - lo) + 1, n))
        angles[..., 1:] = shapes[:, lo:lo + angles.shape[1]]
        rows = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        images = m[:, None] @ rows[:, :-1]
        norms = np.linalg.norm(images, axis=-1)
        images /= norms[..., None]
        reduced = agent_blocks(m[:, None] / norms[..., None], tangent_basis(rows[:, :-1]).blocks,
                               np.swapaxes(tangent_basis(images).blocks, -1, -2))
        reduced[lo + np.arange(reduced.shape[1]) >= ends[:, None]] = np.eye(n)
        while reduced.shape[1] > 1:  # the later matrix of each pair on the left
            if reduced.shape[1] % 2:
                reduced = np.concatenate([reduced, np.broadcast_to(np.eye(n), reduced[:, :1].shape)],
                                         axis=1)
            reduced = reduced[:, 1::2] @ reduced[:, 0::2]
        product = reduced[:, 0] @ product
    return -np.sort(-np.log(np.abs(np.linalg.eigvals(product))), axis=-1) / ends[:, None]


def _turns(m: np.ndarray, shapes: np.ndarray) -> list:
    """The quasi-periodic test of a stack of d = 2 trials from their (C, n, n)
    iteration matrices and the shapes (C, T, n - 1) of a window's states.
    Returns, per trial, its Turn if it passes, else None.

    The shapes are unwrapped along the window, each step taken modulo 2 pi
    per angle, so that each lifted angle moves continuously. The loop runs
    from the window's first state to the first state whose shape, after one
    more than QP_EXCURSION away, returns within QP_RETURN_TOL of the first,
    modulo 2 pi per angle. A trial passes if three things hold.
    (a) Over the loop (`_loop_exponents`), the two largest exponents, the
    rotation's and the circle's, lie within QP_NEUTRAL_BAND of 0, and the
    third is at most -QP_EXPONENT_MARGIN.
    (b) Its shape has made a full turn: it came back advanced by a non-zero
    multiple of 2 pi (a loop around the torus of shapes; the turn ends at
    the return), or its angle about the loop's centroid, in the plane of the
    loop's two principal directions, sweeps 2 pi monotonically (the turn
    ends where the sweep reaches 2 pi).
    (c) Every shape step up to the turn's end exceeds QP_STEP_FLOOR.
    The orbit has then settled on a normally attracting circle of shapes, on
    which the map is a circle homeomorphism, and it went once around, so the
    circle holds no fixed point and the trial never converges. A spiral onto
    a focus sweeps turns too, but its circle and next exponents are equal,
    and QP_NEUTRAL_BAND < QP_EXPONENT_MARGIN fails it on one of them.
    """
    count, length, k = shapes.shape
    found = [None] * count
    # two float arrays of the window's size: the lifted shape less its start (shift), which
    # becomes the lifted shape, and a scratch array
    shift, scratch = np.zeros(shapes.shape), np.empty(shapes.shape)
    moves, wrap = shift[:, 1:], scratch[:, 1:]
    np.subtract(shapes[:, 1:], shapes[:, :-1], out=moves)
    np.round(np.divide(moves, 2.0 * np.pi, out=wrap), out=wrap)
    moves -= np.multiply(wrap, 2.0 * np.pi, out=wrap)
    steps = np.sqrt(np.einsum("ctk,ctk->ct", moves, moves))
    np.cumsum(moves, axis=1, out=moves)
    np.round(np.divide(shift, 2.0 * np.pi, out=scratch), out=scratch)
    scratch *= -2.0 * np.pi
    scratch += shift  # each shape's offset from the start, modulo 2 pi per angle
    away = np.sqrt(np.einsum("ctk,ctk->ct", scratch, scratch))
    t = np.arange(length)
    out = np.where((away > QP_EXCURSION).any(1), (away > QP_EXCURSION).argmax(1), length)
    back = (away <= QP_RETURN_TOL) & (t > out[:, None])
    returned = back.any(1) & (steps[:, 0] > QP_STEP_FLOOR)  # a turn starts with a step
    if not returned.any():
        return found
    ends = np.where(returned, back.argmax(1), length - 1)
    winds = np.round(shift[np.arange(count), ends] / (2.0 * np.pi)).any(-1)
    lifts = np.add(shift, shapes[:, :1], out=shift)
    lag = ends.copy()
    swept = np.zeros(count, dtype=bool)
    if k > 1:  # the angle about the loop's centroid in its principal plane
        loop = (t <= ends[:, None]).astype(float)
        centroid = np.einsum("ctk,ct->ck", lifts, loop) / (ends + 1)[:, None]
        offset = np.subtract(lifts, centroid[:, None], out=scratch)
        _, axes = np.linalg.eigh(np.einsum("ctk,ctl,ct->ckl", offset, offset, loop))
        plane = offset @ axes[..., -2:]
        sweep = np.unwrap(np.arctan2(plane[..., 1], plane[..., 0]), axis=1)
        full = np.abs(sweep - sweep[:, :1]) >= 2.0 * np.pi
        lag = np.where(winds, ends, np.where(full.any(1), full.argmax(1), length))
        turning = np.diff(sweep, axis=1)
        inside = t[:-1] < lag[:, None]
        swept = full.any(1) & (((turning > 0) | ~inside).all(1) | ((turning < 0) | ~inside).all(1))
    moving = np.where(t[:-1] < lag[:, None], steps, np.inf).min(1) > QP_STEP_FLOOR
    turned = np.flatnonzero(returned & (winds | swept) & moving)
    if len(turned):
        exponents = _loop_exponents(m[turned], lifts[turned], ends[turned])
        exponents = np.pad(exponents, ((0, 0), (0, 1)), constant_values=-np.inf)[:, :3]
        for c, (first, second, third) in zip(turned, exponents):
            if max(abs(first), abs(second)) <= QP_NEUTRAL_BAND and third <= -QP_EXPONENT_MARGIN:
                found[c] = Turn(int(lag[c]), float(away[c, ends[c]]),
                                (float(first), float(second), float(third)))
    return found


def _record(shapes: np.ndarray, rows: np.ndarray, first: int, states: np.ndarray, ring: int):
    """Write the shapes of a (steps, C, n, 2) stack of states, the states
    first, first + 1, ... of C watched trials, into their rows of the ring
    of shapes, at the slots state mod ring."""
    cols = (first + np.arange(len(states))) % ring
    shapes[rows[:, None], cols] = np.swapaxes(_shapes(states), 0, 1)


def _turn_test(m: np.ndarray, shapes: np.ndarray, rows: np.ndarray, since: np.ndarray,
               state: int, ring: int, agents: np.ndarray) -> list:
    """`_turns` of watched trials at a state, each from its (padded)
    iteration matrix and the shapes its row of the ring holds, over its real
    agents, from max(since, state - TURN_WINDOW) to state. Trials of one
    agent count and window share a call, TURN_STACK at most."""
    found = [None] * len(rows)
    starts = np.maximum(since, state - TURN_WINDOW)
    groups: dict = {}
    for c, key in enumerate(zip(agents.tolist(), starts.tolist())):
        groups.setdefault(key, []).append(c)
    for (n, first), members in groups.items():
        cols = np.arange(first, state + 1) % ring
        for lo in range(0, len(members), TURN_STACK):
            part = np.array(members[lo:lo + TURN_STACK])
            window = shapes[rows[part][:, None], cols, :n - 1]
            for c, turn in zip(part, _turns(m[part, :n, :n], window)):
                found[c] = turn
    return found


def run_batch(entries: np.ndarray, rows: np.ndarray, fp_tol: float = FP_TOL,
              max_iter: int = MAX_ITER, potential: bool = False,
              agents: Optional[np.ndarray] = None) -> BatchResult:
    """Run many independent trajectories of one sphere dimension in lockstep:
    the one loop over iteration steps, for a (T, n, n) stack of iteration
    matrices and a (T, n, d) stack of start rows, of which trial t's first
    agents[t] are real (all n without agents). Trials with fewer agents share
    the call as `pad_agents` stacks them; trial t's results, its leading
    agents[t] final rows included, equal those of a call on its own unpadded
    stack, and those of `run` on it, bit for bit. The final rows are the
    kernel's own states, never normalized again. A trial whose row image
    vanishes ends with status ZERO_NORM and residual inf instead of raising.

    Active trials form a compact working set (matrices and rows) that takes
    blocks of steps: up to BLOCK_STEPS, fewer where the block's states would
    pass BLOCK_FLOATS or max_iter, at least one. Inside
    a block only the update runs; after it, every step of the block is
    screened at once. Unless no trial can leave in the block, an exit scan
    finds each trial's first exit step (the block's length if it stays), its
    residual and its status, by one rule per status, each writing all three
    where its step is earlier: ZERO_NORM at the first step whose row image
    vanishes, residual inf; FIXED_POINT at the first step whose exact
    residual is at most fp_tol; RELATIVE_EQUILIBRIUM at each step k short of
    max_iter with k + 1 a multiple of RE_CHECK_EVERY, for the trials still
    running there whose step exceeds RE_STEP_FLOOR and that pass
    `_rotations` on the states k and k + 1 the block holds; QUASI_PERIODIC
    at those steps, for the watched trials still running there (below) that
    the RE test rejected and that pass `_turns`; AT_MAX_ITER at step
    max_iter, for every trial still running there. A trial leaving at step
    k keeps its state k and the count k; a zero-norm trial keeps the
    rows it failed at and the count of the steps it completed. Steps past
    a trial's exit inside the block are discarded. The working set is
    re-gathered only after a block in which a trial left, and a trial's
    iteration count, residual, final rows and status are written then, once.
    With potential, each trial keeps the smallest change over a step of its
    potential tr(X^T M X), M its own iteration matrix (inf without a step),
    taken from the steps themselves: as F(X)_i = (M X)_i / ||(M X)_i||, it is
    the sum over the real agents of ||(M X)_i|| x_i . F(X)_i, which the
    block's row norms and states hold for every state a step starts from.
    Its change over each step into a state up to the rows the trial keeps is
    folded into that trial's smallest step. The state a zero-norm trial keeps
    has a NaN potential, and NaN changes are left out.

    At d = 2, a trial with a non-symmetric matrix that the RE test rejects
    at a test step k, and whose shape step there exceeds QP_STEP_FLOOR, is
    watched: from state k on, the shapes (`_shapes`) of its states are
    written after each block into its row of a ring of TURN_WINDOW +
    BLOCK_STEPS + 1 slots, state mod ring, so the states of the block past
    a test step never overwrite the window before it. Rows are sized per
    watched trial and reused when one leaves. At each later test step it is
    tested (`_turn_test`) on the states from max(k, test step -
    TURN_WINDOW) to the test step, and is watched on if it still runs and
    has tests left of its TURN_TESTS; its Turn is kept in BatchResult.turns.
    Symmetric trials, whose potential is monotone, and d >= 3 are never
    tested.

    A step is matmul, square, the sum of the squares' columns, sqrt and a
    divide per column, each a ufunc writing into buffers made once per
    working-set shape through views made with them, so a step allocates
    nothing. Below PAIRWISE_SUM_FROM columns a call per column adds a row's
    squares in the order `np.linalg.norm` does, without numpy's cost per
    row; from there on numpy's own reduction runs. The views of the squares'
    and the states' columns are flat over all rows: numpy runs a one-axis
    operand in one plain loop, where a divide broadcast over the columns
    loops once per row.

    A step's size is screened by the squared norm of the whole padded step,
    one einsum over the block. Trailing pad zeros can change the final bit of
    that dot, so a trial is decided on its exact residual, the root of the
    dot over its real agents alone. That is taken only when the screen is at
    most fp_tol^2 * (1 + STEP_FILTER_MARGIN), at max_iter, and for the step
    of a relative equilibrium.
    """
    entries, rows = np.asarray(entries, dtype=float), np.asarray(rows, dtype=float)
    t_count, size, d = rows.shape
    agents = np.full(t_count, size) if agents is None else np.asarray(agents)
    spans = agents * d
    final = rows.copy()
    iters = np.zeros(t_count, dtype=int)
    residual = np.full(t_count, np.inf)
    status = np.empty(t_count, dtype=f"U{len(RELATIVE_EQUILIBRIUM)}")
    rotations, turns = {}, {}
    # the quasi-periodic test's trials: d = 2 with a non-symmetric matrix. Those the RE test
    # rejected at its last test are watched: the shapes of their states since then (or of the
    # last TURN_WINDOW + 1 of them) are recorded in a ring of slots, state mod ring, in single
    # precision: its round-off, below a millionth of a radian, is far below every threshold
    chances = np.where((entries != np.swapaxes(entries, 1, 2)).any(axis=(1, 2)) & (d == 2),
                       TURN_TESTS, 0)  # the quasi-periodic tests each trial has left
    ring = TURN_WINDOW + BLOCK_STEPS + 1  # the window and the states of one block past it
    watched = since = slots = np.zeros(0, dtype=int)  # trial, first state recorded, its slot
    shapes = np.zeros((0, ring, size - 1), dtype=np.float32)
    seen = watched  # the watched trials' positions in the working set
    idx, m, x = np.arange(t_count), entries, rows
    cutoff = fp_tol * fp_tol * (1.0 + STEP_FILTER_MARGIN)
    floor = RE_STEP_FLOOR * RE_STEP_FLOOR
    columnwise = 2 <= d < PAIRWISE_SUM_FROM
    # each trial's smallest potential step so far, and the potential of the state
    # before its current one (NaN before the first, so that no step is taken from it)
    worst = np.full(t_count, np.inf) if potential else None
    level = np.full(t_count, np.nan)
    k, shape = 0, None
    with np.errstate(all="ignore"):  # steps after a zero-norm image are discarded
        while len(idx) and k <= max_iter:
            count = len(idx)
            steps = max(1, min(BLOCK_STEPS, BLOCK_FLOATS // (count * size * d),
                               max_iter - k + 1))
            if shape != (steps, count):
                shape, side = (steps, count), 0
                real = np.arange(size) < agents[idx, None]  # the running trials' real agents
                pots = np.empty((steps, count))
                norms = np.empty((steps, count, size))
                flat = np.empty((steps, count, size * d))  # the block's steps
                squares = np.empty((count, size, d))
                square_rows = squares.reshape(-1, d)
                columns = list(square_rows.T)
                later = columns[2:]
                # two alternating sides of states, so a block never writes the state
                # it starts from; each is made when first used
                sides = [None, None]
            if sides[side] is None:
                # the side's states and, per step, the state, its columns flat over
                # all trials, and its row norms
                states = np.empty((steps, count, size, d))
                state_columns = states.reshape(steps, -1, d).transpose(0, 2, 1)
                sides[side] = (states, list(zip(states, map(list, state_columns),
                                                norms.reshape(steps, -1))))
            states, views = sides[side]
            prev = x
            for z, z_columns, norm in views:  # the states after steps k .. k + steps - 1
                np.matmul(m, prev, z)
                np.multiply(z, z, squares)
                if columnwise:
                    np.add(columns[0], columns[1], norm)
                    for column in later:
                        np.add(norm, column, norm)
                else:
                    np.add.reduce(square_rows, -1, None, norm)
                np.sqrt(norm, norm)
                for column in z_columns:
                    np.divide(column, norm, column)
                prev = z
            if len(watched):
                _record(shapes, slots, k + 1, states[:, seen], ring)
            if potential:  # of the states k .. k + steps - 1: sum_i ||(M X)_i|| x_i . F(X)_i
                real_norms = norms * real
                np.einsum("ti,tid,tid->t", real_norms[0], x, states[0], out=pots[0])
                np.einsum("sti,stid,stid->st", real_norms[1:], states[:-1], states[1:],
                          out=pots[1:])
                rises = np.diff(pots, axis=0, prepend=level[None, idx])
                level[idx] = pots[-1]
            clear = norms.min() > MIN_ROW_NORM  # false on NaN too
            steps_of = flat.reshape(states.shape)
            np.subtract(states[0], x, steps_of[0])
            np.subtract(states[1:], states[:-1], steps_of[1:])
            screen = np.einsum("stk,stk->st", flat, flat)
            at_max = k + steps > max_iter
            # the block's steps s whose states k + s and k + s + 1 are tested for a relative
            # equilibrium: k + s + 1 a multiple of RE_CHECK_EVERY, k + s short of max_iter
            checks = range(-(k + 1) % RE_CHECK_EVERY, steps - at_max, RE_CHECK_EVERY)
            if clear and not at_max and not checks and screen.min() > cutoff:
                if potential:
                    worst[idx] = np.fmin(worst[idx], np.fmin.reduce(rises))
                x, k, side = states[-1], k + steps, 1 - side
                continue
            # each trial's first exit step (steps if it stays), its residual and its
            # status; each rule below writes all three where its step is earlier
            leave, step = np.full(count, steps), np.full(count, np.inf)
            ending = np.empty(count, dtype=status.dtype)
            if not clear:  # zero norm: the first step whose row image vanishes
                bad = ~(norms > MIN_ROW_NORM).all(axis=2)
                hit = bad.any(axis=0)
                leave[hit], ending[hit] = bad.argmax(axis=0)[hit], ZERO_NORM
            band = (screen <= cutoff) & (np.arange(steps)[:, None] < leave)
            for p, s in zip(*np.nonzero(band.T)):  # fixed point: each trial's steps in order
                if s < leave[p]:
                    exact = _norm(flat[s, p, :spans[idx[p]]])
                    if exact <= fp_tol:
                        leave[p], step[p], ending[p] = s, exact, FIXED_POINT
            for s in checks:  # relative equilibrium, tested on the trials running at s
                pos = np.flatnonzero((leave > s) & (screen[s] > floor))
                found = _rotations(m[pos], states[s - 1, pos] if s else x[pos], states[s, pos],
                                   norms[s, pos], agents[idx[pos]])
                for p, rotation in zip(pos, found):
                    if rotation is not None:
                        leave[p], step[p] = s, _norm(flat[s, p, :spans[idx[p]]])
                        ending[p], rotations[int(idx[p])] = RELATIVE_EQUILIBRIUM, rotation
                # quasi-periodic, tested on the trials the RE test rejected that were watched
                # for one interval at least; the rest of them start being watched here
                pos = pos[(chances[idx[pos]] > 0) & (leave[pos] > s)]
                old = np.isin(idx[pos], watched)
                row = np.searchsorted(watched, idx[pos])  # each old one's entry in watched
                ready = np.flatnonzero(old)
                ready = ready[since[row[ready]] < k + s]
                found = _turn_test(m[pos[ready]], shapes, slots[row[ready]], since[row[ready]],
                                   k + s, ring, agents[idx[pos[ready]]])
                for p, turn in zip(pos[ready], found):
                    if turn is not None:
                        leave[p], step[p] = s, _norm(flat[s, p, :spans[idx[p]]])
                        ending[p], turns[int(idx[p])] = QUASI_PERIODIC, turn
                chances[idx[pos[ready]]] -= 1
                # a trial joins if its shape steps above QP_STEP_FLOOR here, where the window
                # of its first two tests starts; its record takes a slot no watched trial holds
                start = np.concatenate([(states[s - 1] if s else x)[None], states[s:]])
                moves = np.diff(_shapes(start[:2, pos]), axis=0)[0]
                moves -= 2.0 * np.pi * np.round(moves / (2.0 * np.pi))
                moves *= np.arange(size - 1) < agents[idx[pos], None] - 1
                going = (leave[pos] > s) & (chances[idx[pos]] > 0) & (
                    old | (np.linalg.norm(moves, axis=-1) > QP_STEP_FLOOR))
                taken, first = np.full(len(pos), -1), np.full(len(pos), k + s)
                taken[old], first[old] = slots[row[old]], since[row[old]]
                pos, taken, first, new = pos[going], taken[going], first[going], ~old[going]
                free = np.setdiff1d(np.arange(len(shapes)), taken)
                short = new.sum() - len(free)
                if short > 0:
                    free = np.append(free, len(shapes) + np.arange(short))
                    shapes = np.concatenate([shapes, np.empty((short, ring, size - 1), np.float32)])
                taken[new] = free[:new.sum()]
                _record(shapes, taken[new], k + s, start[:, pos[new]], ring)
                watched, since, slots, seen = idx[pos], first, taken, pos
            if at_max:  # max iter: every trial still running at the block's final step
                for p in np.flatnonzero(leave == steps):
                    leave[p], step[p] = steps - 1, _norm(flat[-1, p, :spans[idx[p]]])
                    ending[p] = AT_MAX_ITER
            gone = np.flatnonzero(leave < steps)
            at, trials = leave[gone], idx[gone]
            # a zero-norm trial counts the steps it completed
            iters[trials] = np.maximum(k + at - (ending[gone] == ZERO_NORM), 0)
            residual[trials] = step[gone]
            final[trials] = np.where((at == 0)[:, None, None], x[gone], states[at - 1, gone])
            status[trials] = ending[gone]
            if potential:  # the steps into the states s <= leave each trial kept in this block
                taken = np.arange(steps)[:, None] <= leave
                worst[idx] = np.fmin(worst[idx], np.fmin.reduce(np.where(taken, rises, np.inf)))
            keep = leave == steps
            if len(gone):
                stay = keep[seen]
                watched, since, slots = watched[stay], since[stay], slots[stay]
                idx, m, x = idx[keep], m[keep], states[-1][keep]
                seen = np.searchsorted(idx, watched)
            else:
                x, side = states[-1], 1 - side
            k += steps
    return BatchResult(final, iters, residual, status, rotations, turns, worst)


def run(m, c0: Configuration, fp_tol: float = FP_TOL, max_iter: int = MAX_ITER,
        potential: bool = False) -> TrajectoryResult:
    """Iterate until the fixed-point residual ||f(x) - x||_2 drops to fp_tol,
    the trajectory is certified to rotate rigidly (a relative equilibrium),
    or max_iter steps have been taken: `run_batch` on a stack of one, whose
    final rows it keeps as they are. With potential, records the smallest
    change of tr(X^T M X) over a step (inf without a step), M the iteration
    matrix. A zero-norm row image raises ZeroDivisionError naming the agent."""
    entries = as_array(m)
    out = run_batch(entries[None], c0.rows[None], fp_tol, max_iter, potential)
    if out.status[0] == ZERO_NORM:
        _step(entries, out.rows[0])  # raises, naming the agent
    return TrajectoryResult(
        final=Configuration._unchecked(out.rows[0]),
        iterations=int(out.iters[0]),
        residual=float(out.residual[0]),
        converged=out.status[0] == FIXED_POINT,
        status=str(out.status[0]),
        min_potential_step=float(out.min_potential_step[0]) if potential else None,
    )


def pad_agents(entries: list, rows: list):
    """Stack trials of one d and any n for one `run_batch` call, each padded
    with trailing agents up to the largest n. A pad agent has an identity row
    and column in its iteration matrix and the start row e_1, so it maps to
    itself exactly (norm 1, step 0). Returns the padded (entries, rows) and
    the agent counts, as `run_batch` takes them."""
    agents = np.array([len(r) for r in rows])
    count, size, d = len(rows), int(agents.max()), rows[0].shape[1]
    mats = np.tile(np.eye(size), (count, 1, 1))
    starts = np.zeros((count, size, d))
    starts[:, :, 0] = 1.0
    for t, n in enumerate(agents):
        mats[t, :n, :n] = entries[t]
        starts[t, :n] = rows[t]
    return mats, starts, agents


def fixed_point_residual(m, c: Configuration) -> float:
    """||f(x) - x||_2 for the iteration driven by m."""
    rows, _ = _step(as_array(m), c.rows)
    return float(np.linalg.norm(rows - c.rows))


def find_nonconsensus_fixed_point(a: WeightMatrix, c0: Configuration,
                                  slack: float = 0.25,
                                  max_iter: int = MAX_ITER) -> TrajectoryResult:
    """Run the iteration with the descent matrix alpha*I - A instead of A.

    For symmetric A this descends the potential tr(X^T A X), so converged
    limits are non-consensus fixed points of the descent iteration. The
    result records both the descent residual and the residual under A itself
    (the latter need not be small), plus the limit's classification.
    """
    res = run(descent_matrix(a, slack), c0, max_iter=max_iter)
    return replace(res, classification=classify_configuration(res.final),
                   residual_weight=fixed_point_residual(a, res.final))
