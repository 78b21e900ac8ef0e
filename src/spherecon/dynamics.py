"""The sphere-projection iteration: each agent replaces its state by the
normalized conical combination of its neighbors' states. Includes the
quadratic potential, the lockstep kernel behind every trajectory (`run_batch`,
which `run` calls on a stack of one), which stops a trial certified never to
converge (a rigid rotation, or a full turn on an attracting circle), and the
descent mode used to locate non-consensus fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import loops
from .state import (Configuration, ConfigurationClass, agent_blocks, as_array,
                    classify_configuration, column_sums, relative_rank, tangent_basis)
from .tolerances import (FP_TOL, LIMIT_RANK_TOL, MIN_ROW_NORM, QP_EXCURSION, QP_EXPONENT_MARGIN,
                         QP_NEUTRAL_BAND, QP_RETURN_TOL, QP_STEP_FLOOR, RE_FIT_TOL,
                         RE_ORBIT_MARGIN, RE_STEP_FLOOR, STEP_FILTER_MARGIN)
from .weights import WeightMatrix, descent_matrix

MAX_ITER = 10 ** 6
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
# trials per replay of a quasi-periodic test: its arrays stay within a few MB, so that it
# leaves the peak memory of a run all but unchanged
TURN_STACK = 8

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
    Both may carry leading batch axes (a stack of trials). A row's norm adds
    its squares left to right (`column_sums`), as the kernel's step does.

    A vanishing row image is impossible for strictly diagonally dominant
    weight matrices; it is checked here whatever the matrix.
    """
    z = entries @ rows
    norms = np.sqrt(column_sums(z * z))
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
    exponents over that loop (the rotation's, the circle's, the next). The
    third is resolved only down to about log(eps) / L over a loop of L steps:
    at L = 478, two products equal up to round-off gave -0.0696 and -0.0728,
    and log(eps) / 478 = -0.0754, so its digits there are no measurement."""

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


class _Block:
    """Buffers for a block of up to `steps` steps of a (count, size, d) stack
    of trials and views of them, made once, so that the kernel's step (`run`)
    allocates nothing. It holds the states 0 .. steps, state 0 the block's
    start, and the row norms of the steps out of states 0 .. steps - 1. A
    step is matmul, square, the sum of the squares' columns, sqrt and a
    divide per column, each a ufunc writing through the views. A call per
    column adds a row's squares left to right, in the order of `_step`'s
    `column_sums`, without numpy's cost per row. The column views are flat
    over all rows: numpy runs a one-axis operand in one plain loop, where a
    divide broadcast over the columns loops once per row."""

    def __init__(self, steps: int, count: int, size: int, d: int):
        self.states = np.empty((steps + 1, count, size, d))
        self.norms = np.empty((steps, count, size))
        self.squares = np.empty((count, size, d))
        self.columns = list(self.squares.reshape(-1, d).T)
        # per step: the state it starts from, the state it makes, that state's columns flat
        # over all trials, and the row norms
        columns = self.states[1:].reshape(steps, -1, d).transpose(0, 2, 1)
        self.views = list(zip(self.states[:-1], self.states[1:], map(list, columns),
                              self.norms.reshape(steps, -1)))

    def run(self, m: np.ndarray, steps: Optional[int] = None):
        """Take the block's steps (its first `steps`) from its state 0 under
        the matrices m; returns the states and the row norms of the steps."""
        matmul, multiply, add, sqrt, divide = np.matmul, np.multiply, np.add, np.sqrt, np.divide
        squares, columns, later = self.squares, self.columns, self.columns[2:]
        for prev, z, z_columns, norm in self.views if steps is None else self.views[:steps]:
            matmul(m, prev, z)
            multiply(z, z, squares)
            add(columns[0], columns[1], norm)
            for column in later:
                add(norm, column, norm)
            sqrt(norm, norm)
            for column in z_columns:
                divide(column, norm, column)
        return self.states, self.norms


def _replay(m: np.ndarray, rows: np.ndarray, steps: int):
    """The states 0 .. steps, (steps + 1, C, n, d), of trials from their rows
    under their matrices, and the row norms of each step, (steps, C, n), by
    the kernel's own step: from a state the kernel reached they are its
    states, bit for bit."""
    states, norms = np.empty((steps + 1, *rows.shape)), np.empty((steps, *rows.shape[:2]))
    states[0], block = rows, _Block(min(BLOCK_STEPS, steps), *rows.shape)
    for lo in range(0, steps, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, steps)
        block.states[0] = states[lo]
        block.run(m, hi - lo)
        states[lo + 1:hi + 1], norms[lo:hi] = block.states[1:hi - lo + 1], block.norms[:hi - lo]
    return states, norms


def _turns(m: np.ndarray, states: np.ndarray, norms: np.ndarray, agents: np.ndarray,
           returns: np.ndarray):
    """The quasi-periodic test of padded d = 2 trials from their (C, n, n)
    matrices, the (T, C, n, 2) states of a window, the (T - 1, C, n) row
    norms of its steps, their real agent counts and the state of their
    shape's first return in the window, as `_Watch`'s detector saw it (T if
    none), one test per count: per trial its Turn if it passes, else None,
    and the positions of the trials whose turn the window left undecided
    (`loops.Loop`). The loop runs from the window's first state to that
    return; the shapes (`loops.shapes`) are lifted along it, each step taken
    modulo 2 pi per angle (`loops.geometry`). A trial passes if (a) over the
    loop (`loops.exponents`) the rotation's and the circle's exponents lie
    within QP_NEUTRAL_BAND of 0 and the next is at most -QP_EXPONENT_MARGIN;
    (b) its shape made a full turn: it came back advanced by a multiple of 2 pi (a
    loop around the torus of shapes; the turn ends at the return), or its
    angle about the loop's centroid, in the loop's principal plane, swept
    2 pi monotonically (the turn ends there); and (c) every shape step of the
    turn exceeds QP_STEP_FLOOR. The orbit has then settled on a normally
    attracting circle of shapes, on which the map is a circle homeomorphism,
    and went once around, so the circle holds no fixed point and the trial
    never converges. A spiral onto a focus sweeps turns too, but its circle
    and next exponents are equal, which QP_NEUTRAL_BAND < QP_EXPONENT_MARGIN
    never passes. A Turn reads no state past its turn's end: any longer
    window gives it too."""
    found, undecided = [None] * len(agents), np.zeros(len(agents), dtype=bool)
    for n in np.unique(agents):
        at = np.flatnonzero(agents == n)
        window = states[:, at, :n] if len(at) < len(agents) else states[..., :n, :]
        ends, lag, away, turned, undecided[at] = loops.geometry(window, returns[at])
        turned = np.flatnonzero(turned)
        if not len(turned):
            continue
        exponents = np.pad(loops.exponents(m[at[turned], :n, :n], window, norms[:, at, :n],
                                           ends[turned], turned),
                           ((0, 0), (0, 1)), constant_values=-np.inf)
        for c, (first, second, third) in zip(turned, exponents[:, :3]):
            if max(abs(first), abs(second)) <= QP_NEUTRAL_BAND and third <= -QP_EXPONENT_MARGIN:
                found[at[c]] = Turn(int(lag[c]), float(np.sqrt(away[c])),
                                    (float(first), float(second), float(third)))
    return found, np.flatnonzero(undecided)


def _turn_test(m: np.ndarray, rows: np.ndarray, starts: np.ndarray, back: np.ndarray,
               state: int, agents: np.ndarray) -> list:
    """`_turns` at test step `state` of watched trials, from their padded
    matrices and their rows at their windows' starts, over their real agents.
    Only a trial whose detector saw a return (back >= 0) is replayed, first
    up to the return, which `_turns` takes as its loop's end, and on to
    `state` only if its turn is undecided there.
    Trials of one start share a replay, TURN_STACK at most, in the order of
    their returns."""
    found, groups = [None] * len(rows), {}
    returned = np.flatnonzero(back >= 0)
    for c in returned[np.argsort(back[returned], kind="stable")]:
        groups.setdefault(int(starts[c]), []).append(c)
    for first, members in groups.items():
        for lo in range(0, len(members), TURN_STACK):
            part = np.array(members[lo:lo + TURN_STACK])
            reach = int(back[part].max()) - first
            states, norms = _replay(m[part], rows[part], reach)
            returns = back[part] - first
            turns, short = _turns(m[part], states, norms, agents[part], returns)
            if len(short) and first + reach < state:
                more, more_norms = _replay(m[part[short]], states[-1, short], state - first - reach)
                longer, _ = _turns(m[part[short]], np.concatenate([states[:, short], more[1:]]),
                                   np.concatenate([norms[:, short], more_norms]),
                                   agents[part[short]], returns[short])
                for c, turn in zip(short, longer):
                    turns[c] = turn
            for c, turn in zip(part, turns):
                found[c] = turn
    return found


class _Watch:
    """The trials the quasi-periodic test watches, O(n d) numbers each: d = 2
    trials with a non-symmetric matrix (the others have no chances) that the
    RE test rejected at a test step where their shape stepped above
    QP_STEP_FLOOR. One has a window open from each of the last two test
    steps, one only until its first test. Per window it keeps the rows and
    shape at its start and a detector: whether the shape has left by
    QP_EXCURSION and the first state after that within QP_RETURN_TOL (back,
    -1 before): the window's first return, the one rule for it, which
    `_turns` reads."""

    # per open window, sorted by trial and start: its trial and that trial's position in the
    # working set, its start, back, 1 on the angles of real agents (0 on pads), its shape and
    # rows at its start, and whether its shape has left
    FIELDS = ("trial", "seen", "start", "back", "real", "origin", "rows", "left")

    def __init__(self, entries: np.ndarray, agents: np.ndarray, d: int):
        size, self.agents = entries.shape[1], agents
        self.chances = np.where((entries != np.swapaxes(entries, 1, 2)).any(axis=(1, 2)) & (d == 2),
                                TURN_TESTS, 0)  # the quasi-periodic tests each trial has left
        self.trial = self.seen = self.start = self.back = np.zeros(0, dtype=int)
        self.real = self.origin = np.zeros((0, size - 1))
        self.rows, self.left = np.zeros((0, size, d)), np.zeros(0, dtype=bool)

    def follow(self, states: np.ndarray, first: int):
        """Feed the detectors a block's states first, first + 1, ... of the
        working set. `run_batch` calls it once per block, after the block's
        test: as a block ends at a test step at the latest, a test reads
        detectors that saw every state up to it and none past it."""
        if not (self.back < 0).any():
            return
        away = loops.squared_distances(loops.shapes(states[:, self.seen]), self.origin, self.real)
        close = away <= QP_RETURN_TOL ** 2
        if not self.left.all():  # the windows that have been out, up to each state
            gone = np.logical_or.accumulate(away > QP_EXCURSION ** 2, axis=0) | self.left
            close &= gone
            self.left = gone[-1]
        if close.any():
            new = close.any(0) & (self.back < 0)
            self.back[new] = first + close.argmax(0)[new]

    def test(self, m: np.ndarray, pos: np.ndarray, trials: np.ndarray, before: np.ndarray,
             after: np.ndarray, state: int) -> dict:
        """The quasi-periodic test at test step `state` of the running trials
        at working-set positions pos (trials their indices) that the RE test
        rejected; before and after are the working set's states `state` and
        `state` + 1. A watched one is tested on its older window and uses up a
        chance; returns {position: Turn} of those that pass. One that did not
        stop is watched on while it has chances: its window from `state` -
        TURN_WINDOW closes and one opens here. Another joins if it has chances
        and its shape steps above QP_STEP_FLOOR here."""
        pos, trials = pos[self.chances[trials] > 0], trials[self.chances[trials] > 0]
        if not len(pos) and not len(self.trial):
            return {}
        older = np.searchsorted(self.trial, trials)  # each watched one's older window
        old = older < len(self.trial)
        old[old] = self.trial[older[old]] == trials[old]
        ready, w = np.flatnonzero(old), older[old]
        found = _turn_test(m[pos[ready]], self.rows[w], self.start[w], self.back[w], state,
                           self.agents[trials[ready]])
        stopped = np.zeros(len(pos), dtype=bool)
        stopped[ready] = [turn is not None for turn in found]
        self.chances[trials[ready]] -= 1
        real = (np.arange(self.real.shape[1]) < self.agents[trials, None] - 1).astype(float)
        moving = loops.squared_distances(loops.shapes(after[pos]), loops.shapes(before[pos]), real)
        going = ~stopped & (self.chances[trials] > 0) & (old | (moving > QP_STEP_FLOOR ** 2))
        kept = np.isin(self.trial, trials[going]) & (self.start > state - TURN_WINDOW)
        here = before[pos[going]]
        opened = (trials[going], pos[going], np.full(len(here), state), np.full(len(here), -1),
                  real[going], loops.shapes(here), here, np.zeros(len(here), dtype=bool))
        order = np.argsort(np.concatenate([self.trial[kept], trials[going]]), kind="stable")
        for name, new in zip(self.FIELDS, opened):
            setattr(self, name, np.concatenate([getattr(self, name)[kept], new])[order])
        return {int(pos[c]): turn for c, turn in zip(ready, found) if turn is not None}

    def regather(self, keep: np.ndarray):
        """Follow a re-gather of the working set to the positions where keep
        holds; a watched trial that left is dropped."""
        if len(self.trial):
            stay = keep[self.seen]
            for name in self.FIELDS:
                setattr(self, name, getattr(self, name)[stay])
            self.seen = np.cumsum(keep)[self.seen] - 1


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
    blocks of steps, one `_Block` per working-set shape: a block from state k
    holds the states k .. k + s as its states 0 .. s. It takes up to
    BLOCK_STEPS steps, fewer where its states would pass BLOCK_FLOATS or
    max_iter, at least one, and it ends at the latest at the next test step,
    a state k with k + 1 a multiple of RE_CHECK_EVERY, so that a test always
    falls on a block's state 0. Inside a block only the update runs; after
    it, every step of the block is screened. Unless no trial can leave in
    the block, an exit scan finds each trial's first exit step (the block's
    length if it stays) and its status, by one rule per status, each writing
    both where its step is earlier: ZERO_NORM at the first step whose row
    image vanishes; FIXED_POINT at the first step whose exact residual is at
    most fp_tol; RELATIVE_EQUILIBRIUM at a block's state 0 if it is a test
    step short of max_iter, for the trials whose step there exceeds
    RE_STEP_FLOOR and that pass `_rotations` on the block's states 0 and 1;
    QUASI_PERIODIC there, for the watched trials (below) that the RE test
    rejected and that pass `_turns`; AT_MAX_ITER at step max_iter, for every
    trial still running there. A trial leaving at step k keeps its state k,
    the count k and, as its residual, the exact norm of its step k; a
    zero-norm trial keeps the rows it failed at, the count of the steps it
    completed and residual inf. Steps past a trial's exit inside the block
    are discarded. The working set is re-gathered only after a block in
    which a trial left, and a trial's iteration count, residual, final rows
    and status are written then, once.
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
    watched (`_Watch`): it keeps its rows at the start of its windows and a
    return detector for each, fed each block's states after its test. At
    each later test step its window from max(k, test step - TURN_WINDOW) is
    tested: replayed from its rows if it returned (`_turn_test`). It is
    watched on while it runs and has tests left of its TURN_TESTS; its Turn
    is kept in BatchResult.turns. Symmetric trials, whose potential is
    monotone, and d >= 3 are never tested.

    A step's size is screened by the squared norm of the whole padded step,
    one einsum over the block. Trailing pad zeros can change the final bit of
    that dot, so a trial is decided on its exact residual, the root of the
    dot over its real agents alone. That is taken only where the screen is
    at most fp_tol^2 * (1 + STEP_FILTER_MARGIN), and for the step a trial
    leaves on.
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
    watch = _Watch(entries, agents, d)
    idx, m, x = np.arange(t_count), entries, rows
    cutoff = fp_tol * fp_tol * (1.0 + STEP_FILTER_MARGIN)
    floor = RE_STEP_FLOOR * RE_STEP_FLOOR
    # each trial's smallest potential step so far, and the potential of the state
    # before its current one (NaN before the first, so that no step is taken from it)
    worst = np.full(t_count, np.inf) if potential else None
    level = np.full(t_count, np.nan)
    k, shape = 0, None
    with np.errstate(all="ignore"):  # steps after a zero-norm image are discarded
        while len(idx) and k <= max_iter:
            count = len(idx)
            steps = max(1, min(BLOCK_STEPS, BLOCK_FLOATS // (count * size * d),
                               max_iter - k + 1, RE_CHECK_EVERY - (k + 1) % RE_CHECK_EVERY))
            if shape != (steps, count):
                shape, block = (steps, count), _Block(steps, count, size, d)
                real = np.arange(size) < agents[idx, None]  # the running trials' real agents
                pots = np.empty((steps, count))
                flat = np.empty((steps, count, size * d))  # the block's steps
            block.states[0] = x
            states, norms = block.run(m)  # the states k .. k + steps
            at_max = k + steps > max_iter
            # state 0 is tested for a relative equilibrium: a test step short of max_iter
            check = (k + 1) % RE_CHECK_EVERY == 0 and k < max_iter
            if potential:  # of the states k .. k + steps - 1: sum_i ||(M X)_i|| x_i . F(X)_i
                np.einsum("sti,stid,stid->st", norms * real, states[:-1], states[1:], out=pots)
                rises = np.diff(pots, axis=0, prepend=level[None, idx])
                level[idx] = pots[-1]
            clear = norms.min() > MIN_ROW_NORM  # false on NaN too
            np.subtract(states[1:], states[:-1], flat.reshape(states[1:].shape))
            screen = np.einsum("stk,stk->st", flat, flat)
            if clear and not at_max and not check and screen.min() > cutoff:
                watch.follow(states[1:], k + 1)
                if potential:
                    worst[idx] = np.fmin(worst[idx], np.fmin.reduce(rises))
                x, k = states[-1], k + steps
                continue
            # each trial's first exit step (steps if it stays) and its status; each rule
            # below writes both where its step is earlier
            leave, ending = np.full(count, steps), np.empty(count, dtype=status.dtype)
            if not clear:  # zero norm: the first step whose row image vanishes
                bad = ~(norms > MIN_ROW_NORM).all(axis=2)
                hit = bad.any(axis=0)
                leave[hit], ending[hit] = bad.argmax(axis=0)[hit], ZERO_NORM
            band = (screen <= cutoff) & (np.arange(steps)[:, None] < leave)
            for p, s in zip(*np.nonzero(band.T)):  # fixed point: each trial's steps in order
                if s < leave[p] and _norm(flat[s, p, :spans[idx[p]]]) <= fp_tol:
                    leave[p], ending[p] = s, FIXED_POINT
            if check:  # relative equilibrium, then quasi-periodic on the trials it rejected
                pos = np.flatnonzero((leave > 0) & (screen[0] > floor))
                found = _rotations(m[pos], states[0, pos], states[1, pos], norms[0, pos],
                                   agents[idx[pos]])
                for p, rotation in zip(pos, found):
                    if rotation is not None:
                        leave[p], ending[p] = 0, RELATIVE_EQUILIBRIUM
                        rotations[int(idx[p])] = rotation
                pos = pos[leave[pos] > 0]
                for p, turn in watch.test(m, pos, idx[pos], states[0], states[1], k).items():
                    leave[p], ending[p], turns[int(idx[p])] = 0, QUASI_PERIODIC, turn
            if at_max:  # max iter: every trial still running at the block's final step
                last = leave == steps
                leave[last], ending[last] = steps - 1, AT_MAX_ITER
            watch.follow(states[1:], k + 1)
            gone = np.flatnonzero(leave < steps)
            at, trials = leave[gone], idx[gone]
            # a zero-norm trial counts the steps it completed
            iters[trials] = np.maximum(k + at - (ending[gone] == ZERO_NORM), 0)
            for s, p, t in zip(at, gone, trials):  # the exact step each trial leaves on
                residual[t] = _norm(flat[s, p, :spans[t]])
            residual[trials[ending[gone] == ZERO_NORM]] = np.inf
            final[trials] = states[at, gone]
            status[trials] = ending[gone]
            if potential:  # the steps into the states s <= leave each trial kept in this block
                taken = np.arange(steps)[:, None] <= leave
                worst[idx] = np.fmin(worst[idx], np.fmin.reduce(np.where(taken, rises, np.inf)))
            keep = leave == steps
            if len(gone):
                watch.regather(keep)
                idx, m, x = idx[keep], m[keep], states[-1][keep]
            else:
                x = states[-1]
            k += steps
    return BatchResult(final, iters, residual, status, rotations, turns, worst)


def run(m, c0: Configuration, fp_tol: float = FP_TOL, max_iter: int = MAX_ITER,
        potential: bool = False) -> TrajectoryResult:
    """Iterate until the fixed-point residual ||f(x) - x||_2 drops to fp_tol,
    the trajectory is certified to rotate rigidly (a relative equilibrium)
    or, for a non-symmetric matrix at d = 2, to turn around an attracting
    circle of shapes (quasi-periodic), or max_iter steps have been taken:
    `run_batch` on a stack of one, whose
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
