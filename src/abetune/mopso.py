"""Multi-objective particle swarm optimizer with a crowding-distance archive
(after Raquel & Naval, GECCO 2005).

All objectives are minimized.  The swarm keeps a bounded external archive of
mutually non-dominated solutions; when it overflows, the entries packed most
densely (smallest crowding distance) are dropped.  Leaders are drawn at
random from the least crowded top share of the archive.  Out-of-range
velocities are reflected, positions that leave the box are pulled back to
the nearest boundary, and early iterations apply a non-uniform mutation
whose reach shrinks with iteration count.

`run` steps the whole swarm at once, one row per particle, through the
operators below: `leader_share`, `cognitive_pull`, `social_pull`,
`cap_velocity`, `step_position`, `mutate` and `update_pbests`.  `run` owns
the workspace, five float (pop, d) blocks and two bool ones allocated once
per run: the state X, V and PB, one draw block R, one float scratch block C
and the bool scratch.  The operators write into them in place (each
operator's docstring names what it writes).  R holds R1 until the cognitive
pull is in V, and R2 is then drawn into the same block; the mutation draws
its selection block into the scratch blocks.  Apart from the fitness
evaluation, a step allocates nothing (pop, d)-sized but the rows it copies
into the archive and the pbests.  Reflections are branchless: a component
is negated by multiplying it with 1 - 2 * mask, not through boolean-mask
indexing, with the same bits as the indexed form.

The bookkeeping around the archive costs O(archive x pop) per step, not
O((archive + pop)^2).  `Archive.update` screens the candidates against the
entries in one rectangular pass and runs the all-pairs test only over the
entries and the candidates no entry dominates; by transitivity that keeps
the rows, the order and the pruning of the all-pairs test over everything.
Most steps of a small archive screen out every candidate, and then the
archive keeps its arrays, so `run` recomputes the leader share (the
crowding distances) only when the archive's `fitnesses` is a new array.
`update_pbests` gets both dominance directions from two reductions.

Every stochastic draw comes from one generator seeded by the run seed, in
whole-swarm blocks whose order is fixed per step: the leader picks, R1, R2,
then (while mutating) the mutation's selection mask, directions and steps,
then the pbest coins.  Drawing R1, R2 and the selection block into the
workspace takes the same numbers from the stream as drawing fresh (pop, d)
arrays, and each pull keeps its operands and their order, so one draw
block gives the bits of two.  Every yes/no draw is a uniform compared with
its probability.  A run is a pure function of its seed, however fitness
evaluations are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, EvaluationError


@dataclass(frozen=True)
class Bounds:
    lower: np.ndarray
    upper: np.ndarray
    v_max: np.ndarray = field(init=False)  # a quarter of each range; v_min is -v_max

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise BoundsError("lower/upper must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise BoundsError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "v_max", 0.25 * (hi - lo))

    @property
    def dim(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class MopsoConfig:
    pop_size: int = 100
    max_iter: int = 100
    inertia: tuple[float, float] = (0.9, 0.4)  # linear decay start -> end
    c1: float = 2.0
    c2: float = 2.0
    mutation_fraction: float = 0.5  # mutate while t < max_iter * fraction
    mutation_exponent: float = 5.0
    archive_capacity: int = 100
    leader_fraction: float = 0.10
    seed: int | np.random.SeedSequence = 0
    classical_mutation: bool = False  # textbook non-uniform decay instead of the printed rule

    def __post_init__(self):
        if self.pop_size < 2:
            raise BoundsError("pop_size must be >= 2")
        if self.max_iter < 1:
            raise BoundsError("max_iter must be >= 1")
        if self.archive_capacity < 1:
            raise BoundsError("archive_capacity must be >= 1")
        if self.mutation_exponent < 0:
            raise BoundsError("mutation_exponent must be >= 0")
        if not 0.0 <= self.mutation_fraction <= 1.0:
            raise BoundsError("mutation_fraction must lie in [0, 1]")
        if not 0.0 < self.leader_fraction <= 1.0:
            raise BoundsError("leader_fraction must lie in (0, 1]")


def crowding_distances(fitnesses) -> np.ndarray:
    """Density estimate per entry: sum over objectives of the gap between the
    two neighbors in that objective's sorted order; boundary entries collect
    the objective's maximum value instead."""
    f = np.atleast_2d(np.asarray(fitnesses, dtype=float))
    n, m = f.shape
    if n == 0:
        return np.zeros(0)
    cd = np.zeros(n)
    for j in range(m):
        order = np.argsort(f[:, j], kind="stable")
        fmax = f[order[-1], j]
        cd[order[0]] += fmax
        if n > 1:
            cd[order[-1]] += fmax
            if n > 2:
                cd[order[1:-1]] += f[order[2:], j] - f[order[:-2], j]
    return cd


def _dominated(by: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows),) mask of the rows strictly dominated by some row of `by`,
    in one rectangular (len(by), len(rows)) pass per objective."""
    le = np.ones((len(by), len(rows)), dtype=bool)
    lt = np.zeros((len(by), len(rows)), dtype=bool)
    # accumulate pairwise <=/< per objective to avoid a 3-d temporary
    for j in range(rows.shape[1]):
        b = by[:, j, None]
        r = rows[None, :, j]
        le &= b <= r
        lt |= b < r
    le &= lt
    return np.any(le, axis=0)


def _non_dominated_mask(f: np.ndarray) -> np.ndarray:
    """Boolean mask of entries not strictly dominated by any other entry."""
    return ~_dominated(f, f)


class Archive:
    """Bounded store of mutually non-dominated solutions: `positions` and
    `fitnesses` hold one row per entry."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise BoundsError("archive capacity must be >= 1")
        self.capacity = capacity
        self.positions = np.zeros((0, 0))
        self.fitnesses = np.zeros((0, 0))

    def __len__(self) -> int:
        return len(self.fitnesses)

    def update(self, positions, fitnesses) -> "Archive":
        """Merge candidate rows, drop dominated entries, then prune the most
        crowded entries until back under capacity.  Kept candidate rows are
        copied, so the caller may go on to overwrite `positions`.

        The candidates are first screened against the entries in one
        rectangular pass; only the entries and the survivors go through the
        all-pairs test.  That keeps what the all-pairs test over entries and
        every candidate keeps, in the same order, by transitivity: a row a
        screened-out candidate dominates is dominated by the entry that
        dominates the candidate.  When no candidate survives, the archive
        is left as it is: `positions` and `fitnesses` stay the same arrays."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        fit = np.atleast_2d(np.asarray(fitnesses, dtype=float))
        n_old = len(self)
        if n_old:
            survivors = np.flatnonzero(~_dominated(self.fitnesses, fit))
            if len(survivors) == 0:
                return self
            pool_fit = np.vstack([self.fitnesses, fit[survivors]])
        else:
            survivors = np.arange(len(fit))
            pool_fit = fit
        keep = _non_dominated_mask(pool_fit)
        excess = int(keep.sum()) - self.capacity
        if excess > 0:
            kept = np.flatnonzero(keep)
            cd = crowding_distances(pool_fit[kept])
            keep[kept[np.argsort(cd, kind="stable")[:excess]]] = False
        new_rows = positions[survivors[keep[n_old:]]]
        self.positions = np.vstack([self.positions[keep[:n_old]], new_rows]) if n_old else new_rows
        self.fitnesses = pool_fit[keep]
        return self

    def crowding(self) -> np.ndarray:
        return crowding_distances(self.fitnesses)


def cognitive_pull(V, X, PB, R, C, w_t: float, c1: float) -> np.ndarray:
    """Inertia plus cognitive pull, one row per particle: V becomes
    w_t V + c1 R1 (PB - X), with the uniforms R1 in R.  Updates V in place;
    R and the float block C are consumed as scratch, so R is free for R2
    afterwards."""
    np.subtract(PB, X, out=C)
    R *= C
    R *= c1
    V *= w_t
    V += R
    return V


def social_pull(V, X, R, C, c2: float) -> np.ndarray:
    """Social pull, one row per particle: V becomes V + c2 R2 (G - X), with
    the uniforms R2 in R and the leaders' positions G in C.  Updates V in
    place; R and C are consumed as scratch."""
    C -= X
    R *= C
    R *= c2
    V += R
    return V


def cap_velocity(V, v_max, S: np.ndarray, over: np.ndarray) -> np.ndarray:
    """A component past its cap is negated, then clamped into the cap, which
    is the same as clamping and then multiplying by -1 where it was over
    (multiplying by +-1 is exact).  Updates V in place; the float block S
    and the bool block `over` are consumed as scratch."""
    np.abs(V, out=S)
    np.greater(S, v_max, out=over)
    np.minimum(S, v_max, out=S)
    np.copysign(S, V, out=V)  # V clamped into [-v_max, v_max], signed zeros kept
    _flip_signs(V, over, S)
    return V


def step_position(X, V, bounds: Bounds, S: np.ndarray, viol: np.ndarray,
                  below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move every particle by its velocity.  Where a coordinate leaves the
    box, its velocity component is negated and re-applied (returning to the
    old coordinate), then the result is clamped to the nearest bound.
    Updates X and V in place and returns them; the float block S and the
    bool blocks `viol` and `below` are consumed as scratch."""
    X += V
    np.greater(X, bounds.upper, out=viol)
    np.less(X, bounds.lower, out=below)
    viol |= below
    # S is V where the coordinate left the box and +0.0 elsewhere, so that
    # X - S is X + (-V) there and leaves every other X, -0.0 too, unchanged
    np.multiply(V, viol, out=S)
    S += 0.0
    X -= S
    _flip_signs(V, viol, S)
    np.minimum(X, bounds.upper, out=X)
    np.maximum(X, bounds.lower, out=X)
    return X, V


def _flip_signs(A: np.ndarray, mask: np.ndarray, S: np.ndarray) -> None:
    """Negate A where `mask` holds, by multiplying every entry with 1 or -1;
    S is scratch."""
    np.multiply(mask, -2.0, out=S)
    S += 1.0
    A *= S


def _mutation_delta(t: int, max_iter: int, y: np.ndarray, r: np.ndarray, b: float,
                    classical: bool) -> np.ndarray:
    if classical:
        return y * (1.0 - np.power(r, (1.0 - t / max_iter) ** b))
    return y * (1.0 - r * (t / max_iter) ** b)


def mutate(X, t: int, cfg: MopsoConfig, bounds: Bounds, rng, S: np.ndarray,
           picked: np.ndarray) -> np.ndarray:
    """Non-uniform mutation of a (pop, d) swarm: each coordinate, with
    probability 1/d, jumps toward the upper or lower bound by an
    iteration-shrinking step.  Draws the (pop, d) selection block into the
    float block S, then one direction per selected coordinate, then one
    step, in row-major order.  Updates X in place and returns it; S and the
    bool block `picked` are consumed as scratch."""
    d = X.shape[1]
    rng.random(out=S)
    # the flat indices in row-major order, the order np.nonzero gives, split
    # into (row, column) without its slower 2-D path
    rows, cols = np.divmod(np.flatnonzero(np.less(S, 1.0 / d, out=picked)), d)
    if len(rows) == 0:
        return X
    up = rng.random(len(rows)) < 0.5  # toward UB, else toward LB
    r = rng.random(len(rows))
    lo, hi = bounds.lower[cols], bounds.upper[cols]
    x = X[rows, cols]
    delta = _mutation_delta(t, cfg.max_iter, np.where(up, hi - x, x - lo), r,
                            cfg.mutation_exponent, cfg.classical_mutation)
    X[rows, cols] = np.clip(x + np.where(up, delta, -delta), lo, hi)
    return X


def update_pbests(PB, PBF, X, F, rng) -> None:
    """Per particle, the dominating side of (current, pbest) becomes the
    pbest; on mutual non-dominance a coin decides.  One (pop,) block of
    coins is drawn whether or not a particle needs its coin.  Updates PB
    and PBF in place.

    Both directions come from two reductions over the objectives,
    le = all(F <= PBF) and ge = all(F >= PBF).  On finite rows (`run`
    rejects any other) F dominates PBF iff le and not ge, and PBF dominates
    F iff ge and not le.  So where exactly one of le and ge holds, le names
    the winner; where both hold (equal rows) or neither (incomparable rows),
    the coin decides."""
    coin = rng.random(len(F)) < 0.5
    le = np.all(F <= PBF, axis=1)
    ge = np.all(F >= PBF, axis=1)
    take = np.where(le == ge, coin, le)
    PB[take] = X[take]
    PBF[take] = F[take]


def leader_share(cds: np.ndarray, fraction: float) -> np.ndarray:
    """Archive indices of the least crowded top share (at least one entry),
    largest crowding distance first, ties in archive order."""
    if len(cds) == 0:
        raise BoundsError("cannot select a leader from an empty archive")
    top = max(1, math.ceil(fraction * len(cds)))
    return np.argsort(-cds, kind="stable")[:top]


def _check_finite(fit: np.ndarray, t: int | None) -> None:
    """Rejects non-finite objective rows of iteration t's swarm, or of the
    initial swarm when t is None."""
    if not np.all(np.isfinite(fit)):
        bad = np.flatnonzero(~np.all(np.isfinite(fit), axis=1))
        where = "in the initial swarm" if t is None else f"at iteration {t}"
        raise EvaluationError(
            f"non-finite objective values {where} for particles {bad.tolist()}"
        )


def run(problem, cfg: MopsoConfig) -> Archive:
    """Full optimizer loop; returns the final archive.

    `problem` must expose `bounds` and `evaluate_batch(X) -> (n, M)`, a pure
    function of the positions.
    """
    bounds: Bounds = problem.bounds
    d = bounds.dim
    pop = cfg.pop_size
    rng = np.random.default_rng(cfg.seed)

    # the workspace: every (pop, d) block the steps write, allocated once.
    # X, V and PB are state; R is the one draw block, holding R1 until the
    # cognitive pull is in V and then R2; C is the float scratch (PB - X,
    # then the leaders' positions, then the cap's, position's and mutation's
    # scratch); viol and below are the bool scratch
    X = rng.random((pop, d))
    X *= bounds.upper - bounds.lower
    X += bounds.lower
    V = np.zeros_like(X)
    R, C = (np.empty_like(X) for _ in range(2))
    viol, below = (np.empty(X.shape, dtype=bool) for _ in range(2))

    F = np.asarray(problem.evaluate_batch(X), dtype=float)
    _check_finite(F, t=None)
    PB = X.copy()
    PBF = F.copy()

    archive = Archive(cfg.archive_capacity).update(X, F)
    # the leader share of the archive whose fitnesses are `scored`; an
    # update that changes the archive replaces its fitnesses array
    scored = leaders = None

    w_start, w_end = cfg.inertia
    T = cfg.max_iter
    for t in range(T):
        w_t = w_start if T == 1 else w_start + (w_end - w_start) * (t / (T - 1))
        if archive.fitnesses is not scored:
            scored = archive.fitnesses
            leaders = leader_share(archive.crowding(), cfg.leader_fraction)
        pick = rng.integers(0, len(leaders), size=pop)
        rng.random(out=R)  # R1
        cognitive_pull(V, X, PB, R, C, w_t, cfg.c1)
        rng.random(out=R)  # R2, into R1's block
        # mode="clip" lets take write straight into C; every index is in range
        np.take(archive.positions, leaders[pick], axis=0, out=C, mode="clip")
        social_pull(V, X, R, C, cfg.c2)
        cap_velocity(V, bounds.v_max, C, viol)
        step_position(X, V, bounds, C, viol, below)
        if t < T * cfg.mutation_fraction:
            mutate(X, t, cfg, bounds, rng, C, viol)

        F = np.asarray(problem.evaluate_batch(X), dtype=float)
        _check_finite(F, t)
        archive.update(X, F)
        update_pbests(PB, PBF, X, F, rng)

    return archive
