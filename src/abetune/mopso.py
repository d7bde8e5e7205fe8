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
operators below: `leader_share`, `swarm_draws`, `step_velocity`,
`step_position`, `mutate` and `update_pbests`.  Every stochastic draw comes
from a per-particle substream derived from the run seed, so results are
bit-identical no matter how fitness evaluations are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoundsError, EvaluationError


@dataclass(frozen=True)
class Bounds:
    lower: np.ndarray
    upper: np.ndarray
    v_max: np.ndarray | None = None  # per-dimension cap; v_min is -v_max

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise BoundsError("lower/upper must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise BoundsError("every lower bound must be strictly below its upper bound")
        vm = self.v_max
        if vm is None:
            vm = 0.25 * (hi - lo)
        else:
            vm = np.asarray(vm, dtype=float)
            if vm.shape != lo.shape or not np.all(vm > 0):
                raise BoundsError("v_max must be positive and match the box shape")
        object.__setattr__(self, "v_max", vm)

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
    seed: int = 0
    classical_mutation: bool = False  # textbook non-uniform decay instead of the printed rule

    def __post_init__(self):
        if self.pop_size < 2:
            raise BoundsError("pop_size must be >= 2")
        if self.max_iter < 1:
            raise BoundsError("max_iter must be >= 1")
        if not 0.0 <= self.mutation_fraction <= 1.0:
            raise BoundsError("mutation_fraction must lie in [0, 1]")


def dominates(a, b):
    """Row-wise: a is no worse than b in every objective and strictly better
    in one.  Rows of two (pop, M) arrays give a (pop,) mask; two vectors
    give one bool."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise BoundsError("objective vectors differ in length")
    out = np.all(a <= b, axis=-1) & np.any(a < b, axis=-1)
    return bool(out) if out.ndim == 0 else out


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


def _non_dominated_mask(f: np.ndarray) -> np.ndarray:
    """Boolean mask of entries not strictly dominated by any other entry."""
    n = f.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    # accumulate pairwise <=/< per objective to avoid a 3-d temporary
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for j in range(f.shape[1]):
        col = f[:, j]
        le &= col[:, None] <= col[None, :]
        lt |= col[:, None] < col[None, :]
    dominated = np.any(le & lt, axis=0)
    return ~dominated


class Archive:
    """Bounded store of mutually non-dominated (position, fitness) pairs."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise BoundsError("archive capacity must be >= 1")
        self.capacity = capacity
        self.positions: list[np.ndarray] = []
        self.fitnesses = np.zeros((0, 0))

    def __len__(self) -> int:
        return len(self.positions)

    def update(self, positions: Sequence[np.ndarray], fitnesses) -> "Archive":
        """Merge candidates, drop dominated entries, then prune the most
        crowded entries until back under capacity."""
        new_f = np.atleast_2d(np.asarray(fitnesses, dtype=float))
        if len(self.positions) == 0:
            pool_pos = list(positions)
            pool_fit = new_f
        else:
            pool_pos = self.positions + list(positions)
            pool_fit = np.vstack([self.fitnesses, new_f])
        keep = _non_dominated_mask(pool_fit)
        self.positions = [pool_pos[i] for i in np.flatnonzero(keep)]
        self.fitnesses = pool_fit[keep]
        excess = len(self.positions) - self.capacity
        if excess > 0:
            cd = crowding_distances(self.fitnesses)
            drop = set(np.argsort(cd, kind="stable")[:excess].tolist())
            keep_idx = [i for i in range(len(self.positions)) if i not in drop]
            self.positions = [self.positions[i] for i in keep_idx]
            self.fitnesses = self.fitnesses[keep_idx]
        return self

    def crowding(self) -> np.ndarray:
        return crowding_distances(self.fitnesses)


def swarm_draws(rngs, n_leaders: int, d: int):
    """One step's draws, each particle from its own stream and in this order:
    its leader's index within the leader share, then its R1 and R2 rows."""
    pop = len(rngs)
    pick = np.empty(pop, dtype=int)
    R1 = np.empty((pop, d))
    R2 = np.empty((pop, d))
    for j, rng in enumerate(rngs):
        pick[j] = rng.integers(0, n_leaders)
        R1[j] = rng.random(d)
        R2[j] = rng.random(d)
    return pick, R1, R2


def step_velocity(V, X, PB, G, R1, R2, w_t: float, c1: float, c2: float, v_max) -> np.ndarray:
    """Inertia plus cognitive and social pull, one row per particle, with
    the uniforms R1 and R2 (consumed as scratch).  A component past its cap
    is negated, then clamped into the cap.  Updates V in place."""
    R1 *= PB - X
    R1 *= c1
    R2 *= G - X
    R2 *= c2
    V *= w_t
    V += R1
    V += R2
    over = (V > v_max) | (V < -v_max)
    V[over] *= -1.0
    np.minimum(V, v_max, out=V)
    np.maximum(V, -v_max, out=V)
    return V


def step_position(X, V, bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    """Move every particle by its velocity.  Where a coordinate leaves the
    box, its velocity component is negated and re-applied (returning to the
    old coordinate), then the result is clamped to the nearest bound.
    Returns the new positions and V, which is updated in place."""
    X = X + V
    viol = (X > bounds.upper) | (X < bounds.lower)
    V[viol] *= -1.0
    X[viol] += V[viol]
    np.minimum(X, bounds.upper, out=X)
    np.maximum(X, bounds.lower, out=X)
    return X, V


def _mutation_delta(t: int, max_iter: int, y: np.ndarray, r: np.ndarray, b: float,
                    classical: bool) -> np.ndarray:
    if classical:
        return y * (1.0 - np.power(r, (1.0 - t / max_iter) ** b))
    return y * (1.0 - r * (t / max_iter) ** b)


def mutate(position, t: int, cfg: MopsoConfig, bounds: Bounds, rng) -> np.ndarray:
    """Non-uniform mutation: each dimension, with probability 1/D, jumps
    toward the upper or lower bound by an iteration-shrinking step."""
    d = len(position)
    selected = np.flatnonzero(rng.random(d) < 1.0 / d)
    x = position.copy()
    if len(selected) == 0:
        return x
    direction = rng.integers(0, 2, size=len(selected))  # 0 -> toward UB, 1 -> toward LB
    r = rng.random(len(selected))
    headroom = np.where(direction == 0,
                        bounds.upper[selected] - x[selected],
                        x[selected] - bounds.lower[selected])
    delta = _mutation_delta(t, cfg.max_iter, headroom, r,
                            cfg.mutation_exponent, cfg.classical_mutation)
    x[selected] += np.where(direction == 0, delta, -delta)
    x[selected] = np.clip(x[selected], bounds.lower[selected], bounds.upper[selected])
    return x


def update_pbests(PB, PBF, X, F, rngs) -> None:
    """Per particle, the dominating side of (current, pbest) becomes the
    pbest; on mutual non-dominance the particle's own coin decides.  Updates
    PB and PBF in place."""
    cur_dom = dominates(F, PBF)
    pb_dom = dominates(PBF, F)
    for j, rng in enumerate(rngs):
        if cur_dom[j] or (not pb_dom[j] and rng.integers(0, 2)):
            PB[j] = X[j]
            PBF[j] = F[j]


def leader_share(cds: np.ndarray, fraction: float) -> np.ndarray:
    """Archive indices of the least crowded top share (at least one entry),
    largest crowding distance first, ties in archive order."""
    if len(cds) == 0:
        raise BoundsError("cannot select a leader from an empty archive")
    top = max(1, math.ceil(fraction * len(cds)))
    return np.argsort(-cds, kind="stable")[:top]


def _check_finite(fit: np.ndarray, t: int) -> None:
    if not np.all(np.isfinite(fit)):
        bad = np.flatnonzero(~np.all(np.isfinite(fit), axis=1))
        raise EvaluationError(
            f"non-finite objective values at iteration {t} for particles {bad.tolist()}"
        )


def run(problem, cfg: MopsoConfig) -> Archive:
    """Full optimizer loop; returns the final archive.

    `problem` must expose `bounds` and `evaluate_batch(X) -> (n, M)`, a pure
    function of the positions.
    """
    bounds: Bounds = problem.bounds
    d = bounds.dim
    pop = cfg.pop_size
    rngs = [np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(j,)))
            for j in range(pop)]

    lb, ub = bounds.lower, bounds.upper
    X = np.stack([lb + rngs[j].random(d) * (ub - lb) for j in range(pop)])
    V = np.zeros_like(X)
    F = np.asarray(problem.evaluate_batch(X), dtype=float)
    _check_finite(F, t=-1)
    PB = X.copy()
    PBF = F.copy()

    archive = Archive(cfg.archive_capacity)
    archive.update([X[j].copy() for j in range(pop)], F)

    w_start, w_end = cfg.inertia
    T = cfg.max_iter
    for t in range(T):
        w_t = w_start if T == 1 else w_start + (w_end - w_start) * (t / (T - 1))
        leaders = leader_share(archive.crowding(), cfg.leader_fraction)
        pick, R1, R2 = swarm_draws(rngs, len(leaders), d)
        G = np.stack([archive.positions[int(leaders[i])] for i in pick])
        step_velocity(V, X, PB, G, R1, R2, w_t, cfg.c1, cfg.c2, bounds.v_max)
        X, V = step_position(X, V, bounds)
        if t < T * cfg.mutation_fraction:
            for j in range(pop):
                X[j] = mutate(X[j], t, cfg, bounds, rngs[j])

        F = np.asarray(problem.evaluate_batch(X), dtype=float)
        _check_finite(F, t)
        archive.update([X[j].copy() for j in range(pop)], F)
        update_pbests(PB, PBF, X, F, rngs)

    return archive
