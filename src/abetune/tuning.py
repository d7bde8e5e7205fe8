"""Solution encoding and the local/global tuning drivers.

A tuned solution is the triple (k, feature mask, weight matrix).  The swarm
works in a continuous box: one dimension for k, one for the integer-encoded
mask, and one per weight cell; pinned variables (per variant, or where only
one value is possible) are left out of the box entirely.  Local tuning runs
one optimizer per held-out project, global tuning runs a single optimizer
whose fitness is an internal leave-one-out pass over the whole dataset.  Both
kinds of problem decode the swarm with `SolutionSpace.decode` and predict
through one `abe._FoldContext`: one fold for a local problem, n for a global
one (and for the honest local mode's inner pass).  They differ only in their
first objective: a local problem's AE, a global problem's -SA.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import abe, metrics, mopso, stats
from .data import StandardizedDataset
from .errors import BoundsError


@dataclass(frozen=True)
class SolutionVector:
    """Decision triple: analogy count, feature mask, rank-by-feature weights.

    `weights` has one row per retrievable rank; only rows 1..k are consumed.
    Decoded solutions always carry rows summing to 1: optimized rows are
    clamped and normalized, and variants that pin the weights use the
    equal-weight row 1/m, the point every constant row decodes to.
    """

    k: int
    mask: abe.FeatureMask
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.k < 1:
            raise BoundsError(f"k must be >= 1, got {self.k}")
        if w.ndim != 2 or w.shape[1] != len(self.mask.bits):
            raise BoundsError("weights must be (rows, m) with m matching the mask")
        if w.shape[0] < self.k:
            raise BoundsError(f"need at least k={self.k} weight rows, got {w.shape[0]}")

    @property
    def mask_int(self) -> int:
        v = 0
        for b in self.mask.bits:
            v = (v << 1) | int(b)
        return v


@dataclass(frozen=True)
class VariantConfig:
    """Which decision variables the optimizer may move, and the tuning mode.

    k is always tuned.  mode: "local_oracle" scores a candidate on the
    held-out project's actual effort (reproduces the published protocol,
    which leaks the label); "local_honest" scores on an internal
    leave-one-out pass over the fold's training set; "global" tunes one
    shared solution per dataset.
    """

    optimize_features: bool = True
    optimize_weights: bool = True
    mode: str = "local_oracle"

    def __post_init__(self):
        if self.mode not in ("local_oracle", "local_honest", "global"):
            raise BoundsError(f"unknown mode {self.mode!r}")


# Method name -> variant.  Star variants pin the mask to all ones, plus
# variants pin the weights to the equal-weight row 1/m, the k-only scan pins
# both.  Each pinned variant searches a subset of the full variant's space.
# Local variants run the oracle objective; replace their mode with
# "local_honest" for the leakage-free one.
VARIANTS = {
    "lt": VariantConfig(),
    "gt": VariantConfig(mode="global"),
    "lt_star": VariantConfig(optimize_features=False),
    "gt_star": VariantConfig(optimize_features=False, mode="global"),
    "lt_plus": VariantConfig(optimize_weights=False),
    "gt_plus": VariantConfig(optimize_weights=False, mode="global"),
    "k_only": VariantConfig(optimize_features=False, optimize_weights=False),
}


def decode_mask(v: int, m: int) -> abe.FeatureMask:
    """m-bit big-endian expansion of v; the leftmost bit is feature 0."""
    if not 1 <= v <= 2 ** m - 1:
        raise BoundsError(f"v={v} outside 1..2^{m}-1")
    bits = tuple((v >> (m - 1 - j)) & 1 for j in range(m))
    return abe.FeatureMask(bits=bits)


@dataclass(frozen=True)
class SolutionSpace:
    """Continuous-box layout for one tuning problem: a k dimension, a mask
    dimension and the weight cells, each only when it is free.  k is free
    when there is more than one weight row, the mask when the variant tunes
    it and there is more than one feature; a pinned k is 1 and a pinned mask
    all ones, the only values left then."""

    n_rows: int  # weight rows == max analogy count
    m: int
    variant: VariantConfig

    @property
    def free_k(self) -> bool:
        return self.n_rows > 1

    @property
    def free_mask(self) -> bool:
        return self.variant.optimize_features and self.m > 1

    def bounds(self) -> mopso.Bounds:
        lower, upper = [], []
        if self.free_k:
            lower.append(1.0)
            upper.append(float(self.n_rows))
        if self.free_mask:
            lower.append(1.0)
            upper.append(float(2 ** self.m - 1))
        if self.variant.optimize_weights:
            lower.extend([0.0] * (self.n_rows * self.m))
            upper.extend([1.0] * (self.n_rows * self.m))
        return mopso.Bounds(lower=np.array(lower), upper=np.array(upper))

    def decode(self, X: np.ndarray):
        """Swarm positions, one row per particle -> (K, masks, W) with shapes
        (p,), (p, m) and (p, rows, m)."""
        X = np.asarray(X, dtype=float)
        pop = X.shape[0]
        n_rows, m = self.n_rows, self.m
        i = 0
        if self.free_k:
            K = np.clip(np.floor(X[:, i] + 0.5).astype(int), 1, n_rows)
            i += 1
        else:
            K = np.ones(pop, dtype=int)
        if self.free_mask:
            vint = np.clip(np.floor(X[:, i] + 0.5).astype(np.int64), 1, 2 ** m - 1)
            shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
            masks = ((vint[:, None] >> shifts[None, :]) & 1).astype(float)
            i += 1
        else:
            masks = np.ones((pop, m))
        if self.variant.optimize_weights:
            W = X[:, i:i + n_rows * m].reshape(pop, n_rows, m).copy()
            np.minimum(W, 1.0, out=W)
            np.maximum(W, 0.0, out=W)
            sums = W.sum(axis=2, keepdims=True)
            zero = sums == 0.0
            if zero.any():
                np.copyto(sums, 1.0, where=zero)
                W /= sums
                np.copyto(W, 1.0 / m, where=zero)
            else:
                W /= sums
        else:
            W = np.full((pop, n_rows, m), 1.0 / m)
        return K, masks, W


def decode_position(x: np.ndarray, n_rows: int, m: int, variant: VariantConfig) -> SolutionVector:
    """Continuous position -> solution: k and v round half-up then clamp,
    weight rows clamp to [0,1] and renormalize to sum 1 (all-zero -> uniform).
    Pinned weights are uniform 1/m rows."""
    space = SolutionSpace(n_rows=n_rows, m=m, variant=variant)
    K, masks, W = space.decode(np.asarray(x, dtype=float)[None, :])
    bits = tuple(masks[0].astype(int).tolist())
    return SolutionVector(k=int(K[0]), mask=abe.FeatureMask(bits=bits), weights=W[0])


def _solution_rows(sol: SolutionVector, n_rows: int):
    """A solution as a one-row decoded batch (K, masks, W) for a problem
    that retrieves up to n_rows analogies."""
    if sol.k > n_rows:
        raise BoundsError(f"k={sol.k} out of range 1..{n_rows}")
    return np.array([sol.k]), sol.mask.as_array()[None, :], sol.weights[None, :, :]


def lt_objectives(train: StandardizedDataset, target_row: np.ndarray, target_actual: float,
                  sol: SolutionVector) -> np.ndarray:
    """(AE, BRE, IBRE) of the single adapted prediction, all minimized."""
    problem = LocalProblem(train, target_row, target_actual, VARIANTS["lt"])
    return problem.score(*_solution_rows(sol, problem.space.n_rows))[0]


def _sa_for_optimization(mae, mae_p0: float):
    """SA with the degenerate zero baseline floored so fitness stays finite;
    a perfect predictor still scores exactly 1."""
    return 1.0 - mae / max(mae_p0, abe.EPS_EFFORT)


def gt_objectives(ds: StandardizedDataset, sol: SolutionVector,
                  baseline: metrics.RandomGuessBaseline | None = None) -> np.ndarray:
    """(-SA, MBRE, MIBRE) from an internal leave-one-out pass over `ds`."""
    problem = GlobalProblem(ds, VARIANTS["gt"], baseline)
    return problem.score(*_solution_rows(sol, problem.space.n_rows))[0]


def select_from_front(front: Sequence[tuple]) -> tuple:
    """Pick the entry with the best average per-objective rank.

    Ranks are ascending with average ranks on ties; remaining ties break on
    the first objective value, then on front order.
    """
    if len(front) == 0:
        raise BoundsError("cannot select from an empty front")
    objs = np.array([np.asarray(o, dtype=float) for _, o in front])
    n, n_obj = objs.shape
    ranks = np.zeros((n, n_obj))
    for j in range(n_obj):
        ranks[:, j] = stats._midranks(objs[:, j])
    avg = ranks.mean(axis=1)
    order = sorted(range(n), key=lambda i: (avg[i], objs[i, 0], i))
    return front[order[0]]


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------

class _Problem:
    """Decoded swarm positions scored against the actual efforts of a stack
    of folds."""

    def __init__(self, space: SolutionSpace, folds, actuals):
        self.space = space
        self.bounds = space.bounds()
        self.ctx = abe._FoldContext(folds)
        self.actuals = np.asarray(actuals, dtype=float)

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return self.score(*self.space.decode(X))

    def score(self, K, masks, W) -> np.ndarray:
        """(MAE, MBRE, MIBRE) per decoded solution over the folds; over one
        fold these are its (AE, BRE, IBRE)."""
        pred = self.ctx.predict_batch(K, masks, W)  # (p, f)
        act = self.actuals[None, :]
        ae = np.abs(act - pred)
        errors = np.stack([ae, ae / np.minimum(act, pred), ae / np.maximum(act, pred)], axis=1)
        return errors.sum(axis=2) / pred.shape[1]  # one reduction for all three means

    def decode(self, x: np.ndarray) -> SolutionVector:
        return decode_position(x, self.space.n_rows, self.space.m, self.space.variant)


class LocalProblem(_Problem):
    """Single held-out project scored on (AE, BRE, IBRE) with its actual."""

    def __init__(self, train: StandardizedDataset, target_row: np.ndarray,
                 target_actual: float, variant: VariantConfig):
        super().__init__(SolutionSpace(n_rows=train.n, m=train.m, variant=variant),
                         [(train, target_row)], [target_actual])


class GlobalProblem(_Problem):
    """Shared solution scored on (-SA, MBRE, MIBRE) over an internal
    leave-one-out pass, one fold per project of `ds`; also used fold-internally
    by the honest local mode."""

    def __init__(self, ds: StandardizedDataset, variant: VariantConfig,
                 baseline: metrics.RandomGuessBaseline | None = None):
        super().__init__(SolutionSpace(n_rows=ds.n - 1, m=ds.m, variant=variant),
                         (ds.loocv_fold(i)[:2] for i in range(ds.n)), ds.efforts())
        self.baseline = baseline or metrics.random_guess_baseline(self.actuals)

    def score(self, K, masks, W) -> np.ndarray:
        """(-SA, MBRE, MIBRE) per decoded solution."""
        obj = super().score(K, masks, W)
        obj[:, 0] = -_sa_for_optimization(obj[:, 0], self.baseline.mae_p0)
        return obj


# ---------------------------------------------------------------------------
# tuning drivers
# ---------------------------------------------------------------------------

@dataclass
class TuningResult:
    """One (dataset, method) cell, from the swarm to the report: a prediction
    per project and the chosen solutions, one per project (local tuning) or
    a single shared one (global tuning, ABE0's k scan).  `harness.run_method`
    turns the solutions into their report form."""

    predictions: np.ndarray
    solutions: list
    mode: str


def _fold_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """The swarm seed of fold `index`: a child of the base seed's sequence,
    distinct for every (base seed, fold) pair."""
    return np.random.SeedSequence(int(base_seed), spawn_key=(index,))


def _front(problem, cfg: mopso.MopsoConfig) -> list:
    """(solution, objectives) pairs of the swarm's final archive.  A box with
    no free dimension holds one solution, which is then the whole front."""
    if problem.bounds.dim == 0:
        X = np.zeros((1, 0))
        return [(problem.decode(X[0]), problem.evaluate_batch(X)[0])]
    archive = mopso.run(problem, cfg)
    return [(problem.decode(pos), fit.copy())
            for pos, fit in zip(archive.positions, archive.fitnesses)]


def _run_lt_fold(ds: StandardizedDataset, variant: VariantConfig, cfg: mopso.MopsoConfig,
                 i: int) -> tuple:
    train, target_row, actual = ds.loocv_fold(i)
    if variant.mode == "local_oracle":
        problem = LocalProblem(train, target_row, actual, variant)
    else:
        problem = GlobalProblem(train, variant)
    sol, _ = select_from_front(_front(problem, replace(cfg, seed=_fold_seed(cfg.seed, i))))
    return abe.predict_adapted(train, target_row, sol), sol


def run_lt(ds: StandardizedDataset, variant: VariantConfig, cfg: mopso.MopsoConfig,
           fold_map=map) -> TuningResult:
    """One optimizer run per held-out project, each seeded by `_fold_seed`
    from the base seed and the project index, so neither fold order nor the
    worker a fold runs on matters.  The folds go through `fold_map`, which
    must behave like the builtin `map` (a process pool's `map` does); the
    held-out project is predicted by `abe.predict_adapted`."""
    if variant.mode not in ("local_oracle", "local_honest"):
        raise BoundsError("run_lt requires a local mode")
    preds, sols = zip(*fold_map(partial(_run_lt_fold, ds, variant, cfg), range(ds.n)))
    return TuningResult(predictions=np.array(preds), solutions=list(sols), mode=variant.mode)


def run_gt(ds: StandardizedDataset, variant: VariantConfig, cfg: mopso.MopsoConfig) -> TuningResult:
    """One optimizer run per dataset; the chosen shared solution is then
    applied to every project under leave-one-out, by the arithmetic that
    scored it, to produce predictions."""
    if variant.mode != "global":
        raise BoundsError("run_gt requires the global mode")
    problem = GlobalProblem(ds, variant)
    front = _front(problem, cfg)
    sol, _ = select_from_front(front)
    preds = problem.ctx.predict_batch(*_solution_rows(sol, problem.space.n_rows))[0]
    return TuningResult(predictions=preds, solutions=[sol], mode="global")


def best_k_abe0(ds: StandardizedDataset) -> tuple[int, np.ndarray]:
    """Scan k = 1..n-1 and keep the k with the lowest leave-one-out MAE
    (smallest k on ties); returns (k, its predictions)."""
    n = ds.n
    if n < 3:
        raise BoundsError("need at least 3 projects")
    ctx = abe._FoldContext(ds.loocv_fold(i)[:2] for i in range(n))
    preds = np.cumsum(ctx.efforts, axis=1) / np.arange(1, n)  # fold x k
    mae_per_k = np.abs(preds - ds.efforts()[:, None]).mean(axis=0)
    best = int(np.argmin(mae_per_k))  # first minimum = smallest k
    return best + 1, preds[:, best]
