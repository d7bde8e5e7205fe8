"""Solution encoding and the local/global tuning drivers.

A tuned solution is the triple (k, feature mask, weight matrix).  It flows
one way: `_tune` decodes the chosen position once, by `decode_position` in
the problem's own `SolutionSpace`, into the arrays the swarm scored, which
make the final predictions, and the dict `report.json` carries, whose
`weights_used` stays a float64 array until the report is written.  The swarm
works in a continuous box: one dimension for k, one for the integer-encoded
mask, and one per weight cell; pinned variables (per variant, or where only
one value is possible) are left out of the box entirely.  Local tuning runs
one optimizer per held-out project, global tuning runs a single optimizer
whose fitness is an internal leave-one-out pass over the whole dataset.  Both
kinds of problem decode the swarm with `SolutionSpace.decode` and predict
through one `abe._FoldContext`, and differ only in their first objective: a
local problem's AE, a global problem's -SA.  A local fold scores on the
held-out actual (oracle mode, the published protocol, which leaks the label)
or, when `run_lt` is `honest`, as a global problem over its training set;
either way it predicts on the held-out project's local fold context, as a
global cell predicts on its own problem's.  Every driver selects on the
final archive's objective rows and decodes only the chosen position
(`_tune`).

Seeds are common random numbers on purpose: every global run starts its
swarm from `default_rng(cfg.seed)`, and fold i of every dataset and local
variant from `_fold_seed(cfg.seed, i)`, so the methods of one dataset see
the same draws.  Changing either would move `report.json` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import abe, metrics, mopso, stats
from .data import StandardizedDataset
from .errors import BoundsError


@dataclass(frozen=True)
class VariantConfig:
    """What a method tunes, and whether its solution is shared.

    k is always tuned; the mask and the weights when their flags are set.
    A shared solution is tuned once per dataset (`run_gt`), any other once
    per held-out project (`run_lt`).
    """

    optimize_features: bool = True
    optimize_weights: bool = True
    shared: bool = False


# The tuned methods: method name -> variant, in report order.  Star variants
# pin the mask to all ones, plus variants pin the weights to the equal-weight
# row 1/m.  Each pinned variant searches a subset of the full variant's
# space.  Whether a local variant scores on the held-out actual (oracle) or
# on an inner leave-one-out pass (honest) is the run's choice, not the
# variant's: `run_lt`'s `honest` flag.
VARIANTS = {
    "lt": VariantConfig(),
    "gt": VariantConfig(shared=True),
    "lt_star": VariantConfig(optimize_features=False),
    "gt_star": VariantConfig(optimize_features=False, shared=True),
    "lt_plus": VariantConfig(optimize_weights=False),
    "gt_plus": VariantConfig(optimize_weights=False, shared=True),
}


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

    def weight_buffer(self, size: int) -> np.ndarray:
        """A flat buffer of `size` floats for `decode`'s weight blocks:
        uninitialized when the weights are free, the pinned 1/m rows when
        they are not."""
        if self.variant.optimize_weights:
            return np.empty(size)
        return np.full(size, 1.0 / self.m)

    def decode(self, X: np.ndarray, W: np.ndarray | None = None):
        """Swarm positions, one row per particle -> (K, masks, W) with shapes
        (p,), (p, m) and (p, rows, m).

        W is the (p, rows, m) block the weights go into, a prefix of a
        `weight_buffer` reshaped (a problem's own, reused call after call) or,
        when not given, a fresh one.  Free weights are clamped from the
        position slice straight into W, then normalized in place; pinned
        weights are W as given.  A prefix block has the layout of a fresh
        array, so every reduction sums in the same order."""
        X = np.asarray(X, dtype=float)
        pop = X.shape[0]
        n_rows, m = self.n_rows, self.m
        if W is None:
            W = self.weight_buffer(pop * n_rows * m).reshape(pop, n_rows, m)
        i = 0
        if self.free_k:
            # clamped in place: np.clip's integers without its Python wrapper
            K = np.floor(X[:, i] + 0.5).astype(int)
            np.minimum(K, n_rows, out=K)
            np.maximum(K, 1, out=K)
            i += 1
        else:
            K = np.ones(pop, dtype=int)
        if self.free_mask:
            vint = np.floor(X[:, i] + 0.5).astype(np.int64)
            np.minimum(vint, 2 ** m - 1, out=vint)
            np.maximum(vint, 1, out=vint)
            shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
            masks = ((vint[:, None] >> shifts[None, :]) & 1).astype(float)
            i += 1
        else:
            masks = np.ones((pop, m))
        if self.variant.optimize_weights:
            np.minimum(X[:, i:i + n_rows * m].reshape(pop, n_rows, m), 1.0, out=W)
            np.maximum(W, 0.0, out=W)
            # the row sums as one matrix-vector product, many times faster
            # than a reduction along the short last axis
            sums = (W.reshape(-1, m) @ np.ones(m)).reshape(pop, n_rows, 1)
            zero = sums == 0.0
            if zero.any():
                np.copyto(sums, 1.0, where=zero)
                W /= sums
                np.copyto(W, 1.0 / m, where=zero)
            else:
                W /= sums
        return K, masks, W


def decode_position(x: np.ndarray, space: SolutionSpace) -> tuple:
    """One continuous position -> ((K, masks, W), solution in report form),
    from one `space.decode`.  The arrays are the one-row batch the swarm
    scored, which make the final predictions.  In the solution, k and v
    round half-up then clamp, weight rows clamp to [0,1] and renormalize to
    sum 1 (all-zero -> uniform); pinned weights are uniform 1/m rows.
    `mask` holds the decoded bits, `v` their big-endian value and
    `weights_used` the k rows a prediction reads, as a (k, m) float64 array
    that owns them, so that a kept solution holds neither Python floats nor
    the decode's (n_rows, m) block; `report.json` writes its rows as lists.
    Nothing reads the solution back into arrays."""
    rows = K, masks, W = space.decode(np.reshape(x, (1, -1)))
    k = int(K[0])
    bits = masks[0].astype(int).tolist()
    return rows, {"k": k, "v": int("".join(map(str, bits)), 2), "mask": bits,
                  "n_rows": space.n_rows, "weights_used": W[0, :k].copy()}


def select_from_front(objectives) -> int:
    """The index of the (n, M) objective row with the best average
    per-objective rank.

    Ranks are ascending with average ranks on ties; remaining ties break on
    the first objective value, then on row order.
    """
    objs = np.asarray(objectives, dtype=float)
    if len(objs) == 0:
        raise BoundsError("cannot select from an empty front")
    n, n_obj = objs.shape
    ranks = np.zeros((n, n_obj))
    for j in range(n_obj):
        ranks[:, j] = stats._midranks(objs[:, j])
    avg = ranks.mean(axis=1)
    return min(range(n), key=lambda i: (avg[i], objs[i, 0], i))


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
        self._weights = np.empty(0)

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Objectives of a block of positions.  The weights are decoded into
        a buffer the problem owns, grown on demand and, with pinned weights,
        filled with 1/m once."""
        size = len(X) * self.space.n_rows * self.space.m
        if self._weights.size < size:
            self._weights = self.space.weight_buffer(size)
        W = self._weights[:size].reshape(len(X), self.space.n_rows, self.space.m)
        return self.score(*self.space.decode(X, W))

    def score(self, K, masks, W) -> np.ndarray:
        """(MAE, MBRE, MIBRE) per decoded solution over the folds; over one
        fold these are its (AE, BRE, IBRE)."""
        return metrics.error_means(self.actuals, self.ctx.predict_batch(K, masks, W))


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

    def __init__(self, ds: StandardizedDataset, variant: VariantConfig):
        super().__init__(SolutionSpace(n_rows=ds.n - 1, m=ds.m, variant=variant),
                         (ds.loocv_fold(i)[:2] for i in range(ds.n)), ds.effort_vec)
        self.baseline = metrics.random_guess_baseline(self.actuals)

    def score(self, K, masks, W) -> np.ndarray:
        """(-SA, MBRE, MIBRE) per decoded solution.  SA's baseline is floored
        at EPS_EFFORT so fitness stays finite on a dataset of equal efforts; a
        perfect predictor still scores exactly 1."""
        obj = super().score(K, masks, W)
        obj[:, 0] = -(1.0 - obj[:, 0] / max(self.baseline.mae_p0, abe.EPS_EFFORT))
        return obj


# ---------------------------------------------------------------------------
# tuning drivers
# ---------------------------------------------------------------------------

@dataclass
class TuningResult:
    """One (dataset, method) cell, from the swarm to the report: a prediction
    per project and the chosen solutions in report form, one per project
    (local tuning) or a single shared one (global tuning, ABE0's k scan)."""

    predictions: np.ndarray
    solutions: list
    mode: str


def _fold_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """The swarm seed of fold `index`: a child of the base seed's sequence,
    distinct for every (base seed, fold) pair."""
    return np.random.SeedSequence(int(base_seed), spawn_key=(index,))


def _tune(problem, cfg: mopso.MopsoConfig) -> tuple:
    """The position `select_from_front` picks from the swarm's final
    archive, as `decode_position` gives it in the problem's own space:
    ((K, masks, W), report form).  A box with no free dimension decodes its
    one point."""
    x = np.zeros(0)
    if problem.bounds.dim:
        archive = mopso.run(problem, cfg)
        x = archive.positions[select_from_front(archive.fitnesses)]
    return decode_position(x, problem.space)


def lt_fold(ds: StandardizedDataset, variant: VariantConfig, cfg: mopso.MopsoConfig,
            honest: bool, i: int) -> tuple:
    """The fold task of `run_lt`: project index i -> (the held-out
    project's prediction, its solution in report form).  The held-out
    project's `LocalProblem` is built once: oracle mode tunes it, honest
    mode a `GlobalProblem` over the training set, and either way the chosen
    solution is predicted on its fold context by `abe.predict_adapted`."""
    train, target_row, actual = ds.loocv_fold(i)
    target = LocalProblem(train, target_row, actual, variant)
    problem = GlobalProblem(train, variant) if honest else target
    rows, sol = _tune(problem, replace(cfg, seed=_fold_seed(cfg.seed, i)))
    return abe.predict_adapted(target.ctx, *rows), sol


def run_lt(ds: StandardizedDataset, variant: VariantConfig, cfg: mopso.MopsoConfig,
           honest: bool = False, fold_map=map) -> TuningResult:
    """One optimizer run per held-out project, each seeded by `_fold_seed`
    from the base seed and the project index, so neither fold order nor the
    worker a fold runs on matters.  The folds, `lt_fold` over the project
    indices, go through `fold_map`, which must behave like the builtin `map`
    (a process pool's `map` does)."""
    preds, sols = zip(*fold_map(partial(lt_fold, ds, variant, cfg, honest), range(ds.n)))
    return TuningResult(predictions=np.array(preds), solutions=list(sols),
                        mode="local_honest" if honest else "local_oracle")


def run_gt(ds: StandardizedDataset, variant: VariantConfig, cfg: mopso.MopsoConfig) -> TuningResult:
    """One optimizer run per dataset; the chosen shared solution is then
    applied to every project under leave-one-out, by the arithmetic that
    scored it, to produce predictions."""
    problem = GlobalProblem(ds, variant)
    rows, sol = _tune(problem, cfg)
    preds = problem.ctx.predict_batch(*rows)[0]
    return TuningResult(predictions=preds, solutions=[sol], mode="global")


def best_k_abe0(ds: StandardizedDataset) -> tuple[int, np.ndarray]:
    """Scan k = 1..n-1 and keep the k with the lowest leave-one-out MAE
    (smallest k on ties); returns (k, its predictions)."""
    n = ds.n
    if n < 3:
        raise BoundsError("need at least 3 projects")
    ctx = abe._FoldContext(ds.loocv_fold(i)[:2] for i in range(n))
    # fold x k, C-ordered: mean(axis=0) then adds the folds one by one, so
    # the k scan does not depend on the context's layout (a transposed view
    # would sum pairwise and change the MAE bits)
    preds = np.cumsum(ctx.efforts, axis=0).T.copy() / np.arange(1, n)
    mae_per_k = np.abs(preds - ds.effort_vec[:, None]).mean(axis=0)
    best = int(np.argmin(mae_per_k))  # first minimum = smallest k
    return best + 1, preds[:, best]
