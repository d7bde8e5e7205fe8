"""Scalar reference implementations the tests compare the batched code with.

Each function here works one solution or one project at a time in plain
Python, independently of the array kernels in `abetune`.  The estimator is
written out from its definition: analogies sorted by (distance, index), each
effort adjusted by its rank's weighted masked differences divided by m, then
aggregated with the ordered weights 2^(k-r) / (2^k - 1).  Solutions are the
report-form dicts the program carries, `weights_used` a (k, m) float64
array; the error measures use `math` alone.  `numeric_std` and `solution`
build the small tables and solutions the tests hand to both sides,
`solution_arrays` turns such a solution into the decoded arrays the kernel
reads, and `assert_same_solution` compares two of them exactly.

`whole_block_predict` is the adaptation kernel as one block over every
rank, without rank chunks; the chunked `predict_batch` must keep its bits.

`local_optimum` is the exact yardstick of local tuning: the least of each
objective over every solution a local variant can decode to, per fold.

`sampled_baseline` is the one-shot NumPy expression of the sampled
random-guess baseline, whose bits the streamed `metrics` version keeps.

`reference_run` is the swarm loop written with boolean-mask indexing and a
fresh array per operation; the allocation-free `mopso.run` must match it
byte for byte.  `dominates` is Pareto dominance written out, and the
package has no copy of it.  The loop's archive merge (`reference_merge`)
tests every candidate against every row with `non_dominated`, and its pbest
rule (`reference_pbests`) calls `dominates` once per direction, so neither
shares the screen or the paired reductions of `mopso`.  It recomputes the
leader share every step, so a share `mopso.run` keeps past a change to the
archive shows as different bytes.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from abetune import mopso
from abetune.abe import EPS_EFFORT
from abetune.data import load_dataset
from abetune.errors import BoundsError
from abetune.tuning import SolutionSpace


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def mask_bits(v: int, m: int) -> list:
    """m-bit big-endian expansion of v; the leftmost bit is feature 0."""
    return [(v >> (m - 1 - j)) & 1 for j in range(m)]


def solution(k: int, bits, weights) -> dict:
    """The report form of (k, mask bits, weight rows): `v` folds the bits
    big-endian and `weights_used` keeps the first k rows, as a float64
    array of its own."""
    v = 0
    for b in bits:
        v = 2 * v + int(b)
    w = np.asarray(weights, dtype=float)
    return {"k": k, "v": v, "mask": [int(b) for b in bits], "n_rows": len(w),
            "weights_used": w[:k].copy()}


def assert_same_solution(got: dict, want: dict) -> None:
    """Two report-form solutions are the same: the same keys, each value of
    the same type and equal, and `weights_used` arrays of the same shape and
    dtype with equal entries.  No tolerance: a solution's bits are what
    `report.json` writes."""
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        if key == "weights_used":
            assert (got[key].shape, got[key].dtype) == (value.shape, value.dtype)
            assert np.array_equal(got[key], value)
        else:
            assert got[key] == value, key


def solution_arrays(sol: dict) -> tuple:
    """A solution in report form as the one-row decoded batch (K, masks, W)
    of shapes (1,), (1, m) and (1, k, m)."""
    return (np.array([sol["k"]]), np.array([sol["mask"]], dtype=float),
            np.array([sol["weights_used"]], dtype=float))


def numeric_std(rows, efforts):
    """Raw numeric rows and their efforts, loaded by `data.load_dataset` from
    a CSV of `repr` floats, which read back exactly."""
    header = [f"f{j}" for j in range(len(rows[0]))] + ["effort"]
    lines = [header] + [[repr(float(v)) for v in (*row, e)] for row, e in zip(rows, efforts)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
        return load_dataset(path, name="dataset")


def scalar_decode(x, n_rows: int, m: int, variant) -> tuple:
    """Position -> (k, mask bits, every weight row), one dimension at a time
    in box order; `solution` turns the triple into the report form."""
    space = SolutionSpace(n_rows=n_rows, m=m, variant=variant)
    x = [float(v) for v in x]
    k = 1
    if space.free_k:
        k = min(max(_round_half_up(x.pop(0)), 1), n_rows)
    bits = [1] * m
    if space.free_mask:
        bits = mask_bits(min(max(_round_half_up(x.pop(0)), 1), 2 ** m - 1), m)
    w = np.full((n_rows, m), 1.0 / m)
    if variant.optimize_weights:
        for r in range(n_rows):
            row = [min(max(v, 0.0), 1.0) for v in x[r * m:(r + 1) * m]]
            total = np.sum(row)
            w[r] = np.array(row) / total if total > 0 else 1.0 / m
    return k, bits, w


def encode_position(sol: dict, space: SolutionSpace) -> np.ndarray:
    """Solution -> position in the space's box; inverse of decoding up to the
    weight-row renormalization.  The rows past k, which the solution does
    not hold, are set to 1/m."""
    parts = []
    if space.free_k:
        parts.append(float(sol["k"]))
    if space.free_mask:
        parts.append(float(sol["v"]))
    if space.variant.optimize_weights:
        rows = np.full((space.n_rows, space.m), 1.0 / space.m)
        rows[:sol["k"]] = sol["weights_used"]
        parts.extend(rows.ravel().tolist())
    return np.array(parts)


def nearest(train, target_row, k: int) -> list:
    """Indices of the k nearest training projects by (distance, index); a
    categorical mismatch counts 1."""
    cat, target = train.categorical_mask.tolist(), target_row.tolist()
    d = [math.sqrt(math.fsum(float(a != b) if c else (a - b) ** 2
                             for a, b, c in zip(target, row, cat)))
         for row in train.matrix.tolist()]
    return sorted(range(len(d)), key=lambda i: (d[i], i))[:k]


def owm_weights(k: int) -> list:
    """Rank r of k gets 2^(k-r) / (2^k - 1)."""
    return [2.0 ** (k - r) / (2.0 ** k - 1) for r in range(1, k + 1)]


def whole_block_predict(ctx, K, masks, W) -> np.ndarray:
    """`abe._FoldContext.predict_batch` as one (kmax, p, f) block of
    adapted efforts over every rank of every solution, in fresh arrays:
    masked weights, one matmul per rank, /m, +efforts, xOWM (0 past each
    k), then the sum over ranks and the floor.  The chunked kernel must keep
    its bits."""
    kmax = int(K.max())
    m = ctx.diffs.shape[1]
    wv = W[:, :kmax, :].transpose(1, 0, 2) * masks[None, :, :]
    adapted = np.matmul(wv, ctx.diffs[:kmax])
    adapted /= m
    adapted += ctx.efforts[:kmax, None, :]
    adapted *= ctx.owm[K - 1, :kmax].T[:, :, None]
    return np.maximum(adapted.sum(axis=0), EPS_EFFORT)


def mean(efforts) -> float:
    return math.fsum(efforts) / len(efforts)


def irwm(efforts) -> float:
    """Inverse ranked weighted mean: rank r of k gets weight k + 1 - r."""
    k = len(efforts)
    return math.fsum((k - i) * e for i, e in enumerate(efforts)) / (k * (k + 1) / 2)


def abe0(train, target_row, k: int) -> float:
    """Mean effort of the k nearest analogies."""
    return mean([float(train.effort_vec[i]) for i in nearest(train, target_row, k)])


def predict(train, target_row, sol: dict) -> float:
    """The k nearest analogies adapted, aggregated and floored."""
    adapted = []
    for w, i in zip(sol["weights_used"], nearest(train, target_row, sol["k"])):
        shift = math.fsum(wj * bit * (t - a) for wj, bit, t, a, c in zip(
            w, sol["mask"], target_row.tolist(), train.matrix[i].tolist(),
            train.categorical_mask) if not c)
        adapted.append(float(train.effort_vec[i]) + shift / train.m)
    return max(math.fsum(w * e for w, e in zip(owm_weights(sol["k"]), adapted)), EPS_EFFORT)


def errors(actual: float, predicted: float) -> tuple:
    """(AE, BRE, IBRE) of one prediction: AE on the raw prediction, BRE and
    IBRE on the prediction floored at EPS_EFFORT."""
    p = max(float(predicted), EPS_EFFORT)
    ae = abs(actual - predicted)
    d = abs(actual - p)
    return ae, d / min(actual, p), d / max(actual, p)


def error_means(actuals, predictions) -> tuple:
    """(MAE, MBRE, MIBRE), each a correctly rounded sum over the projects
    divided by their count."""
    per_project = [errors(float(a), float(p)) for a, p in zip(actuals, predictions)]
    return tuple(math.fsum(col) / len(per_project) for col in zip(*per_project))


def _reachable_masks(m: int, variant) -> list:
    """The masks `local_optimum` enumerates: all ones when the mask is pinned
    (or m = 1); with free weights all ones and the m masks that drop one
    feature, whose reach holds that of every smaller mask; with pinned
    weights every mask 1..2^m - 1."""
    if not variant.optimize_features or m == 1:
        return [[1] * m]
    if variant.optimize_weights:
        return [[1] * m] + [[int(j != drop) for j in range(m)] for drop in range(m)]
    return [mask_bits(v, m) for v in range(1, 2 ** m)]


def local_optimum(ds, variant) -> np.ndarray:
    """The least (AE, BRE, IBRE) of each leave-one-out fold of `ds` over every
    solution the local `variant` decodes to, one row per fold; each column
    is its objective's own optimum.

    A prediction is the ordered weighted mean of the k nearest efforts, rank
    r's effort adjusted by sum_j w_j bit_j d_rj / m with its weight row w.
    Free weights reach every point of the simplex, so rank r's adjustment
    spans, independently of the other ranks, the interval between the least
    and the greatest bit_j d_rj / m (0 among them when the mask drops a
    feature), and the predictions of one (k, mask) fill the interval between
    the weighted means of the lowest and of the highest adjusted efforts.
    Pinned 1/m rows give one prediction per (k, mask).  Predictions are
    floored at EPS_EFFORT.  Over one fold each objective grows with the
    distance from the actual on either side of it, so its least value over
    an interval is at the interval's point nearest the actual."""
    rows, m = ds.n - 1, ds.m
    owm = np.zeros((rows, rows))  # row k - 1 holds k's rank weights
    for k in range(1, rows + 1):
        owm[k - 1, :k] = owm_weights(k)
    masks = np.array(_reachable_masks(m, variant), dtype=float)
    best = []
    for i in range(ds.n):
        train, target_row, actual = ds.loocv_fold(i)
        order = nearest(train, target_row, rows)
        efforts = train.effort_vec[order]
        diffs = np.where(train.categorical_mask, 0.0, target_row - train.matrix[order])
        if variant.optimize_weights:
            shifts = masks[:, None, :] * diffs[None, :, :] / m  # (mask, rank, feature)
            low = owm @ (efforts + shifts.min(axis=2)).T  # (k, mask)
            high = owm @ (efforts + shifts.max(axis=2)).T
        else:
            low = high = owm @ (efforts + masks @ (diffs / m).T / m).T
        reach = np.clip(actual, np.maximum(low, EPS_EFFORT), np.maximum(high, EPS_EFFORT))
        best.append(np.min([errors(actual, p) for p in reach.ravel()], axis=0))
    return np.array(best)


# How far a tuned fold's objective may sit below `local_optimum` before it
# counts as beating it.  The kernel sums a prediction in BLAS and pairwise
# order, the oracle in its own, so the two agree only to a few ulps of the
# adjusted efforts: a k-only albrecht fold sat 2e-16 of its actual below the
# oracle's AE.  1e-12 (times the actual for AE; BRE and IBRE are already
# relative) leaves four orders of magnitude for that rounding, and lies far
# below what the swarm typically leaves: on probed LT folds its median
# shortfall from the optimum was 3e-6 to 7e-4 of the actual.
OPTIMUM_TOLERANCE = 1e-12


def folds_below_optimum(actuals, predictions, optimum) -> list:
    """The folds whose (AE, BRE, IBRE) fall below their row of `optimum` on
    some objective by more than OPTIMUM_TOLERANCE."""
    got = np.array([errors(float(a), float(p)) for a, p in zip(actuals, predictions)])
    slack = OPTIMUM_TOLERANCE * np.ones_like(got)
    slack[:, 0] *= np.asarray(actuals, dtype=float)
    return np.flatnonzero((got < optimum - slack).any(axis=1)).tolist()


def gt_objectives(ds, sol: dict, baseline) -> np.ndarray:
    """(-SA, MBRE, MIBRE) over a leave-one-out pass, the SA baseline floored
    at EPS_EFFORT as the optimizer's fitness does."""
    folds = [ds.loocv_fold(i) for i in range(ds.n)]
    mae, mbre, mibre = error_means([actual for _, _, actual in folds],
                                   [predict(train, row, sol) for train, row, _ in folds])
    sa = 1.0 - mae / max(baseline.mae_p0, EPS_EFFORT)
    return np.array([-sa, mbre, mibre])


def sampled_baseline(efforts, runs: int, seed: int) -> tuple:
    """(MAE_p0, SP0) of the sampled random-guess baseline in one shot: a
    (runs, n) block of offsets from `default_rng(seed)`, project t guessed by
    project (t + offset) mod n, then `np.mean` and `np.std(ddof=1)` over every
    error.  The streamed `metrics` baseline must give these bits."""
    e = np.asarray(efforts, dtype=float)
    n = len(e)
    guess = (np.arange(n) + np.random.default_rng(seed).integers(1, n, size=(runs, n))) % n
    errs = np.abs(e[guess] - e).ravel()
    return float(errs.mean()), float(np.std(errs, ddof=1))


def reference_velocity(V, X, PB, G, R1, R2, w_t: float, c1: float, c2: float, v_max):
    """Velocity step with masked reflection; returns a new V."""
    V = w_t * V + (R1 * (PB - X)) * c1 + (R2 * (G - X)) * c2
    over = (V > v_max) | (V < -v_max)
    V[over] *= -1.0
    return np.maximum(np.minimum(V, v_max), -v_max)


def reference_position(X, V, lower, upper):
    """Position step with masked reflection; returns new (X, V)."""
    X = X + V
    V = V.copy()
    viol = (X > upper) | (X < lower)
    V[viol] *= -1.0
    X[viol] += V[viol]
    return np.maximum(np.minimum(X, upper), lower), V


def reference_mutate(X, t: int, cfg, bounds, rng):
    """Non-uniform mutation on a copy of X."""
    pop, d = X.shape
    rows, cols = np.nonzero(rng.random((pop, d)) < 1.0 / d)
    X = X.copy()
    if len(rows) == 0:
        return X
    up = rng.random(len(rows)) < 0.5
    r = rng.random(len(rows))
    lo, hi = bounds.lower[cols], bounds.upper[cols]
    x = X[rows, cols]
    delta = mopso._mutation_delta(t, cfg.max_iter, np.where(up, hi - x, x - lo), r,
                                  cfg.mutation_exponent, cfg.classical_mutation)
    X[rows, cols] = np.clip(x + np.where(up, delta, -delta), lo, hi)
    return X


def dominates(a, b):
    """Pareto dominance with every objective minimized: a is no worse than
    b in every objective and strictly better in one.  Rows of two (pop, M)
    arrays give a (pop,) mask; two vectors give one bool."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise BoundsError("objective vectors differ in length")
    out = np.all(a <= b, axis=-1) & np.any(a < b, axis=-1)
    return bool(out) if out.ndim == 0 else out


def non_dominated(fit) -> np.ndarray:
    """Mask of the rows of `fit` that no row strictly dominates: every row
    tested against all rows with `dominates`, one row at a time."""
    fit = np.asarray(fit, dtype=float)
    return np.array([not dominates(fit, np.broadcast_to(row, fit.shape)).any()
                     for row in fit], dtype=bool)


def reference_merge(positions, fitnesses, pos, fit, capacity: int):
    """Archive merge over the stacked (archive + candidates) block, every
    candidate in the all-pairs test."""
    if len(fitnesses):
        pos = np.vstack([positions, pos])
        fit = np.vstack([fitnesses, fit])
    keep = non_dominated(fit)
    excess = int(keep.sum()) - capacity
    if excess > 0:
        kept = np.flatnonzero(keep)
        cd = mopso.crowding_distances(fit[kept])
        keep[kept[np.argsort(cd, kind="stable")[:excess]]] = False
    return pos[keep], fit[keep]


def reference_pbests(PB, PBF, X, F, rng) -> tuple:
    """The pbest rule with one `dominates` call per direction; returns new
    (PB, PBF)."""
    coin = rng.random(len(F)) < 0.5
    take = dominates(F, PBF) | (coin & ~dominates(PBF, F))
    PB, PBF = PB.copy(), PBF.copy()
    PB[take] = X[take]
    PBF[take] = F[take]
    return PB, PBF


def reference_run(problem, cfg) -> tuple:
    """The swarm loop with the draw order of `mopso.run`, the leader share
    recomputed every step; returns the final archive's (positions,
    fitnesses)."""
    bounds = problem.bounds
    pop, d = cfg.pop_size, bounds.dim
    rng = np.random.default_rng(cfg.seed)
    lb, ub = bounds.lower, bounds.upper
    X = lb + rng.random((pop, d)) * (ub - lb)
    V = np.zeros_like(X)
    F = np.asarray(problem.evaluate_batch(X), dtype=float)
    PB, PBF = X.copy(), F.copy()
    positions, fitnesses = reference_merge(np.zeros((0, d)), np.zeros((0, 0)), X, F,
                                           cfg.archive_capacity)
    w_start, w_end = cfg.inertia
    T = cfg.max_iter
    for t in range(T):
        w_t = w_start if T == 1 else w_start + (w_end - w_start) * (t / (T - 1))
        leaders = mopso.leader_share(mopso.crowding_distances(fitnesses), cfg.leader_fraction)
        pick = rng.integers(0, len(leaders), size=pop)
        R1 = rng.random((pop, d))
        R2 = rng.random((pop, d))
        G = positions[leaders[pick]]
        V = reference_velocity(V, X, PB, G, R1, R2, w_t, cfg.c1, cfg.c2, bounds.v_max)
        X, V = reference_position(X, V, lb, ub)
        if t < T * cfg.mutation_fraction:
            X = reference_mutate(X, t, cfg, bounds, rng)
        F = np.asarray(problem.evaluate_batch(X), dtype=float)
        positions, fitnesses = reference_merge(positions, fitnesses, X, F, cfg.archive_capacity)
        PB, PBF = reference_pbests(PB, PBF, X, F, rng)
    return positions, fitnesses
