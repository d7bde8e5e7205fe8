"""Scalar reference implementations the tests compare the batched code with.

Each function here works one solution or one project at a time with plain
Python arithmetic and the public single-value operations of `abe` and
`metrics`, independently of the batched decode and scoring in `tuning`.
"""

import math

import numpy as np

from abetune import abe, metrics
from abetune.errors import AbetuneError
from abetune.tuning import SolutionSpace, SolutionVector, decode_mask


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def scalar_decode(x, n_rows: int, m: int, variant) -> SolutionVector:
    """Position -> solution, one dimension at a time in box order."""
    space = SolutionSpace(n_rows=n_rows, m=m, variant=variant)
    x = [float(v) for v in x]
    k = 1
    if space.free_k:
        k = min(max(_round_half_up(x.pop(0)), 1), n_rows)
    mask = abe.FeatureMask(bits=(1,) * m)
    if space.free_mask:
        mask = decode_mask(min(max(_round_half_up(x.pop(0)), 1), 2 ** m - 1), m)
    w = np.full((n_rows, m), 1.0 / m)
    if variant.optimize_weights:
        for r in range(n_rows):
            row = [min(max(v, 0.0), 1.0) for v in x[r * m:(r + 1) * m]]
            total = np.sum(row)
            w[r] = np.array(row) / total if total > 0 else 1.0 / m
    return SolutionVector(k=k, mask=mask, weights=w)


def encode_position(sol: SolutionVector, space: SolutionSpace) -> np.ndarray:
    """Solution -> position in the space's box; inverse of decoding up to the
    weight-row renormalization."""
    parts = []
    if space.free_k:
        parts.append(float(sol.k))
    if space.free_mask:
        parts.append(float(sol.mask_int))
    if space.variant.optimize_weights:
        parts.extend(np.asarray(sol.weights, dtype=float).ravel().tolist())
    return np.array(parts)


def predict(train, target_row, sol: SolutionVector) -> float:
    """retrieve -> adapt_effort per rank -> ordered weighted mean, floored."""
    adapted = [abe.adapt_effort(target_row, train.matrix[nb.index],
                                float(train.effort_vec[nb.index]),
                                sol.weights[nb.rank - 1], sol.mask, train.categorical_mask)
               for nb in abe.retrieve(train, target_row, sol.k)]
    return max(abe.owm_aggregate(adapted), abe.EPS_EFFORT)


def lt_objectives(train, target_row, actual: float, sol: SolutionVector) -> np.ndarray:
    """(AE, BRE, IBRE) of the single prediction."""
    rec = metrics.PredictionRecord(actual=actual, predicted=predict(train, target_row, sol))
    return np.array([metrics.ae(rec), metrics.bre(rec), metrics.ibre(rec)])


def gt_objectives(ds, sol: SolutionVector, baseline) -> np.ndarray:
    """(-SA, MBRE, MIBRE) over a leave-one-out pass, the SA baseline floored
    at EPS_EFFORT as the optimizer's fitness does."""
    records = []
    for i in range(ds.n):
        train, row, actual = ds.loocv_fold(i)
        records.append(metrics.PredictionRecord(actual, predict(train, row, sol)))
    suite = metrics.aggregate(records)
    sa = 1.0 - suite.mae / max(baseline.mae_p0, abe.EPS_EFFORT)
    return np.array([-sa, suite.mbre, suite.mibre])


def run_loocv(ds, predictor) -> list[tuple[float, float]]:
    """Hold each project out in turn; `predictor(train, target_row) -> float`.
    Returns (actual, predicted) pairs in dataset order."""
    pairs = []
    for i in range(ds.n):
        train, target_row, actual = ds.loocv_fold(i)
        try:
            pred = predictor(train, target_row)
        except Exception as exc:
            raise AbetuneError(f"{ds.name}: fold {i} failed: {exc}") from exc
        pairs.append((actual, float(pred)))
    return pairs
