"""Analogy retrieval and effort adaptation.

Retrieval ranks training projects by unweighted Euclidean distance over all
input features (categorical features contribute 0 on a label match and 1
otherwise).  A retrieved analogy's effort is then adjusted by the weighted
masked feature differences and the adjusted efforts are aggregated with the
ordered weighted mean, whose rank weights halve geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoundsError
from .data import StandardizedDataset

EPS_EFFORT = 1e-6  # floor for adapted predictions before ratio metrics


@dataclass(frozen=True)
class Neighbor:
    index: int
    distance: float
    rank: int  # 1 = nearest


@dataclass(frozen=True)
class FeatureMask:
    """Binary feature-participation flags; at least one bit must be set."""

    bits: tuple

    def __post_init__(self):
        if len(self.bits) == 0 or not any(self.bits):
            raise BoundsError("feature mask must have at least one bit set")
        if any(b not in (0, 1) for b in self.bits):
            raise BoundsError("feature mask bits must be 0 or 1")

    def as_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=float)


def distance(row_a: np.ndarray, row_b: np.ndarray, cat_mask: np.ndarray):
    """Euclidean distance over input features; categoricals mismatch as 1.
    A matrix argument gives one distance per row; two rows give a float."""
    diff = row_a - row_b
    sq = np.where(cat_mask, (row_a != row_b).astype(float), diff * diff)
    d = np.sqrt(sq.sum(axis=-1))
    return float(d) if d.ndim == 0 else d


def distances_to(train: StandardizedDataset, target_row: np.ndarray) -> np.ndarray:
    """Distance from every training row to the target."""
    return distance(train.matrix, target_row, train.categorical_mask)


def neighbor_order(train: StandardizedDataset, target_row: np.ndarray) -> np.ndarray:
    """Training indices sorted by (distance, original index) for determinism."""
    d = distances_to(train, target_row)
    return np.lexsort((np.arange(len(d)), d))


def retrieve(train: StandardizedDataset, target_row: np.ndarray, k: int) -> list[Neighbor]:
    """The k nearest training projects, ranks 1..k."""
    n = train.n
    if not 1 <= k <= n:
        raise BoundsError(f"k={k} out of range 1..{n}")
    d = distances_to(train, target_row)
    order = np.lexsort((np.arange(n), d))[:k]
    return [Neighbor(index=int(i), distance=float(d[i]), rank=r + 1) for r, i in enumerate(order)]


def mean_aggregate(efforts: Sequence[float]) -> float:
    if len(efforts) == 0:
        raise BoundsError("cannot aggregate an empty effort sequence")
    return float(np.mean(efforts))


def irwm_aggregate(efforts_by_rank: Sequence[float]) -> float:
    """Inverse ranked weighted mean: rank i out of k gets weight (k+1-i)."""
    k = len(efforts_by_rank)
    if k == 0:
        raise BoundsError("cannot aggregate an empty effort sequence")
    ranks = np.arange(1, k + 1)
    return float(np.sum((k + 1 - ranks) * np.asarray(efforts_by_rank, dtype=float)) / ranks.sum())


def owm_weights(k: int) -> np.ndarray:
    """Ordered-weighted-mean weights: nearest gets 2**(k-1)/(2**k - 1)."""
    if k < 1:
        raise BoundsError("k must be >= 1")
    return _owm_matrix(np.array([k]), k)[0]


def _owm_matrix(K: np.ndarray, kmax: int) -> np.ndarray:
    """Ordered-weighted-mean weights, one row per entry of K, zero past
    each k."""
    ranks = np.arange(kmax)[None, :]
    exps = K[:, None] - 1.0 - ranks
    denom = np.power(2.0, K.astype(float))[:, None] - 1.0
    return np.where(ranks < K[:, None], np.power(2.0, exps) / denom, 0.0)


def owm_aggregate(adapted_efforts_by_rank: Sequence[float]) -> float:
    efforts = np.asarray(adapted_efforts_by_rank, dtype=float)
    return float(owm_weights(len(efforts)) @ efforts)


def adaptation_diff(target_row: np.ndarray, analogy_row: np.ndarray, cat_mask: np.ndarray) -> np.ndarray:
    """Per-feature difference target-minus-analogy; categoricals contribute 0."""
    return np.where(cat_mask, 0.0, target_row - analogy_row)


def adapt_effort(
    target_row: np.ndarray,
    analogy_row: np.ndarray,
    analogy_effort: float,
    weights_row: Sequence[float],
    mask: FeatureMask,
    cat_mask: np.ndarray,
) -> float:
    """Adjust an analogy's effort by its weighted masked feature differences.

    The divisor is the total number of input features, not the masked count.
    """
    d = adaptation_diff(target_row, analogy_row, cat_mask)
    w = np.asarray(weights_row, dtype=float)
    m = len(d)
    return float(analogy_effort + (w * mask.as_array() * d).sum() / m)


def predict_abe0(train: StandardizedDataset, target_row: np.ndarray, k: int) -> float:
    """Baseline prediction: mean effort of the k nearest analogies."""
    neighbors = retrieve(train, target_row, k)
    return mean_aggregate([float(train.effort_vec[nb.index]) for nb in neighbors])


class _FoldContext:
    """A stack of folds, each one target's analogies in rank order: their
    efforts (f, r) and adaptation diffs (f, r, m), target minus analogy and
    0 for categoricals.  Built from (train, target_row) pairs that share r
    and m; a single pair is one local fold, a leave-one-out pass is n."""

    def __init__(self, folds):
        efforts, diffs = [], []
        for train, target_row in folds:
            order = neighbor_order(train, target_row)
            efforts.append(train.effort_vec[order])
            d = target_row[None, :] - train.matrix[order]
            d[:, train.categorical_mask] = 0.0
            diffs.append(d)
        self.efforts = np.stack(efforts)
        self.diffs = np.stack(diffs)

    def predict_batch(self, K, masks, W) -> np.ndarray:
        """(p, f) adapted predictions for decoded solutions (K, masks, W) of
        shapes (p,), (p, m) and (p, rows, m), with max(K) <= rows."""
        kmax = int(K.max())
        wv = W[:, :kmax, :] * masks[:, None, :]
        adapted = np.einsum("pkm,fkm->pfk", wv, self.diffs[:, :kmax, :])
        adapted /= self.diffs.shape[2]
        adapted += self.efforts[None, :, :kmax]
        adapted *= _owm_matrix(K, kmax)[:, None, :]
        return np.maximum(adapted.sum(axis=2), EPS_EFFORT)


def predict_adapted(train: StandardizedDataset, target_row: np.ndarray, sol) -> float:
    """Adapt each of the k nearest analogies with its rank's weight row, then
    aggregate with the ordered weighted mean.  Result is floored at EPS_EFFORT."""
    if not 1 <= sol.k <= train.n:
        raise BoundsError(f"k={sol.k} out of range 1..{train.n}")
    ctx = _FoldContext([(train, target_row)])
    return float(ctx.predict_batch(np.array([sol.k]), sol.mask.as_array()[None, :],
                                   sol.weights[None, :, :])[0, 0])
