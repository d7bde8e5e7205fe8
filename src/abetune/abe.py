"""Analogy retrieval and effort adaptation.

Retrieval ranks training projects by unweighted Euclidean distance over all
input features (categorical features contribute 0 on a label match and 1
otherwise).  A retrieved analogy's effort is then adjusted by the weighted
masked feature differences over m, the number of input features (not the
masked count), and the adjusted efforts are aggregated with the ordered
weighted mean, whose rank weights halve geometrically.
"""

from __future__ import annotations

import numpy as np

from .data import StandardizedDataset

EPS_EFFORT = 1e-6  # floor for adapted predictions before ratio metrics


def distance(row_a: np.ndarray, row_b: np.ndarray, cat_mask: np.ndarray) -> np.ndarray:
    """Euclidean distance over input features; categoricals mismatch as 1.
    A matrix argument gives one distance per row, two rows a NumPy scalar."""
    diff = row_a - row_b
    sq = np.where(cat_mask, (row_a != row_b).astype(float), diff * diff)
    return np.sqrt(sq.sum(axis=-1))


def neighbor_order(train: StandardizedDataset, target_row: np.ndarray) -> np.ndarray:
    """Training indices sorted by (distance, original index) for determinism."""
    d = distance(train.matrix, target_row, train.categorical_mask)
    return np.lexsort((np.arange(len(d)), d))


def _owm_matrix(K: np.ndarray, kmax: int) -> np.ndarray:
    """Ordered-weighted-mean weights, one row per entry of K, zero past
    each k: the nearest gets 2**(k-1)/(2**k - 1)."""
    ranks = np.arange(kmax)[None, :]
    exps = K[:, None] - 1.0 - ranks
    denom = np.power(2.0, K.astype(float))[:, None] - 1.0
    return np.where(ranks < K[:, None], np.power(2.0, exps) / denom, 0.0)


class _FoldContext:
    """A stack of f folds, each one target's r analogies in rank order, held
    k-major: their efforts (r, f) and adaptation diffs (r, m, f), target
    minus analogy and 0 for categoricals.  Built from (train, target_row)
    pairs that share r and m; a single pair is one local fold, a
    leave-one-out pass is n.

    `owm` is the (r, r) ordered-weighted-mean table, row k - 1 holding k's
    rank weights, built once by `_owm_matrix`'s elementwise formula.  No
    entry depends on the table's width, so `owm[K - 1, :kmax]` has the bits
    of `_owm_matrix(K, kmax)`.  `predict_batch` writes its (kmax, p, m)
    masked weights and (kmax, p, f) adapted efforts into two flat buffers
    the context owns, grown on demand.  Each block is a contiguous prefix
    reshaped, which has the strides of a fresh array, so the matmul and the
    sum over ranks run the same kernels in the same order whatever the
    buffers held before.  The matmul's summation over m is the BLAS
    kernel's, so the last bits of a prediction depend on the BLAS build."""

    def __init__(self, folds):
        efforts, diffs = [], []
        for train, target_row in folds:
            order = neighbor_order(train, target_row)
            efforts.append(train.effort_vec[order])
            d = target_row[None, :] - train.matrix[order]
            d[:, train.categorical_mask] = 0.0
            diffs.append(d)
        self.efforts = np.stack(efforts, axis=1)
        self.diffs = np.stack(diffs, axis=2)
        r = self.diffs.shape[0]
        self.owm = _owm_matrix(np.arange(1, r + 1), r)
        self._wv = self._adapted = np.empty(0)

    def predict_batch(self, K, masks, W) -> np.ndarray:
        """(p, f) adapted predictions for decoded solutions (K, masks, W) of
        shapes (p,), (p, m) and (p, rows, m), with max(K) <= rows.  The
        returned array is fresh, never a view of the context's buffers."""
        kmax = int(K.max())
        p = len(K)
        r, m, f = self.diffs.shape
        if self._wv.size < p * r * m:
            self._wv, self._adapted = np.empty(p * r * m), np.empty(p * r * f)
        wv = self._wv[:kmax * p * m].reshape(kmax, p, m)
        np.multiply(W[:, :kmax, :].transpose(1, 0, 2), masks[None, :, :], out=wv)
        adapted = self._adapted[:kmax * p * f].reshape(kmax, p, f)
        np.matmul(wv, self.diffs[:kmax], out=adapted)
        adapted /= m
        adapted += self.efforts[:kmax, None, :]
        adapted *= self.owm[K - 1, :kmax].T[:, :, None]
        pred = adapted.sum(axis=0)
        return np.maximum(pred, EPS_EFFORT, out=pred)


def predict_adapted(train: StandardizedDataset, target_row: np.ndarray, K, masks, W) -> float:
    """The prediction of one decoded solution (K, masks, W), a one-row batch
    of shapes (1,), (1, m) and (1, rows, m) with K[0] <= train.n: adapt each
    of the k nearest analogies with its rank's weight row, then aggregate
    with the ordered weighted mean.  Result is floored at EPS_EFFORT."""
    return float(_FoldContext([(train, target_row)]).predict_batch(K, masks, W)[0, 0])
