"""Analogy retrieval and effort adaptation.

Retrieval ranks training projects by unweighted Euclidean distance over all
input features (categorical features contribute 0 on a label match and 1
otherwise).  A retrieved analogy's effort is then adjusted by the weighted
masked feature differences over m, the number of input features (not the
masked count), and the adjusted efforts are aggregated with the ordered
weighted mean, whose rank weights halve geometrically.
"""

from __future__ import annotations

import functools

import numpy as np

from .data import StandardizedDataset

EPS_EFFORT = 1e-6  # floor for adapted predictions before ratio metrics
CHUNK = 1 << 16  # floats (512 KiB) in one rank chunk's block of adapted efforts


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
    each k: rank r gets 2**(k-1-r)/(2**k - 1), computed as 2**(-1-r) /
    (1 - 2**-k), the same real quotient of exactly scaled operands and so
    the same bits for k <= 1023, but without 2**k, which overflows to inf
    from k = 1024 on."""
    ranks = np.arange(kmax)[None, :]
    K = K[:, None]
    weights = np.ldexp(1.0, -1 - ranks) / (1.0 - np.ldexp(1.0, -K))
    return np.where(ranks < K, weights, 0.0)


@functools.lru_cache(maxsize=8)
def _owm_table(r: int) -> np.ndarray:
    """The (r, r) ordered-weighted-mean table, row k - 1 holding k's rank
    weights, built once per r by `_owm_matrix`'s elementwise formula and
    shared read-only by every context with r analogies.  No entry depends
    on the table's width, so `table[K - 1, :kmax]` has the bits of
    `_owm_matrix(K, kmax)`."""
    table = _owm_matrix(np.arange(1, r + 1), r)
    table.flags.writeable = False
    return table


class _FoldContext:
    """A stack of f folds, each one target's r analogies in rank order, held
    k-major: their efforts (r, f) and adaptation diffs (r, m, f), target
    minus analogy and 0 for categoricals.  Built from (train, target_row)
    pairs that share r and m; a single pair is one local fold, a
    leave-one-out pass is n.  `owm` is the shared `_owm_table(r)`.

    `predict_batch` walks the ranks in chunks of at most CHUNK // (p f)
    ranks, so that a chunk's (c, p, f) block of weighted adapted efforts
    stays about cache-sized however many particles and folds a batch has.
    It writes a chunk's (c, q, m) masked weights and its block into two flat
    buffers the context owns, grown on demand.  Each block is a contiguous
    prefix reshaped, which has the strides of a fresh array, so the matmul
    and the sum over ranks run the same kernels in the same order whatever
    the buffers held before.  The matmul's summation over m is the BLAS
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
        self.owm = _owm_table(self.diffs.shape[0])
        self._wv = self._adapted = np.empty(0)

    def _weighted(self, s: int, K, masks, W, out: np.ndarray) -> None:
        """Write the OWM-weighted adapted efforts of ranks s to s + c - 1
        into the (c, q, f) block `out`, for q solutions with (K, masks) of
        shapes (q,) and (q, m) and their weight rows for those ranks, W of
        shape (q, c, m)."""
        c, q, _ = out.shape
        m = self.diffs.shape[1]
        wv = self._wv[:c * q * m].reshape(c, q, m)
        np.multiply(W.transpose(1, 0, 2), masks[None, :, :], out=wv)
        np.matmul(wv, self.diffs[s:s + c], out=out)
        out /= m
        out += self.efforts[s:s + c, None, :]
        out *= self.owm[K - 1, s:s + c].T[:, :, None]

    def predict_batch(self, K, masks, W) -> np.ndarray:
        """(p, f) adapted predictions for decoded solutions (K, masks, W) of
        shapes (p,), (p, m) and (p, rows, m), with max(K) <= rows.  The
        returned array is fresh, never a view of the context's buffers.

        A batch whose kmax ranks fit in one chunk, every local and one-row
        batch among them, is one (kmax, p, f) block summed over its ranks.
        NumPy sums that axis left to right when p f >= 2 and pairwise when
        p f = 1, so a one-row local batch is never split.  A larger batch
        orders its solutions by K, largest first, and carries the running
        sum as row 0 of each chunk's block (zeros in the first), so that one
        sum over the block continues the same left-to-right sum.  A chunk
        starting at rank s holds only the q solutions with K > s, but never
        fewer than min(p, 2), which keeps the sum left to right and the
        matmul on the same BLAS routine.  The terms it leaves out are
        products with an OWM weight of 0, and the floor at EPS_EFFORT erases
        the sign of a zero sum, so the bits are those of the whole
        (kmax, p, f) block."""
        kmax = int(K.max())
        p = len(K)
        r, m, f = self.diffs.shape
        step = r if p * f == 1 else max(CHUNK // (p * f), 1)
        span = min(step, r)  # the most ranks one block holds
        if self._wv.size < span * p * m or self._adapted.size < (span + 1) * p * f:
            self._wv, self._adapted = np.empty(span * p * m), np.empty((span + 1) * p * f)
        if kmax <= step:
            adapted = self._adapted[:kmax * p * f].reshape(kmax, p, f)
            self._weighted(0, K, masks, W[:, :kmax], adapted)
            pred = adapted.sum(axis=0)
            return np.maximum(pred, EPS_EFFORT, out=pred)
        order = np.argsort(-K, kind="stable")
        K = K[order]
        total = np.zeros((p, f))
        for s in range(0, kmax, step):
            c = min(step, kmax - s)
            q = max(int(np.count_nonzero(K > s)), min(p, 2))
            block = self._adapted[:(c + 1) * q * f].reshape(c + 1, q, f)
            block[0] = total[:q]
            idx = order[:q]
            self._weighted(s, K[:q], masks[idx], W[idx, s:s + c], block[1:])
            np.add.reduce(block, axis=0, out=total[:q])
        pred = np.empty_like(total)
        pred[order] = total
        return np.maximum(pred, EPS_EFFORT, out=pred)


def predict_adapted(ctx: _FoldContext, K, masks, W) -> float:
    """The prediction of one decoded solution (K, masks, W), a one-row batch
    of shapes (1,), (1, m) and (1, rows, m), read off the one-fold context
    `ctx`, whose r analogies are at least K[0]: adapt each of the k nearest
    analogies with its rank's weight row, then aggregate with the ordered
    weighted mean.  Result is floored at EPS_EFFORT."""
    return float(ctx.predict_batch(K, masks, W)[0, 0])
