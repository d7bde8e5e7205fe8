"""Evaluation measures for effort predictions.

Absolute error is the base quantity; the balanced relative error divides it
by the smaller of actual/predicted, the inverted form by the larger.
Standardized accuracy compares a model's mean absolute error against random
guessing (sampling another project's effort).  Predictions are floored at a
tiny epsilon before any ratio or log measure so that aggressive adaptations
cannot produce division by zero, while still being penalized hard.

One array kernel, `error_means`, computes the mean errors (MAE, MBRE,
MIBRE): the tuning problems call it for the swarm's objectives over a stack
of folds, and `aggregate` for the suite that `report.json` stores, which is
a plain dict.

The sampled random-guess baseline streams its draws instead of holding all
runs x n of them.  It keeps the bits of `np.mean` and `np.std(ddof=1)` over
the whole (runs, n) block because of two facts about NumPy's implementation
(not API guarantees, so `tests/test_metrics.py` pins them):
`Generator.integers` over a range below 2^32 gives the same values drawn in
one call or in consecutive pieces, and `np.add.reduce` over a contiguous
float64 vector is a pairwise sum whose value on each subtree depends only on
that subtree.  So the baseline draws one leaf of the flat block at a time,
sums it with `np.add.reduce`, and adds the leaves' sums along NumPy's own
split; the squared deviations take a second pass over the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abe import EPS_EFFORT
from .errors import BoundsError, UndefinedBaselineError


@dataclass(frozen=True)
class RandomGuessBaseline:
    """Expected MAE of guessing another project's effort, plus the spread
    (sample SD) of the individual guess errors."""

    mae_p0: float
    sp0: float


def error_means(actuals, predictions) -> np.ndarray:
    """(MAE, MBRE, MIBRE) over the last axis: predictions of shape (..., n)
    against n actuals (or actuals that broadcast) give shape (..., 3).

    AE uses the raw prediction; BRE and IBRE use it floored at EPS_EFFORT.
    Each mean is a sum over the contiguous last axis divided by its length,
    so the swarm's objectives and the report's suite are the same numbers.
    """
    a = np.asarray(actuals, dtype=float)
    p = np.asarray(predictions, dtype=float)
    floored = np.maximum(p, EPS_EFFORT)
    ae = np.abs(a - p)
    d = np.abs(a - floored)
    errors = np.stack([ae, d / np.minimum(a, floored), d / np.maximum(a, floored)], axis=-2)
    return errors.sum(axis=-1) / p.shape[-1]


def lsd(actuals, predictions) -> float:
    """Logarithmic standard deviation of the log residuals, with the
    half-variance correction added to each residual.  Predictions are
    floored at EPS_EFFORT; each log is taken with `math.log`."""
    if len(actuals) < 2:
        raise BoundsError("LSD needs at least 2 projects")
    floored = np.maximum(np.asarray(predictions, dtype=float), EPS_EFFORT)
    lam = np.array([math.log(a) - math.log(p)
                    for a, p in zip(np.asarray(actuals, dtype=float).tolist(), floored.tolist())])
    s2 = float(np.var(lam, ddof=1))
    return float(np.sqrt(np.sum((lam + s2 / 2.0) ** 2) / (len(lam) - 1)))


# The most guesses the sampled baseline holds at once, about 128 KiB per
# array.  It must be at least NumPy's pairwise block (128 elements), so that
# no stretch NumPy sums as one block is ever split here.
BASELINE_LEAF = 1 << 14


def _pairwise_sum(length: int, leaf_sum):
    """The sum of a virtual float64 vector of `length` elements, added as
    `np.add.reduce` adds a contiguous one: halve any stretch longer than a
    leaf, the left part rounded down to a multiple of 8, and add the halves'
    sums.  `leaf_sum(size)` must return `np.add.reduce` of the next `size`
    elements; leaves are asked for from left to right."""
    if length <= BASELINE_LEAF:
        return leaf_sum(length)
    left = length // 2
    left -= left % 8
    return _pairwise_sum(left, leaf_sum) + _pairwise_sum(length - left, leaf_sum)


def _sampled_baseline(e: np.ndarray, runs: int, seed: int) -> RandomGuessBaseline:
    """`runs` guessing passes, streamed leaf by leaf in two passes over the
    same draws: the first sums the errors for the mean, the second redraws
    them from a fresh generator and sums the squared deviations from it."""
    n = len(e)
    size = runs * n
    # flat index i = run * n + t targets project t and guesses (t + d) mod n
    target = np.arange(min(size, BASELINE_LEAF) + n) % n
    actual = e[target]
    wrapped = np.concatenate([e, e])

    def error_sum(center=None):
        rng = np.random.default_rng(seed)
        start = 0

        def leaf_sum(length):
            nonlocal start
            t = start % n
            start += length
            guess = rng.integers(1, n, size=length)
            guess += target[t:t + length]
            errs = wrapped[guess]
            errs -= actual[t:t + length]
            np.abs(errs, out=errs)
            if center is not None:
                errs -= center
                np.square(errs, out=errs)
            return np.add.reduce(errs)

        return _pairwise_sum(size, leaf_sum)

    mean = error_sum() / size
    return RandomGuessBaseline(mae_p0=float(mean),
                               sp0=math.sqrt(error_sum(mean) / (size - 1)))


def random_guess_baseline(efforts: Sequence[float], mode="exact", runs: int = 100_000,
                          seed: int = 0) -> RandomGuessBaseline:
    """Baseline error of predicting a project by another project's effort.

    Exact mode enumerates all ordered (target, guess) pairs; sampled mode
    draws `runs` full guessing passes with `default_rng(seed)`, one (runs, n)
    block of offsets d in [1, n) with project t guessed by (t + d) mod n.

    Sampled mode returns the bits of `np.mean` and `np.std(ddof=1)` over
    that block's errors but never holds it: it draws and sums at most
    BASELINE_LEAF guesses at a time, combining the sums as NumPy's pairwise
    summation would (see the module docstring), and redraws the same stream
    for the squared deviations.  Its memory does not depend on `runs`; its
    time is linear in runs x n.
    """
    e = np.asarray(efforts, dtype=float)
    n = len(e)
    if n < 2:
        raise BoundsError("baseline needs at least 2 efforts")
    if mode == "exact":
        diff = np.abs(e[:, None] - e[None, :])
        off = diff[~np.eye(n, dtype=bool)]  # the n*(n-1) ordered pairs
        return RandomGuessBaseline(mae_p0=float(off.mean()), sp0=float(np.std(off, ddof=1)))
    if mode == "sampled":
        if runs < 1:
            raise BoundsError("sampled baseline needs at least one run")
        return _sampled_baseline(e, runs, seed)
    raise BoundsError(f"unknown baseline mode {mode!r}")


def sa(mae: float, baseline: RandomGuessBaseline) -> float:
    """Standardized accuracy: 1 - MAE/MAE_p0 (fraction; reports show x100).

    A perfect predictor scores 1 on any dataset, even one whose efforts are
    all equal (where the guessing baseline itself is zero)."""
    if mae == 0:
        return 1.0
    if baseline.mae_p0 <= 0:
        raise UndefinedBaselineError("random-guess baseline MAE is zero")
    return 1.0 - mae / baseline.mae_p0


def effect_size(mae: float, baseline_mae: float, baseline_sd: float) -> float:
    """Size of the difference from a baseline in units of the baseline's SD,
    as a magnitude."""
    if baseline_sd <= 0:
        raise UndefinedBaselineError("baseline SD must be positive")
    return abs((mae - baseline_mae) / baseline_sd)


def aggregate(actuals, predictions, baseline: RandomGuessBaseline | None = None) -> dict:
    """The metric suite of one method's predictions, as `report.json` stores
    it: MAE/MBRE/MIBRE from `error_means`, LSD, and SA and effect size when a
    baseline is given.

    LSD needs two projects and SA needs a baseline; absent either, the field
    is NaN rather than an error so partial suites stay usable.
    """
    a = np.asarray(actuals, dtype=float)
    p = np.asarray(predictions, dtype=float)
    if a.ndim != 1 or a.shape != p.shape:
        raise BoundsError(f"actuals {a.shape} and predictions {p.shape} must be aligned vectors")
    if len(a) == 0:
        raise BoundsError("cannot aggregate zero projects")
    if not (a > 0).all():
        raise BoundsError(f"actual effort must be positive, got {a[~(a > 0)][0]}")
    mae, mbre, mibre = error_means(a, p).tolist()
    if baseline is not None and (mae == 0 or baseline.mae_p0 > 0):
        sa_val = sa(mae, baseline)
        delta = effect_size(mae, baseline.mae_p0, baseline.sp0) if baseline.sp0 > 0 else math.nan
    else:
        sa_val = math.nan
        delta = math.nan
    return {"mae": mae, "sa": sa_val, "mbre": mbre, "mibre": mibre,
            "lsd": lsd(a, p) if len(a) >= 2 else math.nan, "effect_size": delta, "n": len(a)}
