"""Rank-sum significance testing and tournament summaries.

The two-sided rank-sum test enumerates the exact permutation distribution
for pooled samples of up to 16 values (midranks for ties) and otherwise
uses the normal approximation with tie and continuity corrections.  Method
tournaments gate every pairwise comparison on that test over absolute
errors: insignificant pairs tie, significant pairs win/lose on the measure
at hand.  Tallies, comparisons and rank summaries come back as the plain
dicts that `report.json` stores.

`_midranks` ties values only on exact float equality, and it also ranks
`tuning.select_from_front`'s objectives.  So a change in the last bits of a
measure or an objective can move a p-value or a front choice, and a
tolerance there would move `report.json` bytes.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import BoundsError

EXACT_LIMIT = 16          # pooled size at or below which the exact path runs
SIGNIFICANCE = 0.05       # fixed two-sided level (95% confidence)

# Lower is better for every measure except standardized accuracy.
HIGHER_IS_BETTER = frozenset({"sa"})

# A pair's outcome from the other method's view.
_REVERSED = {"win": "loss", "tie": "tie", "loss": "win"}


def _midranks(pooled: np.ndarray) -> np.ndarray:
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_p(ranks: np.ndarray, n_a: int, observed: float) -> float:
    """Exact permutation distribution of the first sample's rank sum.

    Midranks are multiples of one half, so doubling them gives integers and
    the distribution follows from a subset-sum count over sizes and sums.
    """
    r2 = np.rint(2.0 * ranks).astype(int)
    total_sum = int(r2.sum())
    dp = np.zeros((n_a + 1, total_sum + 1))
    dp[0, 0] = 1.0
    for v in r2:
        for c in range(n_a, 0, -1):
            dp[c, v:] += dp[c - 1, : total_sum + 1 - v]
    dist = dp[n_a]
    total = dist.sum()
    obs2 = int(np.rint(2.0 * observed))
    le = dist[: obs2 + 1].sum()
    ge = dist[obs2:].sum()
    return min(1.0, 2.0 * min(le, ge) / total)


def _approx_p(ranks: np.ndarray, n_a: int, observed: float) -> float:
    """Normal approximation with midrank tie correction and continuity
    correction."""
    n = len(ranks)
    n_b = n - n_a
    mu = n_a * (n + 1) / 2.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    z = (abs(observed - mu) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def wilcoxon_rank_sum(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sided p-value for the rank-sum test of two independent samples."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise BoundsError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    observed = float(ranks[:len(a)].sum())
    if len(pooled) <= EXACT_LIMIT:
        return _exact_p(ranks, len(a), observed)
    return _approx_p(ranks, len(a), observed)


def better(measure: str, value_a: float, value_b: float) -> bool:
    """True when value_a beats value_b on this measure."""
    if measure.lower() in HIGHER_IS_BETTER:
        return value_a > value_b
    return value_a < value_b


def win_tie_loss(errors_by_method: Mapping[str, Sequence[float]],
                 measures: Mapping[str, Mapping[str, float]]) -> tuple[dict, list]:
    """Pairwise tournament over all methods, in the form `report.json`
    stores it.

    Every unordered pair is compared once per measure: if the rank-sum test
    on the two absolute-error samples cannot tell them apart, both tie;
    otherwise the measure value decides who wins, unless it is NaN on either
    side (an SA without a baseline), which decides nothing: both tie.
    Returns (tallies, comparisons): tallies[method][measure] is {"win",
    "tie", "loss"} counts, and each comparison is {"method_a", "method_b",
    "p_value", "outcomes"} with outcomes[measure] "win", "tie" or "loss"
    from method_a's view.
    """
    methods = list(errors_by_method)
    if len(methods) < 2:
        raise BoundsError("need at least two methods to compare")
    lengths = {len(errors_by_method[m]) for m in methods}
    if len(lengths) != 1:
        raise BoundsError("absolute-error sequences must be aligned")
    measure_names = list(next(iter(measures.values())))
    tallies = {m: {e: {"win": 0, "tie": 0, "loss": 0} for e in measure_names} for m in methods}
    comparisons = []
    for a, b in combinations(methods, 2):
        p = wilcoxon_rank_sum(errors_by_method[a], errors_by_method[b])
        outcomes = {}
        for e in measure_names:
            if p >= SIGNIFICANCE or math.isnan(measures[a][e]) or math.isnan(measures[b][e]):
                outcomes[e] = "tie"
            elif better(e, measures[a][e], measures[b][e]):
                outcomes[e] = "win"
            else:
                outcomes[e] = "loss"
            tallies[a][e][outcomes[e]] += 1
            tallies[b][e][_REVERSED[outcomes[e]]] += 1
        comparisons.append({"method_a": a, "method_b": b, "p_value": p, "outcomes": outcomes})
    return tallies, comparisons


def rank_methods(measure_table: Mapping[str, Mapping[str, float]],
                 higher_is_better: bool = False) -> list[dict]:
    """Rank methods per dataset (1 = best, average ranks on ties, NaN cells
    sharing the midrank after every defined value) and report
    each method's mean rank and the sample SD of its ranks across datasets,
    as {"method", "mean_rank", "rank_sd"} per method.

    `measure_table` maps dataset -> method -> value; every cell must exist.
    """
    datasets = list(measure_table)
    if not datasets:
        raise BoundsError("empty measure table")
    methods = list(measure_table[datasets[0]])
    ranks = {m: [] for m in methods}
    for d in datasets:
        row = measure_table[d]
        missing = [m for m in methods if m not in row]
        if missing or len(row) != len(methods):
            raise BoundsError(f"dataset {d!r} has a ragged method row")
        vals = np.array([row[m] for m in methods], dtype=float)
        if higher_is_better:
            vals = -vals
        r = _midranks(vals)
        undefined = np.isnan(vals)  # sorted last, so they hold the last ranks
        if undefined.any():
            r[undefined] = r[undefined].mean()
        for m, rv in zip(methods, r):
            ranks[m].append(float(rv))
    out = []
    for m in methods:
        arr = np.array(ranks[m])
        sd = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
        out.append({"method": m, "mean_rank": float(arr.mean()), "rank_sd": sd})
    return out
