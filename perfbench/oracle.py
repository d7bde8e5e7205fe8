"""Correctness checks for one `abetune run`, computed apart from the program.

Nothing here imports `abetune`.  The module re-implements analogy-based
estimation from the bundled CSV files (min-max scaling, Euclidean retrieval
with categorical mismatch = 1 and ties broken by index, additive masked
adaptation divided by m, ordered weighted mean, the 1e-6 floor), the error
measures and the exact random-guess baseline, and uses them to re-derive
every number a report states.

`check_outputs` returns a list of `Problem`s; an empty list means the
report passed every check.  A problem names the cell (dataset, method) it
belongs to, or only the dataset when the check covers the whole dataset
(the tournament), and a tag saying which check fired.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

EPS_EFFORT = 1e-6
MISSING = ("", "?")
# Two computations of the same floating-point quantity by different
# operation orders agree to about 1e-15 relative; 1e-12 leaves room for that
# and still catches a 1e-6 change to any effort below 1e6.
REL_TOL = 1e-12
# How many standard errors a sampled random-guess baseline may stray from
# the exactly enumerated one.
BASELINE_SIGMAS = 5.0

# file, effort column, categorical inputs, excluded columns.  Every other
# column is a numeric input, in header order.
SCHEMAS = {
    "albrecht": ("albrecht.csv", "Effort", (), ()),
    "kemerer": ("kemerer.csv", "EffortMM", ("Language", "Hardware"), ("ID",)),
    "nasa": ("nasa.csv", "Effort", (), ()),
    "telecom": ("telecom.csv", "Effort", (), ()),
    "desharnais": ("desharnais.csv", "Effort", ("Language",), ("Project",)),
    "cocomo": ("cocomo.csv", "Effort", (), ()),
    "china": ("china.csv", "Effort", (), ("ID", "Duration")),
    "maxwell": ("maxwell.csv", "Effort", ("App", "Har"), ("Duration",)),
}

MEASURES = ("mae", "sa", "mbre", "mibre", "lsd")


@dataclass(frozen=True)
class Problem:
    dataset: str
    method: str | None  # None: the problem concerns every cell of the dataset
    tag: str
    message: str

    def __str__(self) -> str:
        where = self.dataset if self.method is None else f"{self.dataset}/{self.method}"
        return f"{where} [{self.tag}] {self.message}"


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Data:
    """One bundled dataset, scaled, with every leave-one-out neighbour order."""

    def __init__(self, name: str, data_dir: Path):
        file, effort_col, categorical, excluded = SCHEMAS[name]
        with open(data_dir / file, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader)]
            rows = [[c.strip() for c in r] for r in reader if r and any(c.strip() for c in r)]
        inputs = [c for c in header if c != effort_col and c not in excluded]
        cols = [header.index(c) for c in inputs]
        e_col = header.index(effort_col)
        rows = [r for r in rows if all(r[j] not in MISSING for j in cols + [e_col])]

        self.name = name
        self.n = len(rows)
        self.m = len(inputs)
        self.categorical = [c in categorical for c in inputs]
        self.efforts = [float(r[e_col]) for r in rows]
        columns = []
        for j, is_cat in zip(cols, self.categorical):
            raw = [r[j] for r in rows]
            if is_cat:
                columns.append(raw)
                continue
            vals = [float(v) for v in raw]
            lo, hi = min(vals), max(vals)
            columns.append([(v - lo) / (hi - lo) if hi > lo else 0.0 for v in vals])
        self.x = [list(row) for row in zip(*columns)]
        # order[i]: the other projects, nearest first, ties by index
        self.order = [
            sorted((j for j in range(self.n) if j != i), key=lambda j, i=i: (self.distance(i, j), j))
            for i in range(self.n)
        ]

    def distance(self, i: int, j: int) -> float:
        total = 0.0
        for a, b, is_cat in zip(self.x[i], self.x[j], self.categorical):
            total += (0.0 if a == b else 1.0) if is_cat else (a - b) * (a - b)
        return math.sqrt(total)

    def predict(self, i: int, k: int, mask, weights) -> float:
        """Adapted OWM prediction of project i from the other projects."""
        adapted = []
        for rank, j in enumerate(self.order[i][:k]):
            adj = 0.0
            for f in range(self.m):
                if mask[f] and not self.categorical[f]:
                    adj += weights[rank][f] * (self.x[i][f] - self.x[j][f])
            adapted.append(self.efforts[j] + adj / self.m)
        denom = 2.0 ** k - 1.0
        pred = sum(2.0 ** (k - 1 - r) / denom * a for r, a in enumerate(adapted))
        return max(pred, EPS_EFFORT)

    def abe0_predict(self, i: int, k: int) -> float:
        return sum(self.efforts[j] for j in self.order[i][:k]) / k

    def abe0_best_k(self) -> int:
        """k in 1..n-1 with the lowest leave-one-out MAE, smallest k on ties."""
        best_k, best_mae = 0, math.inf
        for k in range(1, self.n):
            mae = sum(abs(self.efforts[i] - self.abe0_predict(i, k)) for i in range(self.n)) / self.n
            if mae < best_mae:
                best_k, best_mae = k, mae
        return best_k

    def exact_baseline(self) -> tuple[float, float]:
        """Mean and sample SD of |e_i - e_j| over all ordered pairs i != j."""
        diffs = [abs(a - b) for i, a in enumerate(self.efforts)
                 for j, b in enumerate(self.efforts) if i != j]
        mean = math.fsum(diffs) / len(diffs)
        var = math.fsum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
        return mean, math.sqrt(var)


def suite(pairs) -> dict:
    """MAE, MBRE, MIBRE and LSD of (actual, predicted) pairs."""
    n = len(pairs)
    clamped = [(a, max(p, EPS_EFFORT)) for a, p in pairs]
    lam = [math.log(a) - math.log(p) for a, p in clamped]
    mean_lam = sum(lam) / n
    s2 = sum((v - mean_lam) ** 2 for v in lam) / (n - 1)
    return {
        "mae": sum(abs(a - p) for a, p in pairs) / n,
        "mbre": sum(abs(a - p) / min(a, p) for a, p in clamped) / n,
        "mibre": sum(abs(a - p) / max(a, p) for a, p in clamped) / n,
        "lsd": math.sqrt(sum((v + s2 / 2.0) ** 2 for v in lam) / (n - 1)),
    }


def read_predictions(text: str) -> dict:
    """predictions.csv -> {(dataset, method): [(actual, predicted), ...]}"""
    groups: dict = {}
    reader = csv.DictReader(text.splitlines())
    for row in reader:
        key = (row["dataset"], row["method"])
        groups.setdefault(key, []).append(
            (int(row["project_index"]), float(row["actual"]), float(row["predicted"])))
    return {k: [(a, p) for _, a, p in sorted(v)] for k, v in groups.items()}


def _check_solutions(d: Data, method: str, cell: dict, add) -> bool:
    """Properties of the cell's solutions; False when their shape is so
    wrong that the predictions cannot be recomputed from them."""
    sols = cell["solutions"]
    want_count = d.n if method.startswith("lt") else 1
    if len(sols) != want_count:
        add("solutions", f"{len(sols)} solutions, expected {want_count}")
        return False
    if method == "abe0":
        k, want = sols[0]["k"], d.abe0_best_k()
        if k != want:
            add("abe0_k", f"ABE0 k={k}, the leave-one-out scan gives k={want}")
        return 1 <= k <= d.n - 1
    shaped = True
    for s_idx, sol in enumerate(sols):
        k, mask, rows = sol["k"], sol["mask"], sol["weights_used"]
        where = f"solution {s_idx}"
        if not 1 <= k <= d.n - 1:
            add("k_range", f"{where}: k={k} outside 1..{d.n - 1}")
            shaped = False
            continue
        if len(mask) != d.m or any(b not in (0, 1) for b in mask) or not any(mask):
            add("mask", f"{where}: mask {mask} is not a non-empty {d.m}-bit mask")
            shaped = False
            continue
        if sol["v"] != int("".join(map(str, mask)), 2):
            add("mask", f"{where}: v={sol['v']} does not encode mask {mask}")
        if method.endswith("_star") and not all(mask):
            add("mask", f"{where}: {method} mask {mask} is not all ones")
        if len(rows) != k or any(len(r) != d.m for r in rows):
            add("weights", f"{where}: weights_used is not {k} rows of {d.m}")
            shaped = False
            continue
        for r_idx, row in enumerate(rows):
            if any(not 0.0 <= w <= 1.0 for w in row) or not close(math.fsum(row), 1.0):
                add("weights", f"{where}: weight row {r_idx} {row} is not in [0,1] summing to 1")
            if method.endswith("_plus") and any(w != 1.0 / d.m for w in row):
                add("weights", f"{where}: {method} weight row {r_idx} is not exactly 1/m")
    return shaped


def _check_predictions(d: Data, method: str, cell: dict, pairs, add) -> None:
    sols = cell["solutions"]
    for i, (actual, pred) in enumerate(pairs):
        if method == "abe0":
            want = d.abe0_predict(i, sols[0]["k"])
        else:
            sol = sols[0] if method.startswith("gt") else sols[i]
            want = d.predict(i, sol["k"], sol["mask"], sol["weights_used"])
        if not close(pred, want):
            add("prediction", f"project {i}: reported {pred!r}, recomputed {want!r}")


def _check_metrics(d: Data, cell: dict, pairs, baseline: str, runs: int, add) -> None:
    stored = cell["metrics"]
    got = suite(pairs)
    for key, val in got.items():
        if not close(stored[key], val):
            add("metrics", f"{key}: reported {stored[key]!r}, recomputed {val!r}")
    p0, sd = d.exact_baseline()
    if baseline == "exact":
        sa = 1.0 - got["mae"] / p0
        if not close(stored["sa"], sa):
            add("metrics", f"sa: reported {stored['sa']!r}, recomputed {sa!r}")
        return
    implied = stored["mae"] / (1.0 - stored["sa"])
    se = sd / math.sqrt(runs * d.n)
    if abs(implied - p0) > BASELINE_SIGMAS * se:
        add("baseline", f"sampled baseline {implied!r} is {abs(implied - p0) / se:.1f} "
                        f"standard errors from the exact {p0!r}")


def _check_tournament(ds_name: str, methods, wtl: dict, problems: list) -> None:
    if len(methods) < 2:
        return
    table = wtl.get(ds_name, {})
    if sorted(table) != sorted(methods):
        problems.append(Problem(ds_name, None, "tournament", "tally methods differ from the config"))
        return
    for measure in MEASURES:
        tallies = [table[m][measure] for m in methods]
        wins = sum(t["win"] for t in tallies)
        losses = sum(t["loss"] for t in tallies)
        if wins != losses:
            problems.append(Problem(ds_name, None, "tournament",
                                    f"{measure}: {wins} wins against {losses} losses"))
        for m, t in zip(methods, tallies):
            if t["win"] + t["tie"] + t["loss"] != len(methods) - 1:
                problems.append(Problem(ds_name, None, "tournament",
                                        f"{m}/{measure}: {t} is not {len(methods) - 1} comparisons"))


def check_outputs(report_text: str, predictions_text: str, config: dict,
                  data: dict[str, Data]) -> list[Problem]:
    """Every check on one run's report.json and predictions.csv.

    `config` is the config the run was given; `data` maps each of its
    dataset names to a loaded `Data`.
    """
    report = json.loads(report_text)
    predictions = read_predictions(predictions_text)
    methods = list(config["methods"])
    baseline = "exact" if config.get("baseline", "exact") == "exact" else "sampled"
    runs = config["baseline"]["sampled"] if baseline == "sampled" else 0
    problems: list[Problem] = []

    echo = report["config"]
    if (echo["seed"] != config["seed"] or echo["methods"] != methods
            or [d["name"] for d in echo["datasets"]] != list(config["datasets"])):
        for ds_name in config["datasets"]:
            problems.append(Problem(ds_name, None, "config", "report echoes another config"))
        return problems

    for ds_name in config["datasets"]:
        d = data[ds_name]
        for method in methods:
            def add(tag, message, _m=method):
                problems.append(Problem(ds_name, _m, tag, message))

            cell = report["results"].get(ds_name, {}).get(method)
            pairs = predictions.get((ds_name, method))
            if cell is None or pairs is None:
                add("missing", "no result for this cell")
                continue
            if ([a for a, _ in pairs] != d.efforts or cell["actuals"] != d.efforts
                    or [p for _, p in pairs] != cell["predictions"]):
                add("pairs", "actuals or predictions differ between report.json, "
                             "predictions.csv and the dataset")
                continue
            if _check_solutions(d, method, cell, add):
                _check_predictions(d, method, cell, pairs, add)
            _check_metrics(d, cell, pairs, baseline, runs, add)
        _check_tournament(ds_name, methods, report["win_tie_loss"], problems)
    return problems


def failed_cells(problems, config: dict) -> set:
    """The (dataset, method) cells that at least one problem touches."""
    cells = set()
    for p in problems:
        if p.method is None:
            cells.update((p.dataset, m) for m in config["methods"])
        else:
            cells.add((p.dataset, p.method))
    return cells
