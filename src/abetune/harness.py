"""Experiment orchestration: config, method registry, reports.

An experiment is a (datasets x methods) grid evaluated under leave-one-out
cross validation.  Every stochastic step is seeded from the single config
seed, reports are recomputed from the stored per-project prediction pairs
before emission, and the machine-format JSON report is byte-identical for a
given (config, seed) regardless of thread count.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, datasets, metrics, stats, tuning
from .data import StandardizedDataset, pipeline
from .errors import AbetuneError, BoundsError, ConfigError
from .mopso import MopsoConfig

MEASURES = ("sa", "mbre", "mibre", "lsd", "mae")
COMPARISON_HEADER = "dataset,method_a,method_b,p_value," + ",".join(MEASURES)

METHOD_ORDER = ("abe0", "lt", "gt", "lt_star", "gt_star", "lt_plus", "gt_plus")

DISPLAY_NAMES = {
    "abe0": "ABE0",
    "lt": "LT",
    "gt": "GT",
    "lt_star": "LT*",
    "gt_star": "GT*",
    "lt_plus": "LT+",
    "gt_plus": "GT+",
}

@dataclass(frozen=True)
class DatasetConfig:
    name: str
    path: str | None = None  # None -> bundled dataset of that name
    effort_column: str | None = None
    categorical_columns: tuple = ()
    excluded_columns: tuple = ()


# The MopsoConfig fields a config may set, with their defaults: all but the
# seed, which is the config's own.
MOPSO_SETTINGS = {f.name: f.default for f in fields(MopsoConfig) if f.name != "seed"}


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple
    methods: tuple
    mopso: MopsoConfig
    seed: int
    baseline: str = "exact"          # "exact" or "sampled"
    baseline_runs: int = 100_000
    mode: str = "oracle"             # oracle | honest (local tuning objective)
    output_dir: str = "out"

    def echo(self) -> dict:
        """Semantic config echo for the report; execution-only knobs
        (threads, output paths) are deliberately excluded so reports stay
        byte-identical across schedulers."""
        mopso = {name: getattr(self.mopso, name) for name in MOPSO_SETTINGS}
        mopso["inertia"] = list(mopso["inertia"])
        return {
            "datasets": [
                {
                    "name": d.name,
                    "path": d.path,
                    "effort_column": d.effort_column,
                    "categorical_columns": list(d.categorical_columns),
                    "excluded_columns": list(d.excluded_columns),
                }
                for d in self.datasets
            ],
            "methods": list(self.methods),
            "mopso": mopso,
            "seed": self.seed,
            "baseline": self.baseline,
            "baseline_runs": self.baseline_runs,
            "mode": self.mode,
        }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_list(v) -> bool:
    return isinstance(v, (list, tuple))


def _misfit(value, default) -> str | None:
    """What a MopsoConfig setting with this default must be, or None when
    the value fits."""
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, int):
        return None if _is_int(value) else "an integer"
    if isinstance(default, float):
        return None if _is_number(value) else "a finite number"
    if _is_list(value) and len(value) == len(default) and all(map(_is_number, value)):
        return None
    return f"a list of {len(default)} finite numbers"


def _string_list(entry: dict, key: str, where: str) -> tuple:
    value = entry.get(key, [])
    if not _is_list(value) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where}: {key} must be a list of strings")
    return tuple(value)


def _dataset_config(entry, base_dir: Path | None) -> DatasetConfig:
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        raise ConfigError("dataset entries must be a name or an object")
    for key in ("name", "path", "effort_column"):
        if entry.get(key) is not None and not isinstance(entry[key], str):
            raise ConfigError(f"dataset {key} must be a string, got {entry[key]!r}")
    name = entry.get("name")
    path = entry.get("path")
    if not name and not path:
        raise ConfigError("dataset entries need a name or a path")
    if path is None and name not in datasets.BUNDLED:
        raise ConfigError(f"unknown bundled dataset {name!r}")
    if path is not None:
        path = str((base_dir / path) if base_dir and not Path(path).is_absolute() else Path(path))
        if not entry.get("effort_column"):
            raise ConfigError(f"dataset {name or path!r}: effort_column is required with a path")
    where = f"dataset {name or path!r}"
    return DatasetConfig(
        name=name or Path(path).stem,
        path=path,
        effort_column=entry.get("effort_column"),
        categorical_columns=_string_list(entry, "categorical_columns", where),
        excluded_columns=_string_list(entry, "excluded_columns", where),
    )


def _mopso_config(mraw, seed: int) -> MopsoConfig:
    if not isinstance(mraw, dict):
        raise ConfigError("mopso must be an object")
    unknown = sorted(set(mraw) - set(MOPSO_SETTINGS))
    if unknown:
        raise ConfigError(f"unknown mopso settings {unknown}; choose from {sorted(MOPSO_SETTINGS)}")
    for key, value in mraw.items():
        expected = _misfit(value, MOPSO_SETTINGS[key])
        if expected:
            raise ConfigError(f"mopso {key} must be {expected}, got {value!r}")
    values = {k: tuple(v) if _is_list(v) else v for k, v in mraw.items()}
    try:
        return MopsoConfig(seed=seed, **values)
    except BoundsError as exc:
        raise ConfigError(f"bad mopso settings: {exc}") from exc


def parse_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a JSON config dict into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if "seed" not in raw:
        raise ConfigError("config must set an explicit seed (no wall-clock seeding)")
    seed = raw["seed"]
    if not _is_int(seed) or seed < 0 or seed >= 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")

    ds_raw = raw.get("datasets") or []
    if not _is_list(ds_raw):
        raise ConfigError("datasets must be a list")
    if not ds_raw:
        raise ConfigError("config needs at least one dataset")
    ds_cfgs = [_dataset_config(entry, base_dir) for entry in ds_raw]

    methods = raw.get("methods") or []
    if not _is_list(methods):
        raise ConfigError("methods must be a list")
    methods = tuple(methods)
    if not methods:
        raise ConfigError("config needs at least one method")
    unknown = [m for m in methods if m not in METHOD_ORDER]
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; choose from {list(METHOD_ORDER)}")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"methods repeat: {list(methods)}")

    mopso_cfg = _mopso_config(raw.get("mopso", {}), seed)

    baseline = raw.get("baseline", "exact")
    baseline_runs = 100_000
    if isinstance(baseline, dict):
        runs = baseline.get("sampled")
        if list(baseline) != ["sampled"] or not _is_int(runs) or runs < 1:
            raise ConfigError('baseline must be "exact" or {"sampled": runs}, runs >= 1')
        baseline, baseline_runs = "sampled", runs
    elif baseline != "exact":
        raise ConfigError('baseline must be "exact" or {"sampled": runs}, runs >= 1')

    mode = raw.get("mode", "oracle")
    if mode not in ("oracle", "honest"):
        raise ConfigError('mode must be "oracle" or "honest"')

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")

    return ExperimentConfig(
        datasets=tuple(ds_cfgs),
        methods=methods,
        mopso=mopso_cfg,
        seed=seed,
        baseline=baseline,
        baseline_runs=baseline_runs,
        mode=mode,
        output_dir=output_dir,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(raw, base_dir=path.parent)


def load_dataset_from_config(cfg: DatasetConfig) -> StandardizedDataset:
    if cfg.path is None:
        return datasets.load_bundled(cfg.name)
    return pipeline(cfg.path, cfg.effort_column, cfg.categorical_columns,
                    cfg.excluded_columns, name=cfg.name)


# ---------------------------------------------------------------------------
# method registry
# ---------------------------------------------------------------------------

@contextmanager
def worker_map(threads: int):
    """The map every LT fold of a run goes through: the builtin `map` at one
    thread, otherwise the `map` of one pool of `threads` worker processes,
    opened at the first fold and shut down when the block ends.  A run
    without LT cells thus loads no multiprocessing and starts no worker."""
    if threads <= 1:
        yield map
        return
    pool = None

    def pool_map(fn, items):
        nonlocal pool
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=threads)
        return pool.map(fn, items)

    try:
        yield pool_map
    finally:
        if pool is not None:
            pool.shutdown()


def run_method(name: str, ds: StandardizedDataset, cfg: MopsoConfig, mode: str = "oracle",
               fold_map=map) -> tuning.TuningResult:
    """One (dataset, method) cell with its solutions in report form.  LT
    folds go through `fold_map`; GT and the ABE0 scan run in this process."""
    if name == "abe0":
        k, preds = tuning.best_k_abe0(ds)
        return tuning.TuningResult(predictions=preds, solutions=[{"k": k}], mode="best_k_scan")
    if name not in tuning.VARIANTS:
        raise ConfigError(f"unknown method {name!r}")
    variant = tuning.VARIANTS[name]
    if variant.mode == "global":
        result = tuning.run_gt(ds, variant, cfg)
    else:
        if mode == "honest":
            variant = replace(variant, mode="local_honest")
        result = tuning.run_lt(ds, variant, cfg, fold_map=fold_map)
    return replace(result, solutions=[_solution_summary(s) for s in result.solutions])


def _solution_summary(sol: tuning.SolutionVector) -> dict:
    return {
        "k": sol.k,
        "v": sol.mask_int,
        "mask": list(sol.mask.bits),
        "n_rows": int(sol.weights.shape[0]),
        "weights_used": [list(map(float, row)) for row in sol.weights[: sol.k]],
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class EvaluationReport:
    engine_version: str
    config: dict
    results: dict       # dataset -> method -> cell dict
    comparisons: dict   # dataset -> list of comparison dicts
    win_tie_loss: dict  # dataset -> method -> measure -> {win,tie,loss}
    rank_summaries: dict  # measure -> list of {method, mean_rank, rank_sd}

    def to_json(self) -> str:
        payload = {
            "engine_version": self.engine_version,
            "config": self.config,
            "results": self.results,
            "comparisons": self.comparisons,
            "win_tie_loss": self.win_tie_loss,
            "rank_summaries": self.rank_summaries,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvaluationReport":
        payload = json.loads(text)
        return cls(
            engine_version=payload["engine_version"],
            config=payload["config"],
            results=payload["results"],
            comparisons=payload["comparisons"],
            win_tie_loss=payload["win_tie_loss"],
            rank_summaries=payload["rank_summaries"],
        )


def _suite_dict(suite: metrics.MetricSuite) -> dict:
    return {
        "mae": suite.mae,
        "sa": suite.sa,
        "mbre": suite.mbre,
        "mibre": suite.mibre,
        "lsd": suite.lsd,
        "effect_size": suite.effect_size,
        "n": suite.n,
    }


def _compute_suite(actuals, preds, baseline) -> metrics.MetricSuite:
    records = [metrics.PredictionRecord(a, p) for a, p in zip(actuals, preds)]
    return metrics.aggregate(records, baseline)


def _baseline(efforts, cfg: ExperimentConfig) -> metrics.RandomGuessBaseline:
    if cfg.baseline == "exact":
        return metrics.random_guess_baseline(efforts)
    return metrics.random_guess_baseline(
        efforts, mode="sampled", runs=cfg.baseline_runs, seed=cfg.seed)


def compare_methods(actuals, predictions: dict, baseline) -> tuple[dict, list, dict]:
    """Score each method's predictions of one dataset against its actuals:
    per method the metric suite in report form, then, with two or more
    methods, the pairwise comparisons and the win/tie/loss tallies."""
    suites = {m: _suite_dict(_compute_suite(actuals, p, baseline))
              for m, p in predictions.items()}
    if len(predictions) < 2:
        return suites, [], {}
    errors = {m: np.abs(actuals - p) for m, p in predictions.items()}
    measures = {m: {e: s[e] for e in MEASURES} for m, s in suites.items()}
    tallies, comps = stats.win_tie_loss(errors, measures)
    comparisons = [
        {
            "method_a": c.method_a,
            "method_b": c.method_b,
            "p_value": c.p_value,
            "outcomes": dict(c.outcomes),
        }
        for c in comps
    ]
    wtl = {
        m: {e: {"win": t.win, "tie": t.tie, "loss": t.loss} for e, t in tallies[m].items()}
        for m in tallies
    }
    return suites, comparisons, wtl


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> EvaluationReport:
    """Evaluate every (dataset, method) cell and assemble the full report."""
    results: dict = {}
    comparisons: dict = {}
    wtl: dict = {}
    measure_tables: dict = {m: {} for m in MEASURES}

    loaded = [load_dataset_from_config(d) for d in cfg.datasets]  # fail before any tuning
    with worker_map(threads) as fold_map:
        for ds in loaded:
            efforts = ds.efforts()
            ran = {}
            for method in cfg.methods:
                try:
                    ran[method] = run_method(method, ds, cfg.mopso, mode=cfg.mode,
                                             fold_map=fold_map)
                except AbetuneError as exc:
                    raise AbetuneError(f"dataset {ds.name!r}, method {method!r}: {exc}") from exc
            suites, comparisons[ds.name], wtl[ds.name] = compare_methods(
                efforts, {m: res.predictions for m, res in ran.items()}, _baseline(efforts, cfg))
            results[ds.name] = {
                method: {
                    "metrics": suites[method],
                    "actuals": [float(a) for a in efforts],
                    "predictions": [float(p) for p in res.predictions],
                    "solutions": res.solutions,
                    "mode": res.mode,
                }
                for method, res in ran.items()
            }
            for method, suite in suites.items():
                for m in MEASURES:
                    measure_tables[m].setdefault(ds.name, {})[method] = suite[m]

    rank_summaries = {}
    if len(cfg.methods) >= 2:
        for m in MEASURES:
            table = measure_tables[m]
            summaries = stats.rank_methods(table, measure=m,
                                           higher_is_better=(m in stats.HIGHER_IS_BETTER))
            rank_summaries[m] = [
                {"method": s.method, "mean_rank": s.mean_rank, "rank_sd": s.rank_sd}
                for s in summaries
            ]

    report = EvaluationReport(
        engine_version=__version__,
        config=cfg.echo(),
        results=results,
        comparisons=comparisons,
        win_tie_loss=wtl,
        rank_summaries=rank_summaries,
    )
    _verify_report(report, cfg)
    return report


def _verify_report(report: EvaluationReport, cfg: ExperimentConfig) -> None:
    """Recompute every metric suite from the stored prediction pairs and
    insist on exact agreement before anything is emitted.  The cells of a
    dataset must carry the same actuals, so its baseline is computed once."""
    for ds_name, cells in report.results.items():
        actuals = next(iter(cells.values()))["actuals"]
        baseline = _baseline(np.array(actuals), cfg)
        for method, cell in cells.items():
            if cell["actuals"] != actuals:
                raise AbetuneError(f"report self-check failed: {ds_name}/{method}: "
                                   "actuals differ from the dataset's other cells")
            suite = _compute_suite(np.array(actuals), np.array(cell["predictions"]), baseline)
            stored = cell["metrics"]
            for key, val in _suite_dict(suite).items():
                prev = stored[key]
                same = (prev == val) or (isinstance(prev, float) and isinstance(val, float)
                                         and math.isnan(prev) and math.isnan(val))
                if not same:
                    raise AbetuneError(
                        f"report self-check failed: {ds_name}/{method}/{key}: "
                        f"{prev!r} != {val!r}")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.4g}"


def _human_value(measure: str, value: float) -> str:
    if measure == "sa":
        return f"{100.0 * value:.1f}" if not math.isnan(value) else "nan"
    return _fmt(value)


def comparison_line(dataset: str, comp: dict) -> str:
    """One comparisons.csv row (see COMPARISON_HEADER)."""
    row = [dataset, comp["method_a"], comp["method_b"], _fmt(comp["p_value"])]
    return ",".join(row + [comp["outcomes"].get(e, "") for e in MEASURES])


def emit_report(report: EvaluationReport, out_dir) -> list:
    """Write the report files; returns the list of paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    ds_names = list(report.results)
    methods = list(next(iter(report.results.values()))) if ds_names else []

    path = out / "report.json"
    path.write_text(report.to_json(), encoding="utf-8")
    written.append(path)

    header = ["dataset"] + [f"{m}_{e}" for m in methods for e in MEASURES]
    lines = [",".join(header)]
    for d in ds_names:
        row = [d]
        for m in methods:
            for e in MEASURES:
                row.append(_human_value(e, report.results[d][m]["metrics"][e]))
        lines.append(",".join(row))
    path = out / "metrics.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    lines = [COMPARISON_HEADER]
    for d in ds_names:
        lines.extend(comparison_line(d, comp) for comp in report.comparisons[d])
    path = out / "comparisons.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    lines = ["dataset,method,measure,win,tie,loss"]
    for d in ds_names:
        for m, per_measure in report.win_tie_loss[d].items():
            for e, t in per_measure.items():
                lines.append(f"{d},{m},{e},{t['win']},{t['tie']},{t['loss']}")
    path = out / "win_tie_loss.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    lines = ["dataset,method,project_index,actual,predicted"]
    for d in ds_names:
        for m in methods:
            cell = report.results[d][m]
            for i, (a, p) in enumerate(zip(cell["actuals"], cell["predictions"])):
                lines.append(f"{d},{m},{i},{a!r},{p!r}")
    path = out / "predictions.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    if report.rank_summaries:
        lines = ["measure,method,mean_rank,rank_sd"]
        for e, summaries in report.rank_summaries.items():
            for s in summaries:
                lines.append(f"{e},{s['method']},{_fmt(s['mean_rank'])},{_fmt(s['rank_sd'])}")
        path = out / "ranks.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

    written.extend(_emit_k_histograms(report, out))

    path = out / "metrics.md"
    path.write_text(_markdown_metrics(report, ds_names, methods), encoding="utf-8")
    written.append(path)

    return written


def _emit_k_histograms(report: EvaluationReport, out: Path) -> list:
    """Gnuplot-style 'k count' files for methods with per-project solutions."""
    written = []
    for d, cells in report.results.items():
        for m, cell in cells.items():
            sols = cell["solutions"]
            if len(sols) < 2 or not all("k" in s for s in sols):
                continue
            counts: dict[int, int] = {}
            for s in sols:
                counts[s["k"]] = counts.get(s["k"], 0) + 1
            lines = [f"{k} {counts[k]}" for k in sorted(counts)]
            path = out / f"k_hist_{d}_{m}.dat"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written


def _markdown_metrics(report: EvaluationReport, ds_names, methods) -> str:
    header = "| dataset | " + " | ".join(
        f"{DISPLAY_NAMES.get(m, m)} {e.upper()}" for m in methods for e in MEASURES) + " |"
    sep = "|" + "---|" * (1 + len(methods) * len(MEASURES))
    lines = [header, sep]
    for d in ds_names:
        row = [d]
        for m in methods:
            for e in MEASURES:
                row.append(_human_value(e, report.results[d][m]["metrics"][e]))
        lines.append("| " + " | ".join(row) + " |")
    mode_note = report.config.get("mode", "oracle")
    lines.append("")
    lines.append(f"SA shown as a percentage. Local tuning objective mode: {mode_note}.")
    return "\n".join(lines) + "\n"
