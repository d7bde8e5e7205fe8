"""Experiment orchestration: config, the cells of a run, reports.

An experiment is a (datasets x methods) grid evaluated under leave-one-out
cross validation; `run_experiment` turns a config into its report, the whole
grid for `abetune run` and one cell for `abetune tune`.  The run's work
goes through one `worker_map`, every sampled baseline, GT cell and LT fold
of the run mapped when it starts; a pool runs them in guided chunks while
the ABE0 scans, the exact baselines and the scoring stay in this process
and overlap them.
Every stochastic step is seeded from the single config seed,
reports are recomputed from the stored per-project prediction pairs before
emission, and the machine-format JSON report is byte-identical for a given
(config, seed) regardless of thread count.

The streams are deliberate common random numbers across the methods of a
dataset: every GT run, for every dataset and GT method, draws from
`default_rng(cfg.seed)`; the sampled random-guess baseline uses
`seed=cfg.seed`; fold i of every dataset and LT variant draws from
`tuning._fold_seed(cfg.seed, i)`.  Giving any of them its own stream would
move `report.json` bytes.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, datasets, metrics, stats, tuning
from .data import MAX_INPUT_FEATURES, StandardizedDataset, load_dataset
from .errors import AbetuneError, BoundsError, ConfigError
from .mopso import MopsoConfig

MEASURES = ("sa", "mbre", "mibre", "lsd", "mae")
COMPARISON_HEADER = "dataset,method_a,method_b,p_value," + ",".join(MEASURES)

# The ABE0 baseline, then the tuned methods.
METHOD_ORDER = ("abe0", *tuning.VARIANTS)


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

# The keys a config object may have; a key a run would ignore is a typo.
CONFIG_KEYS = ("seed", "datasets", "methods", "mopso", "baseline", "mode", "output_dir")
DATASET_KEYS = tuple(f.name for f in fields(DatasetConfig))


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
        byte-identical across schedulers.  Tuples serialize as JSON arrays."""
        return {
            "datasets": [asdict(d) for d in self.datasets],
            "methods": list(self.methods),
            "mopso": {name: getattr(self.mopso, name) for name in MOPSO_SETTINGS},
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


def _check_keys(raw: dict, allowed, what: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} {unknown}; choose from {sorted(allowed)}")


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
    _check_keys(entry, DATASET_KEYS, "dataset keys")
    for key in ("name", "path", "effort_column"):
        if entry.get(key) is not None and not isinstance(entry[key], str):
            raise ConfigError(f"dataset {key} must be a string, got {entry[key]!r}")
    name = entry.get("name")
    path = entry.get("path")
    if name and ("/" in name or "\\" in name):
        raise ConfigError(f"dataset name {name!r} contains a path separator; report files "
                          "are named after it")
    if not name and not path:
        raise ConfigError("dataset entries need a name or a path")
    if path is None:
        if name not in datasets.BUNDLED:
            raise ConfigError(f"unknown bundled dataset {name!r}")
        roles = [key for key in ("effort_column", "categorical_columns", "excluded_columns")
                 if entry.get(key)]
        if roles:
            raise ConfigError(f"dataset {name!r}: {', '.join(roles)} can be set only with a "
                              "path; a bundled table has its own column roles")
    else:
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
    _check_keys(mraw, MOPSO_SETTINGS, "mopso settings")
    for key, value in mraw.items():
        expected = _misfit(value, MOPSO_SETTINGS[key])
        if expected:
            raise ConfigError(f"mopso {key} must be {expected}, got {value!r}")
    values = {k: tuple(v) if _is_list(v) else v for k, v in mraw.items()}
    try:
        cfg = MopsoConfig(seed=seed, **values)
    except BoundsError as exc:
        raise ConfigError(f"bad mopso settings: {exc}") from exc
    _check_velocity_range(cfg, [k for k in ("inertia", "c1", "c2") if k in mraw])
    return cfg


# The widest dimension of any tuning box: the mask's, [1, 2^m - 1] at the
# most input features a dataset may have.
WIDEST_RANGE = 2.0 ** MAX_INPUT_FEATURES - 2.0


def _check_velocity_range(cfg: MopsoConfig, given: list) -> None:
    """Reject swarm coefficients (the config's own: `given`) under which a
    velocity step overflows.  Positions stay in the box and every step
    clamps a velocity to a quarter of its range, so the step's terms w V,
    c1 R1 (PB - X) and c2 R2 (G - X) add up to at most (|w|/4 + |c1| + |c2|)
    times the widest range; that, and the inertia's decay w_end - w_start,
    must be finite."""
    w_start, w_end = cfg.inertia
    if not math.isfinite(w_end - w_start):
        raise ConfigError(f"mopso inertia {list(cfg.inertia)}: its decay w_end - w_start "
                          "overflows")
    w = max(abs(w_start), abs(w_end))
    if not math.isfinite((w / 4 + abs(cfg.c1) + abs(cfg.c2)) * WIDEST_RANGE):
        raise ConfigError(f"mopso settings {given} are too large: a velocity step, up to "
                          f"(|w|/4 + |c1| + |c2|) x {WIDEST_RANGE:.0f} (the widest box "
                          "range), overflows")


def parse_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a JSON config dict into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, CONFIG_KEYS, "config keys")
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
    names = [d.name for d in ds_cfgs]
    if len(set(names)) != len(names):
        raise ConfigError(f"dataset names repeat: {names}; give each dataset its own name")

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


def load_config(path, **overrides) -> ExperimentConfig:
    """A JSON config file, validated after `overrides` (the CLI's) replace
    its top-level keys."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if isinstance(raw, dict):
        raw.update(overrides)
    return parse_config(raw, base_dir=path.parent)


def load_dataset_from_config(cfg: DatasetConfig) -> StandardizedDataset:
    if cfg.path is None:
        return datasets.load_bundled(cfg.name)
    return load_dataset(cfg.path, cfg.effort_column, cfg.categorical_columns,
                        cfg.excluded_columns, name=cfg.name)


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

# Guided self-scheduling's divisor: a chunk takes 1 / (GUIDE_DIVISOR x
# workers) of the items not yet handed out, rounded up.
GUIDE_DIVISOR = 4


def guided_chunks(items: list, workers: int) -> list:
    """`items` split, in order, into the chunks of guided self-scheduling
    (Polychronopoulos & Kuck, IEEE TC 1987): each takes ceil(left /
    (GUIDE_DIVISOR x workers)) of the `left` items not yet taken, so the
    sizes shrink from about n / (GUIDE_DIVISOR x workers) to 1, and once at
    most GUIDE_DIVISOR x workers items are left they go one by one."""
    chunks, start = [], 0
    while start < len(items):
        size = -(-(len(items) - start) // (GUIDE_DIVISOR * workers))
        chunks.append(items[start:start + size])
        start += size
    return chunks


def _run_chunk(fn, chunk: list) -> list:
    """One pool task: `fn` of each item of a chunk, in order."""
    return [fn(item) for item in chunk]


@contextmanager
def worker_map(threads: int):
    """The map every sampled baseline, GT cell and LT fold of a run goes
    through.  With a pool, a map submits every task at once and returns an
    iterator over the results in item order, like the `map` of a process
    pool; its items are handed out in `guided_chunks`, one pool task per
    chunk, so that a thousand two-millisecond folds are not a thousand round
    trips.  The pool has `threads` worker processes, at most one per CPU
    this process may run on (its affinity set, where the platform reports
    one), and is opened at the first map of two or more items.  At one
    thread, or for a map of one item (or none), the items run lazily in this
    process, as the builtin `map` runs them, so a run with a single GT cell,
    no LT cell and an exact baseline or a single dataset starts no worker.
    The pool is shut down when the block ends; when it ends on an exception,
    the tasks still queued are cancelled, so the error surfaces once the
    running ones finish."""
    pool = None
    workers = 1

    def pool_map(fn, items):
        nonlocal pool, workers
        items = list(items)
        if threads <= 1 or len(items) <= 1:
            return map(fn, items)
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            workers = min(threads, cpus)
            pool = ProcessPoolExecutor(max_workers=workers)
        return chain.from_iterable(pool.map(partial(_run_chunk, fn), guided_chunks(items, workers)))

    try:
        yield pool_map
    except BaseException:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        raise
    if pool is not None:
        pool.shutdown()


def run_method(name: str, ds: StandardizedDataset, cfg: MopsoConfig, honest: bool = False,
               fold_map=map) -> tuning.TuningResult:
    """One (dataset, method) cell with its solutions in report form.  LT
    folds go through `fold_map` and score honestly when `honest`; GT and the
    ABE0 scan run in the calling process."""
    if name == "abe0":
        k, preds = tuning.best_k_abe0(ds)
        return tuning.TuningResult(predictions=preds, solutions=[{"k": k}], mode="best_k_scan")
    variant = tuning.VARIANTS[name]
    if variant.shared:
        return tuning.run_gt(ds, variant, cfg)
    return tuning.run_lt(ds, variant, cfg, honest=honest, fold_map=fold_map)


def _is_shared(method: str) -> bool:
    return method in tuning.VARIANTS and tuning.VARIANTS[method].shared


def _is_local(method: str) -> bool:
    return method in tuning.VARIANTS and not tuning.VARIANTS[method].shared


def _shared_cell(cfg: MopsoConfig, cell: tuple) -> tuning.TuningResult:
    """A (method, dataset) cell of a shared variant, as one `worker_map` task."""
    method, ds = cell
    return run_method(method, ds, cfg)


def _baseline(cfg: ExperimentConfig, efforts) -> metrics.RandomGuessBaseline:
    """A dataset's random-guess baseline, as `cfg` asks for it; a sampled
    one is a `worker_map` task."""
    return metrics.random_guess_baseline(efforts, mode=cfg.baseline, runs=cfg.baseline_runs,
                                         seed=cfg.seed)


def _mapped(results):
    """A `fold_map` for `tuning.run_lt` whose folds were handed to the
    `worker_map` in advance: it returns `results`, the map of the cell's
    `tuning.lt_fold` over its project indices, whatever it is given."""
    return lambda fn, items: results


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def compare_methods(actuals, predictions: dict, baseline) -> tuple[dict, list, dict]:
    """Score each method's predictions of one dataset against its actuals:
    per method the metric suite, then, with two or more methods, the
    pairwise comparisons and the win/tie/loss tallies, all in report form."""
    suites = {m: metrics.aggregate(actuals, p, baseline) for m, p in predictions.items()}
    if len(predictions) < 2:
        return suites, [], {}
    errors = {m: np.abs(actuals - p) for m, p in predictions.items()}
    measures = {m: {e: s[e] for e in MEASURES} for m, s in suites.items()}
    wtl, comparisons = stats.win_tie_loss(errors, measures)
    return suites, comparisons, wtl


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Evaluate every (dataset, method) cell and assemble the full report,
    as the dict that `report_chunks` serializes.  A tuned solution keeps
    its `weights_used` as the (k, m) float64 array that
    `tuning.decode_position` made from the same decode as its predictions,
    which `report.json` writes as lists of rows.

    The whole run is handed to the `worker_map` before the first cell is
    assembled: every dataset's sampled baseline, then every GT cell, then
    the folds of every LT cell (`tuning.lt_fold`), each in (dataset, method)
    order, so that this process only assembles.  An exact baseline costs
    less than a pool round trip and is computed here when the loop reaches
    its dataset.
    With a pool, the ABE0 scans and the scoring, which stay in this process,
    overlap the workers; at one thread the maps are lazy and every baseline
    and cell computes when the loop reaches it.  Either way the loop takes
    each dataset's baseline, then assembles its cells in method order, an
    LT cell through `run_method` and `tuning.run_lt` with the cell's already
    mapped folds.  A sampled baseline draws only from `default_rng(cfg.seed)`,
    as a GT swarm does, and fold i from `tuning._fold_seed`, so where and
    when a task runs does not move the bytes."""
    results: dict = {}
    comparisons: dict = {}
    wtl: dict = {}
    drawn: dict = {}

    honest = cfg.mode == "honest"
    loaded = [load_dataset_from_config(d) for d in cfg.datasets]  # fail before any tuning
    with worker_map(threads) as task_map:
        # an exact baseline costs less than a pool round trip
        baselines = (task_map if cfg.baseline == "sampled" else map)(
            partial(_baseline, cfg), [ds.effort_vec for ds in loaded])
        shared = task_map(partial(_shared_cell, cfg.mopso),
                          [(m, ds) for ds in loaded for m in cfg.methods if _is_shared(m)])
        local = {(ds.name, m): task_map(partial(tuning.lt_fold, ds, tuning.VARIANTS[m],
                                                cfg.mopso, honest), range(ds.n))
                 for ds in loaded for m in cfg.methods if _is_local(m)}
        for ds in loaded:
            efforts = ds.effort_vec
            drawn[ds.name] = efforts, next(baselines)
            ran = {}
            for method in cfg.methods:
                try:
                    ran[method] = next(shared) if _is_shared(method) else run_method(
                        method, ds, cfg.mopso, honest=honest,
                        fold_map=_mapped(local.pop((ds.name, method), None)))
                except AbetuneError as exc:
                    raise AbetuneError(f"dataset {ds.name!r}, method {method!r}: {exc}") from exc
            suites, comparisons[ds.name], wtl[ds.name] = compare_methods(
                efforts, {m: res.predictions for m, res in ran.items()}, drawn[ds.name][1])
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

    rank_summaries = {}
    if len(cfg.methods) >= 2:
        for e in MEASURES:
            table = {d: {m: cell["metrics"][e] for m, cell in cells.items()}
                     for d, cells in results.items()}
            rank_summaries[e] = stats.rank_methods(
                table, higher_is_better=e in stats.HIGHER_IS_BETTER)

    report = {
        "engine_version": __version__,
        "config": cfg.echo(),
        "results": results,
        "comparisons": comparisons,
        "win_tie_loss": wtl,
        "rank_summaries": rank_summaries,
    }
    _verify_report(report, drawn)
    return report


def _verify_report(report: dict, drawn: dict) -> None:
    """Recompute every metric suite from the stored prediction pairs, with
    the baseline that scored them, and insist on exact agreement before
    anything is emitted.  `drawn` maps a dataset to (efforts, baseline), and
    every cell's actuals must be exactly the efforts its baseline came from."""
    for ds_name, cells in report["results"].items():
        efforts, baseline = drawn[ds_name]
        actuals = [float(a) for a in efforts]
        for method, cell in cells.items():
            if cell["actuals"] != actuals:
                raise AbetuneError(f"report self-check failed: {ds_name}/{method}: "
                                   "actuals differ from the efforts the baseline was drawn from")
            suite = metrics.aggregate(actuals, cell["predictions"], baseline)
            stored = cell["metrics"]
            for key, val in suite.items():
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


def _float_rows(value) -> list:
    """`_ENCODE`'s hook: a float64 array, a tuned solution's `weights_used`,
    as the nested lists of Python floats whose text `report.json` holds.
    Anything else is the encoder's TypeError."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# The report's one serializer: `json.dumps(value, sort_keys=True,
# separators=(",", ":"))`, with the default `ensure_ascii` and `allow_nan`,
# built once instead of on every call, and with `_float_rows` for the
# solutions' weight arrays.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_float_rows).encode


def report_chunks(value, depth: int = 5):
    """The machine-format report in pieces: their concatenation is
    `json.dumps(value, sort_keys=True, separators=(",", ":"))`, one line
    without its newline.  A non-empty dict, or a list of dicts, in the top
    `depth` levels is written item by item, a dict in sorted key order;
    every other value is one `_ENCODE` call.  The five levels reach a
    method cell's `solutions`, so a piece is at most one tuned solution
    (their `weights_used` rows make up almost all of a report), and neither
    the whole text nor a cell's is ever held.  A solution's `weights_used`
    array becomes lists only inside its own piece's `_ENCODE` call, so at
    most one solution's lists exist at a time."""
    if depth and isinstance(value, dict) and value:
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + _ENCODE(key) + ":"
            yield from report_chunks(value[key], depth - 1)
        yield "}"
    elif depth and isinstance(value, list) and value and isinstance(value[0], dict):
        for i, item in enumerate(value):
            yield "," if i else "["
            yield from report_chunks(item, depth - 1)
        yield "]"
    else:
        yield _ENCODE(value)


def _write(path: Path, pieces) -> None:
    """Write the text `pieces` to `path` as they come.  When making or
    writing a piece raises, the file is removed before the error goes on,
    so no truncated file is left behind."""
    try:
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def write_files(out_dir, files: dict) -> list:
    """Write each {file name: lines} entry of `files` into `out_dir` (made
    when missing), line by line, each line ended by a newline; returns the
    paths written, in the order of `files`.  A file whose write raises is
    removed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, lines in files.items():
        path = out / name
        _write(path, (line + "\n" for line in lines))
        written.append(path)
    return written


def emit_report(report: dict, out_dir) -> list:
    """Write report.json, its CSV and Markdown views and a gnuplot-style
    'k count' histogram per cell with per-project solutions; returns the
    paths written, report.json first.  report.json is streamed from
    `report_chunks` and written before the other files; when it cannot be
    serialized, it is removed and nothing else is written."""
    results, wtl, ranks = report["results"], report["win_tie_loss"], report["rank_summaries"]
    methods = list(next(iter(results.values()))) if results else []
    grid = [(m, e) for m in methods for e in MEASURES]
    # the metrics rows, one per dataset, of both metrics.csv and metrics.md
    rows = [[d] + [_human_value(e, cells[m]["metrics"][e]) for m, e in grid]
            for d, cells in results.items()]
    files = {
        "metrics.csv": [",".join(["dataset"] + [f"{m}_{e}" for m, e in grid])]
                       + [",".join(row) for row in rows],
        "comparisons.csv": [COMPARISON_HEADER] + [
            comparison_line(d, comp) for d in results for comp in report["comparisons"][d]],
        "win_tie_loss.csv": ["dataset,method,measure,win,tie,loss"] + [
            f"{d},{m},{e},{t['win']},{t['tie']},{t['loss']}"
            for d in results for m, per_measure in wtl[d].items() for e, t in per_measure.items()],
        "predictions.csv": ["dataset,method,project_index,actual,predicted"] + [
            f"{d},{m},{i},{a!r},{p!r}" for d, cells in results.items() for m in methods
            for i, (a, p) in enumerate(zip(cells[m]["actuals"], cells[m]["predictions"]))],
    }
    if ranks:
        files["ranks.csv"] = ["measure,method,mean_rank,rank_sd"] + [
            f"{e},{s['method']},{_fmt(s['mean_rank'])},{_fmt(s['rank_sd'])}"
            for e, summaries in ranks.items() for s in summaries]
    for d, cells in results.items():
        for m, cell in cells.items():
            if len(cell["solutions"]) > 1:
                counts = Counter(s["k"] for s in cell["solutions"])
                files[f"k_hist_{d}_{m}.dat"] = [f"{k} {counts[k]}" for k in sorted(counts)]
    # a method's display name: abe0 -> ABE0, lt_star -> LT*, gt_plus -> GT+
    shown = {m: m.upper().replace("_STAR", "*").replace("_PLUS", "+") for m in methods}
    files["metrics.md"] = [
        "| dataset | " + " | ".join(f"{shown[m]} {e.upper()}" for m, e in grid) + " |",
        "|" + "---|" * (1 + len(grid)),
        *("| " + " | ".join(row) + " |" for row in rows),
        "",
        f"SA shown as a percentage. Local tuning objective mode: "
        f"{report['config'].get('mode', 'oracle')}.",
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    _write(path, chain(report_chunks(report), ["\n"]))
    return [path, *write_files(out, files)]
