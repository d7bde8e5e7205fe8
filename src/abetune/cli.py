"""Command line front end.

Verbs: `run` an experiment from a JSON config, `tune` a single dataset with
one method and print the chosen solutions, `compare` previously written
prediction files, `validate` a config without running it.  `run` and `tune`
both go through `harness.run_experiment`: `tune` runs the config narrowed
to its one (dataset, method) cell.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data, harness, metrics
from .errors import AbetuneError, ConfigError, InsufficientDataError, ParseError, SchemaError

# Everything a config or a dataset file can be rejected for at load.
VALIDATION_ERRORS = (ConfigError, SchemaError, ParseError, InsufficientDataError)


# The shared flags; each verb registers only those it reads.
FLAGS = {
    "config": dict(type=Path, help="experiment config (JSON)"),
    "seed": dict(type=int, help="override the config seed (u64)"),
    "out": dict(type=Path, help="output directory override"),
    "threads": dict(type=int, default=1,
                    help="worker processes for sampled baselines, GT cells and LT folds"),
    "mode": dict(choices=("oracle", "honest"), help="local tuning objective mode override"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abetune",
        description="Analogy-based effort estimation with swarm-tuned adaptation",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a config")
    _add_flags(p_run, "config", "seed", "out", "threads", "mode")

    p_tune = sub.add_parser("tune", help="tune one dataset with one method")
    _add_flags(p_tune, "config", "seed", "threads", "mode")
    p_tune.add_argument("--dataset", required=True, help="dataset name from the config")
    p_tune.add_argument("--method", required=True, choices=harness.METHOD_ORDER)

    p_cmp = sub.add_parser("compare", help="statistics over existing prediction files")
    _add_flags(p_cmp, "out")
    p_cmp.add_argument("predictions", nargs="+", type=Path,
                       help="predictions.csv files (dataset,method,project_index,actual,predicted)")

    p_val = sub.add_parser("validate", help="lint a config and its datasets")
    _add_flags(p_val, "config")

    return parser


def _resolve_config(args) -> harness.ExperimentConfig:
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    if not args.config:
        raise ConfigError("--config is required")
    overrides = {"seed": args.seed, "mode": args.mode}
    return harness.load_config(args.config, **{k: v for k, v in overrides.items() if v is not None})


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    report = harness.run_experiment(cfg, threads=args.threads)
    written = harness.emit_report(report, args.out or cfg.output_dir)
    for path in written:
        print(path)
    return 0


def cmd_tune(args) -> int:
    cfg = _resolve_config(args)
    matches = tuple(d for d in cfg.datasets if d.name == args.dataset)
    if not matches:
        raise ConfigError(f"dataset {args.dataset!r} not in config")
    cfg = replace(cfg, datasets=matches, methods=(args.method,))
    cell = harness.run_experiment(cfg, threads=args.threads)["results"][args.dataset][args.method]
    print(f"dataset={args.dataset} method={args.method} mode={cell['mode']}")
    for i, sol in enumerate(cell["solutions"]):
        if "mask" in sol:
            mask = "".join(str(b) for b in sol["mask"])
            print(f"  solution[{i}]: k={sol['k']} v={sol['v']} mask={mask}")
        else:
            print(f"  solution[{i}]: k={sol['k']}")
    suite = cell["metrics"]
    print(f"  SA={100 * suite['sa']:.1f} MAE={suite['mae']:.4g} MBRE={100 * suite['mbre']:.1f} "
          f"MIBRE={100 * suite['mibre']:.1f} LSD={suite['lsd']:.4g}")
    return 0


# The numbers of a predictions row: column, parser, check, what it must be.
PREDICTION_NUMBERS = (
    ("project_index", int, lambda v: True, "an integer"),
    ("actual", float, lambda v: math.isfinite(v) and v > 0, "a finite positive number"),
    ("predicted", float, math.isfinite, "a finite number"),
)


def _prediction_numbers(path: Path, row_no: int, row: dict) -> tuple:
    """(project_index, actual, predicted) of record `row_no`, or a
    ParseError that names the file, row and column."""
    values = []
    for column, parse, check, want in PREDICTION_NUMBERS:
        try:
            value = parse(row.get(column))
        except (TypeError, ValueError):  # not a number, or a missing cell
            value = None
        if value is None or not check(value):
            raise ParseError(f"{path}: row {row_no}, column '{column}': {row.get(column)!r} "
                             f"is not {want}", row=row_no, column=column)
        values.append(value)
    return tuple(values)


def _read_predictions(path: Path) -> dict:
    """-> {(dataset, method): {project_index: (actual, predicted)}}; an index
    that repeats within a (dataset, method) is a SchemaError."""
    header, *records = data._read_rows(path) or [[]]
    required = {"dataset", "method", "project_index", "actual", "predicted"}
    if not required.issubset(header):
        raise SchemaError(f"{path}: predictions file needs columns {sorted(required)}")
    groups: dict = {}
    for row_no, row in enumerate((dict(zip(header, r)) for r in records), start=2):
        if not row:  # a blank line
            continue
        index, actual, predicted = _prediction_numbers(path, row_no, row)
        group = groups.setdefault((row.get("dataset"), row.get("method")), {})
        if index in group:
            raise SchemaError(f"{path}: row {row_no}: project_index {index} repeats")
        group[index] = (actual, predicted)
    return groups


def cmd_compare(args) -> int:
    groups: dict = {}
    for path in args.predictions:
        for key, rows in _read_predictions(path).items():
            if groups.setdefault(key, rows) != rows:
                raise SchemaError(f"{path}: the rows of {key} differ from an earlier file's")
    by_dataset: dict = {}
    for (ds_name, method), rows in groups.items():
        by_dataset.setdefault(ds_name, {})[method] = rows

    lines = [harness.COMPARISON_HEADER]
    for ds_name, per_method in sorted(by_dataset.items()):
        if len(per_method) < 2:
            print(f"{ds_name}: needs at least two methods to compare", file=sys.stderr)
            continue
        pairs = {m: sorted(rows.items()) for m, rows in per_method.items()}
        indexed = {tuple((i, a) for i, (a, _) in p) for p in pairs.values()}
        if len(indexed) != 1:
            raise SchemaError(f"{ds_name}: methods disagree on the project indices or actuals")
        actuals = np.array([a for _, a in indexed.pop()])
        preds = {m: np.array([p for _, (_, p) in rows]) for m, rows in pairs.items()}
        _, comps, _ = harness.compare_methods(
            actuals, preds, metrics.random_guess_baseline(actuals))
        for c in comps:
            lines.append(harness.comparison_line(ds_name, c))
            print(f"{ds_name}: {c['method_a']} vs {c['method_b']}: p={c['p_value']:.4g} "
                  + " ".join(f"{e}={c['outcomes'][e]}" for e in harness.MEASURES))
    if args.out:
        for path in harness.write_files(args.out, {"comparisons.csv": lines}):
            print(path)
    return 0


def cmd_validate(args) -> int:
    if not args.config:
        raise ConfigError("--config is required")
    cfg = harness.load_config(args.config)
    for ds_cfg in cfg.datasets:
        ds = harness.load_dataset_from_config(ds_cfg)
        print(f"ok: {ds.name} n={ds.n} m={ds.m}")
    print(f"ok: {len(cfg.methods)} methods, seed={cfg.seed}, baseline={cfg.baseline}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "tune": cmd_tune,
        "compare": cmd_compare,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.verb](args)
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except AbetuneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
