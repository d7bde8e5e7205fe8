"""Command line front end.

Verbs: `run` an experiment from a JSON config, `tune` a single dataset with
one method and print the chosen solutions, `compare` previously written
prediction files, `validate` a config without running it.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, metrics
from .errors import AbetuneError, ConfigError, InsufficientDataError, ParseError, SchemaError

# Everything a config or a dataset file can be rejected for at load.
VALIDATION_ERRORS = (ConfigError, SchemaError, ParseError, InsufficientDataError)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="experiment config (JSON)")
    p.add_argument("--seed", type=int, help="override the config seed (u64)")
    p.add_argument("--out", type=Path, help="output directory override")
    p.add_argument("--threads", type=int, default=1, help="worker processes for folds")
    p.add_argument("--mode", choices=("oracle", "honest"),
                   help="local tuning objective mode override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abetune",
        description="Analogy-based effort estimation with swarm-tuned adaptation",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a config")
    _add_common(p_run)

    p_tune = sub.add_parser("tune", help="tune one dataset with one method")
    _add_common(p_tune)
    p_tune.add_argument("--dataset", required=True, help="dataset name from the config")
    p_tune.add_argument("--method", required=True, choices=harness.METHOD_ORDER)

    p_cmp = sub.add_parser("compare", help="statistics over existing prediction files")
    _add_common(p_cmp)
    p_cmp.add_argument("predictions", nargs="+", type=Path,
                       help="predictions.csv files (dataset,method,project_index,actual,predicted)")

    p_val = sub.add_parser("validate", help="lint a config and its datasets")
    _add_common(p_val)

    return parser


def _resolve_config(args) -> harness.ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required")
    cfg = harness.load_config(args.config)
    overrides = {}
    if args.seed is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigError("--seed must be an unsigned 64-bit integer")
        overrides["seed"] = args.seed
        overrides["mopso"] = replace(cfg.mopso, seed=args.seed)
    if args.mode:
        overrides["mode"] = args.mode
    if args.out:
        overrides["output_dir"] = str(args.out)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    report = harness.run_experiment(cfg, threads=args.threads)
    written = harness.emit_report(report, cfg.output_dir)
    for path in written:
        print(path)
    return 0


def cmd_tune(args) -> int:
    cfg = _resolve_config(args)
    matches = [d for d in cfg.datasets if d.name == args.dataset]
    if not matches:
        raise ConfigError(f"dataset {args.dataset!r} not in config")
    ds = harness.load_dataset_from_config(matches[0])
    with harness.worker_map(args.threads) as fold_map:
        result = harness.run_method(args.method, ds, cfg.mopso, mode=cfg.mode, fold_map=fold_map)
    print(f"dataset={ds.name} method={args.method} mode={result.mode}")
    for i, sol in enumerate(result.solutions):
        if "mask" in sol:
            mask = "".join(str(b) for b in sol["mask"])
            print(f"  solution[{i}]: k={sol['k']} v={sol['v']} mask={mask}")
        else:
            print(f"  solution[{i}]: k={sol['k']}")
    efforts = ds.efforts()
    suite = metrics.aggregate(
        [metrics.PredictionRecord(a, p) for a, p in zip(efforts, result.predictions)],
        harness._baseline(efforts, cfg))
    print(f"  SA={100 * suite.sa:.1f} MAE={suite.mae:.4g} MBRE={100 * suite.mbre:.1f} "
          f"MIBRE={100 * suite.mibre:.1f} LSD={suite.lsd:.4g}")
    return 0


def _read_predictions(path: Path) -> dict:
    """-> {(dataset, method): list[(actual, predicted)] in index order}"""
    groups: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"dataset", "method", "project_index", "actual", "predicted"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SchemaError(f"{path}: predictions file needs columns {sorted(required)}")
        for row in reader:
            key = (row["dataset"], row["method"])
            groups.setdefault(key, []).append(
                (int(row["project_index"]), float(row["actual"]), float(row["predicted"])))
    return {k: [(a, p) for _, a, p in sorted(v)] for k, v in groups.items()}


def cmd_compare(args) -> int:
    groups: dict = {}
    for path in args.predictions:
        for key, pairs in _read_predictions(path).items():
            groups[key] = pairs
    by_dataset: dict = {}
    for (ds_name, method), pairs in groups.items():
        by_dataset.setdefault(ds_name, {})[method] = pairs

    lines = [harness.COMPARISON_HEADER]
    for ds_name, per_method in sorted(by_dataset.items()):
        if len(per_method) < 2:
            print(f"{ds_name}: needs at least two methods to compare", file=sys.stderr)
            continue
        actual_lists = {tuple(a for a, _ in pairs) for pairs in per_method.values()}
        if len(actual_lists) != 1:
            raise SchemaError(f"{ds_name}: prediction files disagree on the actual efforts")
        actuals = np.array(actual_lists.pop())
        preds = {m: np.array([p for _, p in pairs]) for m, pairs in per_method.items()}
        _, comps, _ = harness.compare_methods(
            actuals, preds, metrics.random_guess_baseline(actuals))
        for c in comps:
            lines.append(harness.comparison_line(ds_name, c))
            print(f"{ds_name}: {c['method_a']} vs {c['method_b']}: p={c['p_value']:.4g} "
                  + " ".join(f"{e}={c['outcomes'][e]}" for e in harness.MEASURES))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        out_path = args.out / "comparisons.csv"
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(out_path)
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
