"""Profile of the default grid: where a full `abetune run` spends its time.

    python3 perfbench/grid_profile.py [--seed 1]

Runs all eight bundled datasets x all seven methods at the default
optimizer settings (100 particles, 100 iterations, exact baseline) once,
in this process with one worker, with `tracer.Tracer` installed.  It
times every (dataset, method) cell and prints the wall time, the share of
each (method family, dataset size) group and the self time of each layer.
The figures show which parts of the default grid the workloads of
`run.py` stand for; they are not a workload themselves, since one run
takes many minutes.  The result is also written to
`perfbench/_out/grid-profile-seed<seed>.json`.
"""

from __future__ import annotations

import argparse
import json
import time

from run import ALL_DATASETS, ALL_METHODS, OUT, import_abetune
from tracer import LAYERS, Tracer

SMALL_N = 30  # the bundled datasets have n <= 24 or n >= 60


def family(method: str) -> str:
    return method.split("_")[0].upper()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    abetune = import_abetune()
    harness = abetune.harness
    cfg = harness.parse_config({"seed": args.seed, "datasets": ALL_DATASETS, "methods": ALL_METHODS})

    cells = []
    run_method = harness.run_method

    def timed(name, ds, *rest, **kwargs):
        t0 = time.perf_counter()
        result = run_method(name, ds, *rest, **kwargs)
        cells.append({"dataset": ds.name, "n": ds.n, "m": ds.m, "method": name,
                      "seconds": time.perf_counter() - t0})
        return result

    tracer = Tracer()
    harness.run_method = timed
    tracer.install(abetune)
    try:
        t0 = time.perf_counter()
        harness.run_experiment(cfg, threads=1)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        harness.run_method = run_method

    groups: dict = {}
    for c in cells:
        key = f"{family(c['method'])} n{'<=' if c['n'] <= SMALL_N else '>'}{SMALL_N}"
        groups[key] = groups.get(key, 0.0) + c["seconds"]
    layers = tracer.layer_metrics()
    layer_self = {layer: layers[f"{layer}.self_s"][0] for layer in LAYERS}

    print(f"default grid, seed {args.seed}, one process: {wall:.1f} s")
    print("share by (method family, dataset size):")
    for key, seconds in sorted(groups.items(), key=lambda kv: -kv[1]):
        print(f"  {key:10s} {seconds:9.1f} s  {seconds / wall:6.1%}")
    print("cells (s):")
    for c in sorted(cells, key=lambda c: -c["seconds"]):
        print(f"  {c['dataset']:11s} n={c['n']:3d} m={c['m']:2d} {c['method']:8s} {c['seconds']:8.2f}")
    print("layer self time:")
    for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:8s} {seconds:9.2f} s  {seconds / wall:6.1%}")

    OUT.mkdir(exist_ok=True)
    record = OUT / f"grid-profile-seed{args.seed}.json"
    record.write_text(json.dumps({"wall_s": wall, "groups": groups, "cells": cells,
                                  "layer_self_s": layer_self, "spans": tracer.summary()},
                                 indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
