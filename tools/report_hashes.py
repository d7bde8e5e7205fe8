#!/usr/bin/env python3
"""Print the sha256 of `report.json` for the benchmark's configs.

Runs `abetune run` from this checkout's `src/` on six configs at seed 1:
the `workload_config(W, 1)` of each of the four workloads in
`perfbench/run.py`; an honest-mode config (albrecht, kemerer, nasa and
telecom x abe0, lt, gt, lt_star and gt_plus, with an 8-particle swarm run
for 6 iterations); and `honest-split`, honest LT on china and cocomo with a
100-particle swarm run for 2 iterations, whose inner leave-one-out batches
are the only ones here that `abe._FoldContext.predict_batch` splits into
rank chunks outside the GT cells.  Each line is `<config> <sha256>`.  Two checkouts that
print the same lines at the same `--threads` write the same report bytes.

`perfbench/run.py` is only imported, for `workload_config`; no bytecode is
written next to it.

Usage: python tools/report_hashes.py [--threads N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
HONEST = {
    "seed": SEED,
    "mode": "honest",
    "datasets": ["albrecht", "kemerer", "nasa", "telecom"],
    "methods": ["abe0", "lt", "gt", "lt_star", "gt_plus"],
    "mopso": {"pop_size": 8, "max_iter": 6},
}
# honest LT at the default population: each fold's inner leave-one-out
# batches are large enough to be walked in several rank chunks
HONEST_SPLIT = {
    "seed": SEED,
    "mode": "honest",
    "datasets": ["china", "cocomo"],
    "methods": ["lt"],
    "mopso": {"pop_size": 100, "max_iter": 2},
}


def configs() -> dict:
    """Config name -> config dict, the four workloads, then `honest` and
    `honest-split`."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS, workload_config

    return {**{name: workload_config(name, SEED) for name in WORKLOADS}, "honest": HONEST,
            "honest-split": HONEST_SPLIT}


def report_hash(config: dict, threads: int, work: Path) -> str:
    """The sha256 of the `report.json` that `abetune run` writes for `config`."""
    cfg_path, out = work / "config.json", work / "out"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "abetune.cli", "run", "--config", str(cfg_path),
                    "--out", str(out), "--threads", str(threads)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return hashlib.sha256((out / "report.json").read_bytes()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1, help="worker processes per run")
    args = parser.parse_args()
    for name, config in configs().items():
        with tempfile.TemporaryDirectory() as tmp:
            print(name, report_hash(config, args.threads, Path(tmp)), flush=True)


if __name__ == "__main__":
    main()
