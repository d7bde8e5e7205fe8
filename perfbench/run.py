"""Benchmark of `abetune`: batch jobs timed end to end, or traced per layer.

    python3 perfbench/run.py --workload local-small --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the program is imported and
run from the checkout's `src/` directory, never from an installed copy.

With `--trace 0` the benchmark runs the workload as a batch job,
`abetune run --threads <nproc>`, again and again until `--seconds` have
passed, always finishing the job it started.  Before and after the jobs it
times `abetune validate` on the workload's config several times
(`setup_s`).  Each job is a separate process tree; its wall time, CPU time
and peak resident set come from the kernel's accounting of that tree.  The
medians over the jobs are reported.

With `--trace 1` it runs the workload twice in this process with one
worker: as it is, and with every layer boundary wrapped by
`tracer.Tracer`.  It reports the per-layer figures of the traced run.  It
starts no `--threads <nproc>` job, which would bring a traced
`local-large` run close to 180 s.

Either way every report is checked by `oracle.check_outputs`, and all the
reports of one run must be byte-identical.  An operation is one (dataset,
method) cell of a job; it fails when the job fails or a check on the cell
does.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"
SETUP_REPEATS = 10

ALL_DATASETS = ["albrecht", "kemerer", "nasa", "telecom", "desharnais", "cocomo", "china", "maxwell"]
ALL_METHODS = ["abe0", "lt", "gt", "lt_star", "gt_star", "lt_plus", "gt_plus"]

# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "local-small": {
        "datasets": ["albrecht", "kemerer"],
        "methods": ["abe0", "lt"],
    },
    "local-large": {
        "datasets": ["china"],
        "methods": ["abe0", "lt"],
    },
    "global-large": {
        "datasets": ["desharnais", "maxwell"],
        "methods": ["abe0", "gt", "gt_star", "gt_plus"],
    },
    "grid-sampled": {
        "datasets": ALL_DATASETS,
        "methods": ALL_METHODS,
        "mopso": {"pop_size": 5, "max_iter": 5},
        "baseline": {"sampled": 100_000},
    },
}


def workload_config(name: str, seed: int) -> dict:
    return {"seed": seed, "mode": "oracle", **WORKLOADS[name]}


def run_cli(args: list, log: Path) -> dict:
    """Run `abetune <args>` as a child process; time it and its workers."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "abetune.cli", *args],
                                stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            # wait4 reports the process together with every descendant it
            # waited for, which includes the fold worker pool.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "log": log,
    }


def import_abetune():
    sys.path.insert(0, str(SRC))
    import abetune
    import abetune.harness  # imports every layer the tracer wraps

    if Path(abetune.__file__).resolve().parent != SRC / "abetune":
        raise SystemExit(f"error: imported abetune from {abetune.__file__}, not from {SRC}")
    return abetune


def in_process_runs(abetune, cfg_path: Path, work: Path) -> tuple[list, float, Tracer]:
    """Single-worker runs in this process: untraced, then traced.

    Returns the two runs as jobs (the directory each wrote and its exit
    code), the seconds of the untraced run and the tracer."""
    harness = abetune.harness
    cfg = harness.load_config(cfg_path)

    def run(name: str) -> tuple[dict, float]:
        t0 = time.perf_counter()
        try:
            report = harness.run_experiment(cfg, threads=1)
        except abetune.errors.AbetuneError as exc:
            print(f"error: {name} run: {exc}", file=sys.stderr)
            return {"out": work / name, "code": 1}, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        harness.emit_report(report, work / name)
        return {"out": work / name, "code": 0}, seconds

    untraced, untraced_s = run("untraced")
    tracer = Tracer()
    tracer.install(abetune)
    try:
        traced, _ = run("traced")
    finally:
        tracer.uninstall()
    return [untraced, traced], untraced_s, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="config seed of every job")
    parser.add_argument("--seconds", type=float, default=15.0, help="how long to keep starting jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "abetune" / "cli.py").is_file():
        print(f"error: no abetune source under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, work: Path) -> int:
    config = workload_config(args.workload, args.seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    # Each job records the "out" directory it wrote and its exit "code".
    if args.trace:
        jobs, untraced_s, tracer = in_process_runs(import_abetune(), cfg_path, work)
        layer = tracer.layer_metrics()
        layer["harness.run_experiment_untraced_s"] = (untraced_s, "s")
        layer["trace.overhead_s"] = (layer["harness.run_experiment_s"][0] - untraced_s, "s")
        layer["trace.overhead_estimate_s"] = (tracer.overhead_estimate(), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        detail = {"spans": tracer.summary(), "counters": tracer.counters}
    else:
        threads = len(os.sched_getaffinity(0))

        def job(i: int) -> dict:
            out = work / f"job{i}"
            return run_cli(["run", "--config", str(cfg_path), "--threads", str(threads),
                            "--out", str(out)], work / f"job{i}.log") | {"out": out}

        jobs = []
        setups: list = []

        def setup(times: int) -> None:
            for _ in range(times):
                r = run_cli(["validate", "--config", str(cfg_path)], work / f"validate{len(setups)}.log")
                if r["code"] != 0:
                    print(r["log"].read_text(), file=sys.stderr)
                    raise SystemExit(f"error: abetune validate exited with {r['code']}")
                setups.append(r["wall_s"])

        # The machine's speed shifts over seconds; sampling set-up on both
        # sides of the jobs keeps one slow or fast spell from setting it.
        setup(SETUP_REPEATS // 2)
        start = time.perf_counter()
        while not jobs or time.perf_counter() - start < args.seconds:
            jobs.append(job(len(jobs)))
        setup(SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(j["wall_s"] for j in jobs), "unit": "s"},
            "cpu_s": {"value": statistics.median(j["cpu_s"] for j in jobs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(j["peak_rss_mb"] for j in jobs), "unit": "MB"},
        }
        detail = {"setup_s": setups,
                  "jobs": [{k: j[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} for j in jobs]}

    failed, problems = check_all(config, jobs)
    attempted = len(config["datasets"]) * len(config["methods"]) * len(jobs)
    for p in problems:
        print(f"check failed: {p}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} operations attempted = {attempted}, failed = {failed}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result | {"detail": detail}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def check_all(config: dict, jobs: list) -> tuple[int, list]:
    """Check the first report fully and the others for identical bytes.

    Returns (failed operations, problems found by the checks)."""
    data = {name: oracle.Data(name, SRC / "abetune" / "data") for name in config["datasets"]}
    cells = len(config["datasets"]) * len(config["methods"])
    failed = 0
    problems: list = []
    reference = None
    for j in jobs:
        out = j["out"]
        report = out / "report.json"
        if j["code"] != 0 or not report.is_file():
            if "log" in j:
                print(j["log"].read_text(), file=sys.stderr)
            failed += cells
            continue
        text = report.read_text(encoding="utf-8")
        if reference is None:
            reference = text
            found = oracle.check_outputs(text, (out / "predictions.csv").read_text(encoding="utf-8"),
                                         config, data)
            problems += found
            failed += len(oracle.failed_cells(found, config))
        elif text != reference:
            problems.append(oracle.Problem(config["datasets"][0], None, "determinism",
                                           f"{out.name}/report.json differs from the first report"))
            failed += cells
    return failed, problems


if __name__ == "__main__":
    sys.exit(main())
