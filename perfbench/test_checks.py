"""The benchmark's correctness checks pass on a real report and fail on
deliberately perturbed copies of it, so that none of them is vacuous.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
from abetune import harness  # noqa: E402

CONFIG = {
    "seed": 3,
    "datasets": ["albrecht", "kemerer"],
    "methods": ["abe0", "lt", "gt", "lt_star", "lt_plus", "gt_plus"],
    "mopso": {"pop_size": 8, "max_iter": 6},
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """(report dict, predictions.csv text, loaded datasets) of a small run."""
    out = tmp_path_factory.mktemp("report")
    report = harness.run_experiment(harness.parse_config(dict(CONFIG)), threads=1)
    harness.emit_report(report, out)
    data = {name: oracle.Data(name, SRC / "abetune" / "data") for name in CONFIG["datasets"]}
    return (json.loads((out / "report.json").read_text()),
            (out / "predictions.csv").read_text(), data)


def problems(report: dict, data: dict, config=CONFIG) -> list:
    """Check a (possibly perturbed) report, writing predictions.csv from it
    the way the program does, so that the two files agree."""
    lines = ["dataset,method,project_index,actual,predicted"]
    for d, cells in report["results"].items():
        for m, cell in cells.items():
            for i, (a, p) in enumerate(zip(cell["actuals"], cell["predictions"])):
                lines.append(f"{d},{m},{i},{a!r},{p!r}")
    return oracle.check_outputs(json.dumps(report), "\n".join(lines) + "\n", config, data)


def tags(found, dataset, method) -> set:
    return {p.tag for p in found if p.dataset == dataset and p.method in (method, None)}


def test_clean_report_passes(run):
    report, predictions_text, data = run
    assert oracle.check_outputs(json.dumps(report), predictions_text, CONFIG, data) == []
    assert problems(report, data) == []


@pytest.mark.parametrize("method", ["abe0", "lt", "gt"])
def test_prediction_nudged_by_1e_6(run, method):
    report, _, data = copy.deepcopy(run)
    report["results"]["albrecht"][method]["predictions"][5] += 1e-6
    assert "prediction" in tags(problems(report, data), "albrecht", method)


def test_weight_row_not_summing_to_one(run):
    report, _, data = copy.deepcopy(run)
    row = report["results"]["kemerer"]["lt"]["solutions"][2]["weights_used"][0]
    row[0] += 1e-3
    assert "weights" in tags(problems(report, data), "kemerer", "lt")


def test_plus_row_not_exactly_uniform(run):
    report, _, data = copy.deepcopy(run)
    row = report["results"]["albrecht"]["gt_plus"]["solutions"][0]["weights_used"][0]
    row[0], row[1] = row[0] + 2.0 ** -40, row[1] - 2.0 ** -40
    assert "weights" in tags(problems(report, data), "albrecht", "gt_plus")


def test_star_mask_not_all_ones(run):
    report, _, data = copy.deepcopy(run)
    sol = report["results"]["albrecht"]["lt_star"]["solutions"][0]
    sol["mask"][0] = 0
    sol["v"] = int("".join(map(str, sol["mask"])), 2)
    assert "mask" in tags(problems(report, data), "albrecht", "lt_star")


def test_solution_out_of_shape(run):
    report, _, data = copy.deepcopy(run)
    report["results"]["albrecht"]["lt"]["solutions"][4]["weights_used"].pop()
    report["results"]["albrecht"]["gt"]["solutions"][0]["k"] = data["albrecht"].n
    found = problems(report, data)
    assert "weights" in tags(found, "albrecht", "lt")
    assert "k_range" in tags(found, "albrecht", "gt")


def test_wrong_abe0_k(run):
    report, _, data = copy.deepcopy(run)
    sol = report["results"]["kemerer"]["abe0"]["solutions"][0]
    sol["k"] = sol["k"] % (data["kemerer"].n - 1) + 1
    assert "abe0_k" in tags(problems(report, data), "kemerer", "abe0")


def test_flipped_tournament_tally(run):
    report, _, data = copy.deepcopy(run)
    flipped = False
    for tallies in report["win_tie_loss"]["albrecht"].values():
        t = tallies["mae"]
        if t["win"] != t["loss"]:
            t["win"], t["loss"] = t["loss"], t["win"]
            flipped = True
            break
    assert flipped, "the fixture run needs a significant comparison on albrecht"
    assert "tournament" in tags(problems(report, data), "albrecht", "abe0")


def test_stored_metric_changed(run):
    report, _, data = copy.deepcopy(run)
    report["results"]["kemerer"]["gt"]["metrics"]["mbre"] *= 1.0 + 1e-9
    assert "metrics" in tags(problems(report, data), "kemerer", "gt")


def test_sampled_baseline_far_from_exact(run):
    report, _, data = copy.deepcopy(run)
    config = dict(CONFIG, baseline={"sampled": 100_000})
    cell = report["results"]["albrecht"]["lt"]["metrics"]
    p0, _ = data["albrecht"].exact_baseline()
    assert problems(report, data, config) == []
    cell["sa"] = 1.0 - cell["mae"] / (p0 * 1.01)
    assert "baseline" in tags(problems(report, data, config), "albrecht", "lt")


def test_failed_cells_cover_the_dataset_for_tournament_problems():
    found = [oracle.Problem("albrecht", None, "tournament", "x"),
             oracle.Problem("kemerer", "lt", "prediction", "y")]
    cells = oracle.failed_cells(found, CONFIG)
    assert cells == {("albrecht", m) for m in CONFIG["methods"]} | {("kemerer", "lt")}


def test_tracer_counts_the_rows_it_sees(monkeypatch):
    import abetune
    from tracer import Tracer

    config = {"seed": 2, "datasets": ["kemerer"], "methods": ["abe0", "lt_plus", "gt_plus"],
              "mopso": {"pop_size": 4, "max_iter": 3}}
    tracer = Tracer()
    tracer.install(abetune)
    try:
        harness.run_experiment(harness.parse_config(config), threads=1)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    runs = 15 + 1  # one swarm per LT fold, one for GT
    assert layer["mopso.runs"][0] == runs
    assert layer["mopso.evaluations"][0] == layer["tuning.evaluate_rows"][0] == runs * 4 * 4
    assert layer["data.loocv_fold_calls"][0] > 0
    assert abetune.mopso.run.__name__ == "run" and not hasattr(abetune.mopso.run, "__wrapped__")


def test_in_process_failure_counts_every_cell(monkeypatch, tmp_path):
    import abetune
    import run as bench

    def fail(cfg, threads=1):
        raise abetune.errors.AbetuneError("deliberate")

    config = dict(CONFIG, methods=["abe0", "lt"])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    monkeypatch.setattr(harness, "run_experiment", fail)
    jobs, _, _ = bench.in_process_runs(abetune, cfg_path, tmp_path)
    assert [j["code"] for j in jobs] == [1, 1]
    failed, _ = bench.check_all(config, jobs)
    assert failed == 2 * len(config["datasets"]) * len(config["methods"])
