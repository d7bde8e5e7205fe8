import json
import subprocess
import sys
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abetune import abe, cli, harness, metrics
from abetune.data import Dataset, FeatureSpec, Project, Role, standardize
from abetune.errors import AbetuneError, ConfigError
from abetune.harness import EvaluationReport, emit_report, parse_config, run_experiment
from scalar_reference import run_loocv

BASE_CONFIG = {
    "datasets": [{"name": "synthetic_small"}],
    "methods": ["abe0", "lt"],
    "mopso": {"pop_size": 12, "max_iter": 8},
    "seed": 99,
    "baseline": "exact",
}


def numeric_std(rows, efforts):
    m = len(rows[0])
    specs = tuple(FeatureSpec(f"f{j}") for j in range(m)) + (
        FeatureSpec("effort", role=Role.EFFORT),)
    projects = tuple(Project(values=tuple(map(float, r)), effort=float(e))
                     for r, e in zip(rows, efforts))
    return standardize(Dataset(specs=specs, projects=projects))


class TestConfig:
    def test_minimal_valid(self):
        cfg = parse_config(dict(BASE_CONFIG))
        assert cfg.seed == 99
        assert cfg.methods == ("abe0", "lt")
        assert cfg.mopso.pop_size == 12

    def test_missing_seed_rejected(self):
        raw = dict(BASE_CONFIG)
        del raw["seed"]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_zero_methods_rejected(self):
        raw = dict(BASE_CONFIG) | {"methods": []}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_unknown_method_rejected(self):
        for methods in (["abe0", "bogus"], ["lt", "abe0", "lt"]):
            raw = dict(BASE_CONFIG) | {"methods": methods}
            with pytest.raises(ConfigError):
                parse_config(raw)

    def test_unknown_bundled_dataset_rejected(self):
        raw = dict(BASE_CONFIG) | {"datasets": [{"name": "isbsg"}]}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_sampled_baseline(self):
        raw = dict(BASE_CONFIG) | {"baseline": {"sampled": 5000}}
        cfg = parse_config(raw)
        assert cfg.baseline == "sampled" and cfg.baseline_runs == 5000

    def test_path_dataset_needs_effort_column(self, tmp_path):
        csv = tmp_path / "x.csv"
        csv.write_text("a,e\n1,2\n3,4\n5,6\n")
        raw = dict(BASE_CONFIG) | {"datasets": [{"name": "x", "path": str(csv)}]}
        with pytest.raises(ConfigError):
            parse_config(raw)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)
DATASET_ENTRY = st.fixed_dictionaries({}, optional={
    key: st.sampled_from(["albrecht", "x.csv", "e"]) | JSON
    for key in ("name", "path", "effort_column", "categorical_columns", "excluded_columns")})
FIELDS = {
    "datasets": st.lists(st.sampled_from(["kemerer", "isbsg"]) | DATASET_ENTRY | JSON,
                         max_size=3) | JSON,
    "methods": st.lists(st.sampled_from(harness.METHOD_ORDER) | JSON, max_size=3) | JSON,
    "mopso": st.fixed_dictionaries({}, optional={
        key: st.integers(-2, 200) | st.floats(-1, 3) | st.lists(st.floats(), max_size=3) | JSON
        for key in harness.MOPSO_SETTINGS}) | JSON,
    "seed": st.integers() | JSON,
    "baseline": st.dictionaries(st.sampled_from(["sampled", "x"]), st.integers(-1, 9) | JSON,
                                max_size=2) | st.just("exact") | JSON,
    "mode": st.sampled_from(["oracle", "honest"]) | JSON,
    "output_dir": st.text(max_size=6) | JSON,
}
# A valid config with a field dropped or up to two fields overwritten, or any
# JSON value.
FIELD = st.sampled_from(list(FIELDS)).flatmap(lambda k: FIELDS[k].map(lambda v: (k, v)))
CONFIGS = st.builds(
    lambda dropped, changed: {k: v for k, v in BASE_CONFIG.items() if k not in dropped} | changed,
    st.sets(st.sampled_from(list(BASE_CONFIG)), max_size=1),
    st.lists(FIELD, max_size=2).map(dict)) | JSON


@settings(max_examples=600, deadline=None, derandomize=True)
@given(CONFIGS)
def test_parse_config_raises_only_typed_errors(raw):
    try:
        parse_config(raw)
    except AbetuneError:
        pass


class TestRunLoocv:
    def test_fold_count_and_train_size(self):
        ds = numeric_std([[0.0], [1.0], [2.0]], [10, 20, 30])
        sizes = []

        def probe(train, row):
            sizes.append(train.n)
            return 1.0

        pairs = run_loocv(ds, probe)
        assert len(pairs) == 3 and sizes == [2, 2, 2]
        assert [a for a, _ in pairs] == [10, 20, 30]

    def test_deterministic_predictor(self):
        ds = numeric_std([[0.0], [1.0], [2.0], [3.0]], [10, 20, 30, 40])
        f = lambda train, row: abe.predict_abe0(train, row, 2)
        assert run_loocv(ds, f) == run_loocv(ds, f)

    def test_duplicate_project_predicted_exactly_with_k1(self):
        ds = numeric_std([[0.0], [0.0], [5.0], [9.0]], [12, 12, 50, 90])
        pairs = run_loocv(ds, lambda tr, row: abe.predict_abe0(tr, row, 1))
        assert pairs[0] == (12.0, 12.0) and pairs[1] == (12.0, 12.0)

    def test_fold_failure_carries_index(self):
        ds = numeric_std([[0.0], [1.0], [2.0]], [10, 20, 30])

        def boom(train, row):
            raise ValueError("nope")

        with pytest.raises(AbetuneError, match="fold 0"):
            run_loocv(ds, boom)


class TestRunExperiment:
    def test_report_shape_and_counts(self):
        cfg = parse_config(dict(BASE_CONFIG))
        report = run_experiment(cfg)
        assert set(report.results) == {"synthetic_small"}
        cells = report.results["synthetic_small"]
        assert set(cells) == {"abe0", "lt"}
        assert len(report.comparisons["synthetic_small"]) == 1
        suite = cells["abe0"]["metrics"]
        assert set(suite) == {"mae", "sa", "mbre", "mibre", "lsd", "effect_size", "n"}

    def test_rerun_identical(self):
        cfg = parse_config(dict(BASE_CONFIG))
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.to_json() == r2.to_json()

    def test_zero_methods_cannot_reach_runner(self):
        with pytest.raises(ConfigError):
            parse_config(dict(BASE_CONFIG) | {"methods": []})

    def test_json_roundtrip(self):
        cfg = parse_config(dict(BASE_CONFIG))
        report = run_experiment(cfg)
        back = EvaluationReport.from_json(report.to_json())
        assert back.to_json() == report.to_json()
        assert back.results == report.results

    def test_self_check_rejects_a_perturbed_metric(self):
        cfg = parse_config(dict(BASE_CONFIG))
        report = run_experiment(cfg)
        harness._verify_report(report, cfg)
        cell = report.results["synthetic_small"]["lt"]
        cell["metrics"]["mbre"] = cell["metrics"]["mbre"] * (1 + 1e-12)
        with pytest.raises(AbetuneError, match="synthetic_small/lt/mbre"):
            harness._verify_report(report, cfg)

    def test_self_check_rejects_cells_with_different_actuals(self):
        cfg = parse_config(dict(BASE_CONFIG) | {"baseline": {"sampled": 1000}})
        report = run_experiment(cfg)
        report.results["synthetic_small"]["lt"]["actuals"][0] += 1.0
        with pytest.raises(AbetuneError, match="actuals differ"):
            harness._verify_report(report, cfg)

    def test_metrics_recomputable_from_predictions(self):
        cfg = parse_config(dict(BASE_CONFIG))
        report = run_experiment(cfg)
        for cells in report.results.values():
            for cell in cells.values():
                actuals = np.array(cell["actuals"])
                preds = np.array(cell["predictions"])
                base = metrics.random_guess_baseline(actuals)
                recs = [metrics.PredictionRecord(a, p) for a, p in zip(actuals, preds)]
                suite = metrics.aggregate(recs, base)
                assert cell["metrics"]["sa"] == suite.sa
                assert cell["metrics"]["mbre"] == suite.mbre


class TestWorkerPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Each pool `harness.worker_map` builds, as [worker count, tasks submitted]."""
        built = []

        class Counting(futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                built.append([max_workers, 0])
                super().__init__(max_workers=max_workers)

            def submit(self, *args, **kwargs):
                built[-1][1] += 1
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Counting)
        return built

    def test_one_pool_per_run(self, pools):
        cfg = parse_config(dict(BASE_CONFIG) | {"datasets": ["synthetic_small", "kemerer"],
                                                "methods": ["lt", "lt_plus"]})
        serial = run_experiment(cfg, threads=1)
        assert pools == []
        pooled = run_experiment(cfg, threads=2)
        assert pools == [[2, 2 * (8 + 15)]]  # every fold of both LT cells of both datasets
        assert pooled.to_json() == serial.to_json()

    def test_a_run_without_lt_cells_builds_no_pool(self, pools):
        cfg = parse_config(dict(BASE_CONFIG) | {"methods": ["abe0", "gt"]})
        run_experiment(cfg, threads=2)
        assert pools == []


class TestEmission:
    def make_report(self):
        raw = dict(BASE_CONFIG) | {"datasets": [{"name": "synthetic_small"}, {"name": "nasa"}]}
        return run_experiment(parse_config(raw))

    def test_csv_metrics_shape(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 datasets
        assert len(lines[1].split(",")) == 1 + 2 * 5  # dataset + methods x measures

    def test_markdown_sa_is_percentage(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        text = (tmp_path / "metrics.md").read_text()
        sa = report.results["nasa"]["abe0"]["metrics"]["sa"]
        assert f"{100 * sa:.1f}" in text

    def test_predictions_file_full_precision(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        lines = (tmp_path / "predictions.csv").read_text().strip().splitlines()[1:]
        first = lines[0].split(",")
        stored = float(first[4])
        assert stored == report.results["synthetic_small"]["abe0"]["predictions"][0]

    def test_k_histogram_written_for_local_methods(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        assert (tmp_path / "k_hist_nasa_lt.dat").exists()
        line = (tmp_path / "k_hist_nasa_lt.dat").read_text().splitlines()[0]
        k, count = line.split()
        assert int(k) >= 1 and int(count) >= 1


class TestCli:
    def cli(self, *args):
        return subprocess.run([sys.executable, "-m", "abetune.cli", *args],
                              capture_output=True, text=True)

    def write_config(self, tmp_path, **extra):
        cfg = dict(BASE_CONFIG) | extra
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_validate_ok(self, tmp_path):
        path = self.write_config(tmp_path)
        proc = self.cli("validate", "--config", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "synthetic_small" in proc.stdout

    def test_validate_bad_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"datasets": [], "methods": ["abe0"], "seed": 1}))
        proc = self.cli("validate", "--config", str(path))
        assert proc.returncode == 1
        assert "validation error" in proc.stderr

    @pytest.mark.parametrize("extra", [
        {"mopso": {"pop_size": "100"}},
        {"mopso": {"inertia": 5}},
        {"mopso": {"pop_sise": 100}},
        {"mopso": {"archive_capacity": 0}},
        {"mopso": {"mutation_exponent": -1}},
        {"baseline": {"sampled": "x"}},
        {"baseline": {"sampled": 0}},
        {"datasets": [{"name": "x", "path": 5, "effort_column": "effort"}]},
        {"seed": True},
    ], ids=["pop_size-string", "inertia-number", "unknown-setting", "archive-capacity-0",
            "mutation-exponent-negative", "sampled-string", "sampled-0", "path-number", "seed-bool"])
    def test_malformed_config_is_a_validation_error(self, tmp_path, extra):
        path = self.write_config(tmp_path, **extra)
        proc = self.cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("validation error: "), proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content,roles,where", [
        (b"", {}, "empty file"),
        (b"size,effort\n1,10\n2,20\n\xe9,30\n", {}, "line 4: not UTF-8"),
        (b"size,effort\n1,10\n" + b"2" * 131_073 + b",20\n3,30\n", {}, "row 3: field larger"),
        (b"size,effort\n1,10\ninf,20\n3,30\n", {}, "row 3, column 'size'"),
        (b"size,effort\n1,10\n2,inf\n3,30\n", {}, "row 3, column 'effort'"),
        (b"size,id,effort\n1,1,10\n2,2,20\n3,3,30\n", {"excluded_columns": ["ID"]}, "['ID']"),
        (b"size,effort\n1,10\n2,20\n", {}, "need at least 3 projects"),
    ], ids=["empty", "not-utf8", "oversize-field", "inf-input", "inf-effort", "unknown-column",
            "two-rows"])
    def test_malformed_dataset_file_is_a_validation_error(self, tmp_path, capsys, monkeypatch,
                                                           content, roles, where):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(content)
        path = self.write_config(tmp_path, datasets=["synthetic_small", {
            "name": "bad", "path": str(csv), "effort_column": "effort", **roles}])
        monkeypatch.setattr(harness, "run_method", lambda *a, **k: pytest.fail("tuned a cell"))
        for verb in ("validate", "run"):
            assert cli.main([verb, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"validation error: {csv}: ") and where in err, err
        assert not (tmp_path / "out").exists()

    def test_run_emits_reports(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        proc = self.cli("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
        assert (out / "metrics.md").exists()

    def test_threads_do_not_change_report_bytes(self, tmp_path):
        path = self.write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        p1 = self.cli("run", "--config", str(path), "--out", str(out1), "--threads", "1")
        p2 = self.cli("run", "--config", str(path), "--out", str(out2), "--threads", "2")
        assert p1.returncode == 0 and p2.returncode == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        path = self.write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        self.cli("run", "--config", str(path), "--out", str(out1))
        self.cli("run", "--config", str(path), "--out", str(out2), "--seed", "123456")
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["config"]["seed"] != r2["config"]["seed"]

    def test_tune_prints_solutions(self, tmp_path):
        path = self.write_config(tmp_path)
        proc = self.cli("tune", "--config", str(path), "--dataset", "synthetic_small",
                        "--method", "lt_plus")
        assert proc.returncode == 0, proc.stderr
        assert "solution[0]" in proc.stdout and "k=" in proc.stdout

    def test_tune_threads_do_not_change_its_output(self, tmp_path):
        path = self.write_config(tmp_path)
        runs = [self.cli("tune", "--config", str(path), "--dataset", "synthetic_small",
                         "--method", "lt", "--threads", threads) for threads in ("1", "2")]
        assert [p.returncode for p in runs] == [0, 0], runs[1].stderr
        assert "solution[7]" in runs[0].stdout
        assert runs[1].stdout == runs[0].stdout

    def test_tune_scores_with_the_configured_baseline(self, tmp_path):
        path = self.write_config(tmp_path, datasets=[{"name": "nasa"}],
                                 methods=["abe0", "lt"], baseline={"sampled": 50})
        out = tmp_path / "out"
        assert self.cli("run", "--config", str(path), "--out", str(out)).returncode == 0
        sa = json.loads((out / "report.json").read_text())["results"]["nasa"]["abe0"][
            "metrics"]["sa"]
        proc = self.cli("tune", "--config", str(path), "--dataset", "nasa", "--method", "abe0")
        assert proc.returncode == 0, proc.stderr
        assert f" SA={100 * sa:.1f} " in proc.stdout

    def test_compare_over_prediction_files(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        self.cli("run", "--config", str(path), "--out", str(out))
        proc = self.cli("compare", str(out / "predictions.csv"),
                        "--out", str(tmp_path / "cmp"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "cmp" / "comparisons.csv").exists()
        assert "abe0 vs lt" in proc.stdout

    @pytest.mark.parametrize("mode,rows", [("oracle", 6), ("honest", 3)])
    def test_degenerate_boxes_run_every_method(self, tmp_path, mode, rows):
        # one feature pins the mask; in honest mode three projects leave one
        # weight row per inner fold, which pins k too, and lt_plus has no
        # free dimension left
        csv = tmp_path / "one.csv"
        csv.write_text("size,effort\n" + "".join(f"{i},{10 * i}\n" for i in range(1, rows + 1)))
        methods = list(harness.METHOD_ORDER)
        path = self.write_config(tmp_path, mode=mode, methods=methods, datasets=[
            {"name": "one", "path": str(csv), "effort_column": "effort"}])
        out = tmp_path / "out"
        proc = self.cli("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert sorted(report["results"]["one"]) == sorted(methods)

    def test_missing_config_is_validation_error(self):
        proc = self.cli("run")
        assert proc.returncode == 1
