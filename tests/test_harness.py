import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abetune import abe, cli, harness, metrics, tuning
from abetune.errors import AbetuneError, ConfigError, EvaluationError
from abetune.harness import emit_report, parse_config, run_experiment
from scalar_reference import numeric_std, solution, solution_arrays

BASE_CONFIG = {
    "datasets": [{"name": "synthetic_small"}],
    "methods": ["abe0", "lt"],
    "mopso": {"pop_size": 12, "max_iter": 8},
    "seed": 99,
    "baseline": "exact",
}


def report_json(report: dict) -> str:
    """The text `emit_report` streams into report.json, without its newline."""
    return "".join(harness.report_chunks(report))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the
    platform reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    @pytest.mark.parametrize("roles", [
        {"effort_column": "Nope", "excluded_columns": ["Input"]},
        {"categorical_columns": ["Input"]},
        {"excluded_columns": ["Input"]},
    ], ids=["effort-and-excluded", "categorical", "excluded"])
    def test_roles_on_a_bundled_dataset_rejected(self, roles):
        # a bundled table brings its own roles; these would be ignored
        raw = dict(BASE_CONFIG) | {"datasets": ["kemerer", {"name": "albrecht", **roles}]}
        with pytest.raises(ConfigError, match="^dataset 'albrecht': .* only with a path"):
            parse_config(raw)

    def test_repeated_dataset_names_rejected(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.csv").write_text("a,e\n1,2\n3,4\n5,6\n")
        same_stem = [{"path": str(tmp_path / sub / "x.csv"), "effort_column": "e"}
                     for sub in ("a", "b")]
        for entries in (["albrecht", "kemerer", "albrecht"], same_stem,
                        ["albrecht", same_stem[0] | {"name": "albrecht"}]):
            with pytest.raises(ConfigError, match="^dataset names repeat"):
                parse_config(dict(BASE_CONFIG) | {"datasets": entries})
        names = [d.name for d in parse_config(dict(BASE_CONFIG) | {
            "datasets": [same_stem[0], same_stem[1] | {"name": "y"}]}).datasets]
        assert names == ["x", "y"]

    @pytest.mark.parametrize("name", ["a/b", "a\\b", "/abs"])
    def test_dataset_name_with_a_path_separator_rejected(self, tmp_path, name):
        # report files such as k_hist_<dataset>_<method>.dat are named after it
        (tmp_path / "t.csv").write_text("a,e\n1,2\n3,4\n5,6\n")
        entry = {"name": name, "path": str(tmp_path / "t.csv"), "effort_column": "e"}
        with pytest.raises(ConfigError, match="contains a path separator"):
            parse_config(dict(BASE_CONFIG) | {"datasets": [entry]})

    @pytest.mark.parametrize("mopso", [
        {},
        {"pop_size": 100, "max_iter": 100, "inertia": [0.9, 0.4], "c1": 2.0, "c2": 2.0,
         "mutation_fraction": 0.5, "mutation_exponent": 5, "archive_capacity": 100,
         "leader_fraction": 0.1},
        {"inertia": [1e290, -1e290], "c1": 1e290, "c2": -1e290},
        {"leader_fraction": 1.0},
    ], ids=["default", "paper", "large-but-finite", "every-entry-a-leader"])
    def test_swarm_coefficients_that_keep_velocities_finite_parse(self, mopso):
        cfg = parse_config(dict(BASE_CONFIG) | {"mopso": mopso})
        assert cfg.mopso.c1 == mopso.get("c1", 2.0)


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
    """The leave-one-out folds a run predicts, through `loocv_fold` and
    `abe.predict_adapted`."""

    def test_fold_count_and_train_size(self):
        ds = numeric_std([[0.0], [1.0], [2.0]], [10, 20, 30])
        folds = [ds.loocv_fold(i) for i in range(ds.n)]
        assert [train.n for train, _, _ in folds] == [2, 2, 2]
        assert [actual for _, _, actual in folds] == [10.0, 20.0, 30.0]
        assert [row.tolist() for _, row, _ in folds] == ds.matrix.tolist()
        assert [train.efforts().tolist() for train, _, _ in folds] == \
            [[20.0, 30.0], [10.0, 30.0], [10.0, 20.0]]

    @staticmethod
    def predict_all(ds, sol):
        rows = solution_arrays(sol)
        return [abe.predict_adapted(*ds.loocv_fold(i)[:2], *rows) for i in range(ds.n)]

    def test_deterministic_predictor(self):
        ds = numeric_std([[0.0], [1.0], [2.0], [3.0]], [10, 20, 30, 40])
        sol = solution(2, [1], np.ones((2, 1)))
        assert self.predict_all(ds, sol) == self.predict_all(ds, sol)

    def test_duplicate_project_predicted_exactly_with_k1(self):
        ds = numeric_std([[0.0], [0.0], [5.0], [9.0]], [12, 12, 50, 90])
        assert self.predict_all(ds, solution(1, [1], [[1]]))[:2] == [12.0, 12.0]


def run_and_keep_baselines(cfg, monkeypatch):
    """The report of `run_experiment(cfg)` and the per-dataset (efforts,
    baseline) pairs it scored and self-checked with."""
    real, drawn = harness._verify_report, []
    monkeypatch.setattr(harness, "_verify_report",
                        lambda report, baselines: drawn.append(baselines) or real(report, baselines))
    return run_experiment(cfg), drawn[0]


class TestRunExperiment:
    def test_report_shape_and_counts(self):
        cfg = parse_config(dict(BASE_CONFIG))
        report = run_experiment(cfg)
        assert set(report["results"]) == {"synthetic_small"}
        cells = report["results"]["synthetic_small"]
        assert set(cells) == {"abe0", "lt"}
        assert len(report["comparisons"]["synthetic_small"]) == 1
        suite = cells["abe0"]["metrics"]
        assert set(suite) == {"mae", "sa", "mbre", "mibre", "lsd", "effect_size", "n"}

    def test_rerun_identical(self):
        cfg = parse_config(dict(BASE_CONFIG))
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert report_json(r1) == report_json(r2)

    def test_zero_methods_cannot_reach_runner(self):
        with pytest.raises(ConfigError):
            parse_config(dict(BASE_CONFIG) | {"methods": []})

    def test_self_check_rejects_a_perturbed_metric(self, monkeypatch):
        cfg = parse_config(dict(BASE_CONFIG))
        report, drawn = run_and_keep_baselines(cfg, monkeypatch)
        harness._verify_report(report, drawn)
        cell = report["results"]["synthetic_small"]["lt"]
        cell["metrics"]["mbre"] = cell["metrics"]["mbre"] * (1 + 1e-12)
        with pytest.raises(AbetuneError, match="synthetic_small/lt/mbre"):
            harness._verify_report(report, drawn)

    def test_self_check_rejects_cells_with_different_actuals(self, monkeypatch):
        cfg = parse_config(dict(BASE_CONFIG) | {"baseline": {"sampled": 1000}})
        report, drawn = run_and_keep_baselines(cfg, monkeypatch)
        report["results"]["synthetic_small"]["lt"]["actuals"][0] += 1.0
        with pytest.raises(AbetuneError, match="actuals differ"):
            harness._verify_report(report, drawn)

    def test_self_check_rejects_an_actual_changed_in_every_cell(self, monkeypatch):
        # the cells still agree with each other, but no longer with the
        # efforts the baseline was drawn from
        cfg = parse_config(dict(BASE_CONFIG) | {"baseline": {"sampled": 1000}})
        report, drawn = run_and_keep_baselines(cfg, monkeypatch)
        for cell in report["results"]["synthetic_small"].values():
            cell["actuals"][0] += 1.0
        with pytest.raises(AbetuneError, match="synthetic_small/abe0: actuals differ"):
            harness._verify_report(report, drawn)

    def test_sampled_baseline_is_drawn_once_per_dataset(self, monkeypatch):
        real, modes = metrics.random_guess_baseline, []

        def counted(efforts, mode="exact", **kwargs):
            modes.append(mode)
            return real(efforts, mode=mode, **kwargs)

        monkeypatch.setattr(metrics, "random_guess_baseline", counted)
        cfg = parse_config(dict(BASE_CONFIG) | {"datasets": ["synthetic_small", "kemerer"],
                                                "baseline": {"sampled": 1000}})
        run_experiment(cfg)
        assert modes.count("sampled") == 2

    def test_metrics_recomputable_from_predictions(self):
        cfg = parse_config(dict(BASE_CONFIG))
        report = run_experiment(cfg)
        for cells in report["results"].values():
            for cell in cells.values():
                actuals = np.array(cell["actuals"])
                preds = np.array(cell["predictions"])
                base = metrics.random_guess_baseline(actuals)
                suite = metrics.aggregate(actuals, preds, base)
                assert cell["metrics"]["sa"] == suite["sa"]
                assert cell["metrics"]["mbre"] == suite["mbre"]


@pytest.mark.parametrize("efforts", [
    [1e-100, 3e-100, 2e-100, 7e-100, 5e-100],
    [1e100, 3e99, 2e99, 7e99, 5e99],
    [1e-100, 1e100, 2e-100, 3e99, 5.0],
], ids=["lower-edge", "upper-edge", "both-edges"])
def test_efforts_at_the_range_edges_are_tuned_and_scored(tmp_path, efforts):
    csv = tmp_path / "edge.csv"
    csv.write_text("size,effort\n" + "".join(f"{i},{e!r}\n" for i, e in enumerate(efforts)))
    cfg = parse_config(dict(BASE_CONFIG) | {
        "datasets": [{"name": "edge", "path": str(csv), "effort_column": "effort"}],
        "methods": ["abe0", "lt", "gt"], "mopso": {"pop_size": 4, "max_iter": 3}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow or division by zero
        report = run_experiment(cfg)
    for method, cell in report["results"]["edge"].items():
        assert all(math.isfinite(v) for v in cell["metrics"].values()), (method, cell["metrics"])


def test_a_dataset_past_1023_projects_is_tuned_and_scored(tmp_path):
    # at k >= 1024 the OWM weights used to overflow to 0 (k = 1024) or NaN;
    # a swarm's first positions spread k over [1, 1099], so it scores such k
    rng = np.random.default_rng(5)
    size = rng.uniform(1.0, 100.0, (1100, 2))
    effort = 10.0 * size[:, 0] + size[:, 1] + rng.uniform(0.0, 5.0, 1100)
    csv = tmp_path / "big.csv"
    csv.write_text("a,b,effort\n" + "".join(
        f"{a!r},{b!r},{e!r}\n" for (a, b), e in zip(size.tolist(), effort.tolist())))
    cfg = parse_config(dict(BASE_CONFIG) | {
        "datasets": [{"name": "big", "path": str(csv), "effort_column": "effort"}],
        "methods": ["gt_plus"], "mopso": {"pop_size": 20, "max_iter": 1}})
    ds = harness.load_dataset_from_config(cfg.datasets[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow or invalid value
        cell = run_experiment(cfg)["results"]["big"]["gt_plus"]
        pred, sol = tuning.lt_folds(ds, tuning.VARIANTS["lt_plus"], cfg.mopso)(0)
    assert all(math.isfinite(v) for v in cell["metrics"].values()), cell["metrics"]
    assert math.isfinite(pred) and pred > abe.EPS_EFFORT
    assert np.isclose(sol["weights_used"].sum(axis=1), 1.0).all()


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
        # every fold of both LT cells of both datasets, one task per chunk
        workers = min(2, usable_cpus())
        assert pools == [[workers, 2 * (chunk_count(8, workers) + chunk_count(15, workers))]]
        assert report_json(pooled) == report_json(serial)

    def test_the_pool_holds_at_most_one_worker_per_cpu(self, monkeypatch):
        built = []

        class InProcess:
            """Records its worker count and maps in this process."""

            def __init__(self, max_workers):
                built.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self):
                pass

        monkeypatch.setattr(futures, "ProcessPoolExecutor", InProcess)
        cfg = parse_config(dict(BASE_CONFIG))
        assert report_json(run_experiment(cfg, threads=5000)) == \
            report_json(run_experiment(cfg, threads=1))
        assert built == [usable_cpus()]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    def test_the_pool_counts_only_the_cpus_this_process_may_use(self, monkeypatch):
        # pinned to one CPU of a larger machine, as `taskset -c 0` does
        built = []

        class Recording(futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        with harness.worker_map(4) as fold_map:
            assert list(fold_map(abs, [-1, -2, -3])) == [1, 2, 3]
        assert built == [1]

    def test_a_run_without_lt_cells_builds_no_pool(self, pools):
        cfg = parse_config(dict(BASE_CONFIG) | {"methods": ["abe0", "gt"]})
        run_experiment(cfg, threads=2)
        assert pools == []

    def test_gt_cells_and_lt_folds_share_one_pool(self, pools):
        cfg = parse_config(dict(BASE_CONFIG) | {"datasets": ["synthetic_small", "kemerer"],
                                                "methods": ["gt", "gt_star", "lt"]})
        serial = run_experiment(cfg, threads=1)
        assert pools == []
        pooled = run_experiment(cfg, threads=2)
        # the four GT cells, then every fold of both LT cells, one task per chunk
        workers = min(2, usable_cpus())
        assert pools == [[workers, chunk_count(2 * 2, workers) + chunk_count(8, workers)
                          + chunk_count(15, workers)]]
        assert report_json(pooled) == report_json(serial)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_guided_chunks_shrink_to_single_items(self, workers):
        for n in range(200):
            items = [f"item{i}" for i in range(n)]
            chunks = harness.guided_chunks(items, workers)
            sizes = [len(c) for c in chunks]
            assert [item for c in chunks for item in c] == items
            assert sum(sizes) == n and all(sizes)
            assert sizes == sorted(sizes, reverse=True)
            spread = harness.GUIDE_DIVISOR * workers
            if n <= spread:
                assert sizes == [1] * n
            else:
                # the first chunk takes ceil(n / spread); once at most
                # spread items are left, they go one by one
                assert sizes[0] == -(-n // spread) > 1
                assert sizes[-(spread - 1):] == [1] * (spread - 1)

    def test_the_sampled_baselines_are_the_first_pool_tasks(self, monkeypatch):
        built, maps, taken, calls = [], [], [], []

        class Counting(futures.ProcessPoolExecutor):
            """Counts its submits, as [worker count, tasks submitted], and
            records each map's submits and items; the first map's results
            record the submit count when this process takes the first."""

            def __init__(self, max_workers):
                built.append([max_workers, 0])
                super().__init__(max_workers=max_workers)

            def submit(self, *args, **kwargs):
                built[-1][1] += 1
                return super().submit(*args, **kwargs)

            def map(self, fn, chunks, **kwargs):
                before = built[-1][1]
                results = super().map(fn, chunks, **kwargs)
                maps.append((before, built[-1][1], [item for chunk in chunks for item in chunk]))
                if len(maps) > 1:
                    return results

                def taking():
                    taken.append(built[-1][1])
                    yield from results

                return taking()

        real = metrics.random_guess_baseline

        def counted(efforts, mode="exact", **kwargs):
            calls.append((mode, list(efforts)))  # a worker appends to its own copy
            return real(efforts, mode=mode, **kwargs)

        # patched before the pool forks, so its workers inherit them
        monkeypatch.setattr(futures, "ProcessPoolExecutor", Counting)
        monkeypatch.setattr(metrics, "random_guess_baseline", counted)
        cfg = parse_config(dict(BASE_CONFIG) | {"datasets": ["synthetic_small", "kemerer"],
                                                "methods": ["abe0", "gt", "lt", "lt_star"],
                                                "baseline": {"sampled": 1000}})
        efforts = [list(harness.load_dataset_from_config(d).efforts()) for d in cfg.datasets]
        serial = run_experiment(cfg, threads=1)
        # one thread: no pool, and one sampled baseline per dataset, in
        # dataset order (the GT cells draw their exact ones too)
        assert built == [] and [e for mode, e in calls if mode == "sampled"] == efforts
        calls.clear()
        pooled = run_experiment(cfg, threads=2)
        workers = min(2, usable_cpus())
        # the baselines are the first submits, one dataset per task
        assert maps[0][:2] == (0, chunk_count(2, workers))
        assert [list(e) for e in maps[0][2]] == efforts
        # every task was submitted before this process took the first
        # baseline, and none was drawn here
        assert len(built) == 1 and built[0][1] > maps[0][1]
        assert taken == [built[0][1]]
        assert calls == []
        assert report_json(pooled) == report_json(serial)

    def test_sampled_baselines_in_the_pool_keep_the_report_bytes(self, pools):
        cfg = parse_config(dict(BASE_CONFIG) | {
            "datasets": ["synthetic_small", "kemerer", "albrecht"],
            "methods": ["abe0", "gt", "lt"], "baseline": {"sampled": 1000}})
        serial = run_experiment(cfg, threads=1)
        assert pools == []
        pooled = run_experiment(cfg, threads=2)
        # the three baselines, the three GT cells, then every LT fold
        workers = min(2, usable_cpus())
        assert pools == [[workers, 2 * chunk_count(3, workers) + chunk_count(8, workers)
                          + chunk_count(15, workers) + chunk_count(24, workers)]]
        assert report_json(pooled) == report_json(serial)

    def test_only_a_sampled_baseline_opens_a_pool_for_an_abe0_run(self, pools):
        raw = dict(BASE_CONFIG) | {"datasets": ["synthetic_small", "kemerer"], "methods": ["abe0"]}
        run_experiment(parse_config(raw), threads=2)
        assert pools == []
        run_experiment(parse_config(raw | {"baseline": {"sampled": 1000}}), threads=2)
        workers = min(2, usable_cpus())
        assert pools == [[workers, chunk_count(2, workers)]]

    def test_a_baseline_that_fails_in_a_later_dataset_stops_the_run(self, tmp_path, capsys,
                                                                   monkeypatch):
        real = metrics.random_guess_baseline

        def fail_on_kemerer(efforts, **kwargs):
            if len(efforts) == 15:
                raise AbetuneError("baseline failed")
            return real(efforts, **kwargs)

        # patched before the pool forks, so its workers inherit them
        monkeypatch.setattr(metrics, "random_guess_baseline", fail_on_kemerer)
        monkeypatch.setattr(tuning, "_run_lt_fold", mark_fold_slowly)
        raw = dict(BASE_CONFIG) | {"datasets": ["synthetic_small", "kemerer"],
                                   "methods": ["abe0", "lt"], "baseline": {"sampled": 1000}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        errors, ran, codes, stderr = [], [], [], []
        for threads in (1, 2):
            marks = tmp_path / f"marks{threads}"
            marks.mkdir()
            monkeypatch.setitem(globals(), "FOLD_MARKS", marks)
            with pytest.raises(AbetuneError) as caught:
                run_experiment(parse_config(raw), threads=threads)
            errors.append(str(caught.value))
            ran.append({p.name for p in marks.iterdir()})
            codes.append(cli.main(["run", "--config", str(path), "--threads", str(threads),
                                   "--out", str(tmp_path / f"out{threads}")]))
            stderr.append(capsys.readouterr().err)
        assert errors == ["baseline failed"] * 2
        assert codes == [2, 2]
        assert stderr == ["error: baseline failed\n"] * 2
        assert not (tmp_path / "out1").exists() and not (tmp_path / "out2").exists()
        # the first dataset's folds all ran before its cells were assembled;
        # of kemerer's, none at one thread, and at two the queued ones were
        # cancelled
        first = {f"synthetic_small-{i}" for i in range(8)}
        assert ran[0] == first
        assert first <= ran[1] and len(ran[1] - first) < 15

    def test_an_lt_fold_that_fails_in_a_later_dataset_names_its_cell(self, tmp_path, capsys,
                                                                     monkeypatch):
        # patched before the pool forks, so its workers inherit it
        monkeypatch.setattr(tuning, "_run_lt_fold", fail_on_kemerer_fold_3)
        raw = dict(BASE_CONFIG) | {"datasets": ["synthetic_small", "kemerer"],
                                   "methods": ["abe0", "gt", "lt_star", "lt"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        errors, codes, stderr = [], [], []
        for threads in (1, 2):
            with pytest.raises(AbetuneError) as caught:
                run_experiment(parse_config(raw), threads=threads)
            errors.append(str(caught.value))
            codes.append(cli.main(["run", "--config", str(path), "--threads", str(threads),
                                   "--out", str(tmp_path / f"out{threads}")]))
            stderr.append(capsys.readouterr().err)
        assert errors == ["dataset 'kemerer', method 'lt_star': non-finite objective"] * 2
        assert codes == [2, 2]
        assert stderr == [f"error: {errors[0]}\n"] * 2
        assert not (tmp_path / "out1").exists() and not (tmp_path / "out2").exists()

    def test_an_error_cancels_the_queued_tasks(self, tmp_path):
        marks = [tmp_path / str(i) for i in range(20)]
        with pytest.raises(RuntimeError, match="stop"):
            with harness.worker_map(2) as fold_map:
                fold_map(mark_slowly, marks)
                raise RuntimeError("stop")
        # only the tasks already handed to a worker ran
        assert sum(m.exists() for m in marks) < len(marks)

    def test_a_gt_cell_that_fails_in_a_worker_names_its_cell(self, tmp_path, capsys,
                                                              monkeypatch):
        def fail(*args):
            raise EvaluationError("non-finite objective")

        # patched before the pool forks, so its workers inherit it
        monkeypatch.setattr(tuning, "run_gt", fail)
        raw = dict(BASE_CONFIG) | {"datasets": ["synthetic_small", "kemerer"],
                                   "methods": ["abe0", "gt", "gt_star", "lt"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        errors, codes, stderr = [], [], []
        for threads in (1, 2):
            with pytest.raises(AbetuneError) as caught:
                run_experiment(parse_config(raw), threads=threads)
            errors.append(str(caught.value))
            codes.append(cli.main(["run", "--config", str(path), "--threads", str(threads),
                                   "--out", str(tmp_path / f"out{threads}")]))
            stderr.append(capsys.readouterr().err)
        assert errors == ["dataset 'synthetic_small', method 'gt': non-finite objective"] * 2
        # a run-time error, not a validation error, at either thread count
        assert codes == [2, 2]
        assert stderr == [f"error: {errors[0]}\n"] * 2
        assert not (tmp_path / "out1").exists() and not (tmp_path / "out2").exists()


RUN_LT_FOLD = tuning._run_lt_fold


def fail_on_kemerer_fold_3(ds, variant, cfg, honest, i):
    """`tuning._run_lt_fold`, except that fold 3 of kemerer raises; defined
    at module level so that a pool can pickle it."""
    if ds.name == "kemerer" and i == 3:
        raise EvaluationError("non-finite objective")
    return RUN_LT_FOLD(ds, variant, cfg, honest, i)


# Where `mark_fold_slowly` leaves its marks; a test sets it before a pool forks.
FOLD_MARKS = None


def mark_fold_slowly(ds, variant, cfg, honest, i):
    """`tuning._run_lt_fold`, slowed down, leaving the mark `<dataset>-<i>`
    in FOLD_MARKS when it runs; defined at module level so that a pool can
    pickle it."""
    time.sleep(0.05)
    (FOLD_MARKS / f"{ds.name}-{i}").touch()
    return RUN_LT_FOLD(ds, variant, cfg, honest, i)


def chunk_count(n: int, workers: int) -> int:
    """The pool tasks a map of n items makes on `workers` workers."""
    return len(harness.guided_chunks(list(range(n)), workers))


def mark_slowly(path):
    """A slow pool task that leaves a file behind when it runs."""
    time.sleep(0.2)
    path.touch()


def hand_report(results: dict, comparisons=None, wtl=None, ranks=None) -> dict:
    """A report of hand-made cells, {dataset: {method: cell}}; a dataset's
    comparisons and tallies default to empty, as in a one-method run."""
    return {"engine_version": "0.4.0", "config": {"mode": "oracle", "seed": 1},
            "results": results,
            "comparisons": comparisons or {d: [] for d in results},
            "win_tie_loss": wtl or {d: {} for d in results},
            "rank_summaries": ranks or {}}


def hand_cell(predictions, solutions, metric=0.5) -> dict:
    actuals = [float(i + 1) for i in range(len(predictions))]
    return {"metrics": dict.fromkeys((*harness.MEASURES, "effect_size"), metric)
            | {"n": len(actuals)},
            "actuals": actuals, "predictions": predictions, "solutions": solutions,
            "mode": "local_oracle"}


def tuned(rows, cols, rng=None, weights=None) -> dict:
    """A tuned solution in the form the program carries: `weights_used` is
    the given (rows, cols) float64 array, or a random one."""
    return {"k": rows, "v": 2 ** cols - 1, "mask": [1] * cols, "n_rows": rows,
            "weights_used": rng.random((rows, cols)) if weights is None else weights}


def as_lists(value):
    """`value` with every (k, m) array written out entry by entry as k lists
    of Python floats: the report in the form `json.dumps` takes."""
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_lists(item) for item in value]
    if isinstance(value, np.ndarray):
        return [[float(x) for x in row] for row in value]
    return value


def non_finite_report():
    inf = math.inf
    sols = [{"k": 1, "v": 1, "mask": [1], "n_rows": 1, "weights_used": [[w]]}
            for w in (math.nan, inf, -inf)]
    return hand_report(
        {"d": {"abe0": hand_cell([math.nan, inf, 2.0], [{"k": 1}], metric=math.nan),
               "lt": hand_cell([-inf, 1.5, 2.0], sols, metric=-inf)}},
        comparisons={"d": [{"method_a": "abe0", "method_b": "lt", "p_value": math.nan,
                            "outcomes": dict.fromkeys(harness.MEASURES, "tie")}]},
        ranks={"mae": [{"method": "abe0", "mean_rank": inf, "rank_sd": math.nan},
                       {"method": "lt", "mean_rank": -inf, "rank_sd": 0.0}]})


def case_order_report():
    # insertion order is neither the code-point order of the dataset names
    # ("B" < "a") nor that of the method keys (lt < lt_plus < lt_star)
    rng = np.random.default_rng(3)
    methods = ("lt_star", "lt", "lt_plus")
    results = {d: {m: hand_cell([1.25, 2.5], [tuned(2, 3, rng), tuned(1, 3, rng)])
                   for m in methods} for d in ("a", "B")}
    outcomes = dict(zip(harness.MEASURES, ("win", "tie", "loss", "tie", "win")))
    return hand_report(
        results,
        comparisons={d: [{"method_a": a, "method_b": b, "p_value": 0.5, "outcomes": outcomes}
                         for a, b in (("lt_star", "lt"), ("lt_star", "lt_plus"),
                                      ("lt", "lt_plus"))] for d in results},
        wtl={d: {m: {e: {"win": 1, "tie": 0, "loss": 1} for e in harness.MEASURES}
                 for m in methods} for d in results},
        ranks={e: [{"method": m, "mean_rank": 2.0, "rank_sd": 0.5} for m in methods]
               for e in harness.MEASURES})


def one_method_report():
    report = run_experiment(parse_config(dict(BASE_CONFIG) | {"methods": ["abe0"]}))
    assert (report["comparisons"], report["win_tie_loss"], report["rank_summaries"]) == \
        ({"synthetic_small": []}, {"synthetic_small": {}}, {})
    return report


def weight_arrays_report():
    # one solution per kind of weights_used array: k = 1; m = 1; thirds and
    # tenths; exact 0.0 and 1.0; the smallest and largest subnormals; a
    # strided view and a transposed one, neither C-contiguous
    strided = (np.arange(1.0, 25.0) / 7.0).reshape(4, 6)[::2, ::3]
    transposed = np.array([[0.25, 0.5, 0.25], [0.6, 0.2, 0.2]]).T
    assert not strided.flags.c_contiguous and not transposed.flags.c_contiguous
    arrays = [np.array([[0.125, 0.875]]), np.ones((3, 1)),
              np.array([[1 / 3, 2 / 3], [0.1, 0.9], [0.7, 0.3]]),
              np.array([[0.0, 1.0], [1.0, 0.0]]),
              np.array([[5e-324, 1.0], [2.2250738585072009e-308, 1.0]]), strided, transposed]
    return hand_report({"d": {"lt": hand_cell([1.0] * len(arrays),
                                              [tuned(*w.shape, weights=w) for w in arrays])}})


REPORTS = {
    "non-finite": non_finite_report,
    "non-ascii": lambda: hand_report({name: {"abe0": hand_cell([1.0, 2.0], [{"k": 1}])}
                                      for name in ("café", "Ωmega", "数据")}),
    "case-order": case_order_report,
    "one-method": one_method_report,
    "weight-arrays": weight_arrays_report,
    "no-results": lambda: hand_report({}),
}


def large_report():
    """8 datasets of one LT cell, 60 solutions of 60 x 10 weights each: a
    report.json of several MB, almost all of it `weights_used`."""
    rng = np.random.default_rng(1)
    return hand_report({f"d{i}": {"lt": hand_cell([1.0] * 60, [tuned(60, 10, rng)
                                                                 for _ in range(60)])}
                        for i in range(8)})


class TestReportText:
    @pytest.mark.parametrize("name", REPORTS)
    def test_streamed_text_is_the_one_shot_text(self, tmp_path, name):
        report = REPORTS[name]()
        text = json.dumps(as_lists(report), sort_keys=True, separators=(",", ":"))
        assert report_json(report) == text
        emit_report(report, tmp_path)
        assert (tmp_path / "report.json").read_bytes() == (text + "\n").encode("ascii")

    @pytest.mark.parametrize("value", [np.ones((1, 2), dtype=np.float32),
                                       np.ones((1, 2), dtype=np.int64), object()],
                             ids=["float32", "int64", "object"])
    def test_only_float64_arrays_are_written(self, value):
        report = hand_report({"d": {"lt": hand_cell([1.0], [tuned(1, 2, weights=value)])}})
        with pytest.raises(TypeError, match="not JSON serializable"):
            report_json(report)

    def test_emission_memory_does_not_grow_with_the_report(self, tmp_path):
        # holding the whole text (the string, a newline-joined copy, the
        # encoded bytes) peaks at about three times report.json's size;
        # streaming it peaks at about one tuned solution's text
        report = large_report()
        tracemalloc.start()  # traces what is allocated from here on
        try:
            emit_report(report, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "report.json").stat().st_size
        assert size > 4 * 2**20
        assert peak < size / 4

    def test_a_report_that_fails_to_serialize_leaves_no_report_json(self, tmp_path):
        report = large_report()
        report["results"]["d7"]["lt"]["solutions"][-1]["weights_used"] = object()
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit_report(report, tmp_path)
        assert list(tmp_path.iterdir()) == []


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
        sa = report["results"]["nasa"]["abe0"]["metrics"]["sa"]
        assert f"{100 * sa:.1f}" in text

    def test_predictions_file_full_precision(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        lines = (tmp_path / "predictions.csv").read_text().strip().splitlines()[1:]
        first = lines[0].split(",")
        stored = float(first[4])
        assert stored == report["results"]["synthetic_small"]["abe0"]["predictions"][0]

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
        {"datasets": [{"name": "albrecht", "effort_column": "Nope",
                       "excluded_columns": ["Input"]}]},
        {"datasets": ["albrecht", "kemerer", "albrecht"]},
    ], ids=["pop_size-string", "inertia-number", "unknown-setting", "archive-capacity-0",
            "mutation-exponent-negative", "sampled-string", "sampled-0", "path-number", "seed-bool",
            "bundled-roles", "repeated-dataset"])
    def test_malformed_config_is_a_validation_error(self, tmp_path, extra):
        path = self.write_config(tmp_path, **extra)
        proc = self.cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("validation error: "), proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mopso,named", [
        ({"c1": 1e308, "c2": 1e308}, "['c1', 'c2'] are too large"),
        ({"inertia": [1e308, 1e308]}, "['inertia'] are too large"),
        ({"inertia": [1e308, -1e308]}, "its decay w_end - w_start overflows"),
    ], ids=["c1-c2", "inertia", "inertia-decay"])
    def test_swarm_coefficients_that_overflow_are_a_validation_error(self, tmp_path, capsys,
                                                                     monkeypatch, mopso, named):
        # accepted before, these tuned from NaN positions
        path = self.write_config(tmp_path, mopso=mopso)
        monkeypatch.setattr(harness, "run_method", lambda *a, **k: pytest.fail("tuned a cell"))
        for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*args, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("validation error: mopso ") and named in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fraction", [-1, 0, 0.0, 1.5])
    def test_leader_fraction_outside_zero_one_is_a_validation_error(self, tmp_path, capsys,
                                                                   monkeypatch, fraction):
        # accepted before: -1 ran as a share of one leader
        path = self.write_config(tmp_path, mopso={"leader_fraction": fraction})
        monkeypatch.setattr(harness, "run_method", lambda *a, **k: pytest.fail("tuned a cell"))
        for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*args, "--config", str(path)]) == 1
            assert capsys.readouterr().err == ("validation error: bad mopso settings: "
                                               "leader_fraction must lie in (0, 1]\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change,unknown", [
        ({"baselin": {"sampled": 5}}, "config keys ['baselin']"),
        ({"mdoe": "honest"}, "config keys ['mdoe']"),
        ({"Seed": 1, "threads": 2}, "config keys ['Seed', 'threads']"),
        ({"datasets": [{"name": "synthetic_small", "bogus": 1}]}, "dataset keys ['bogus']"),
        ({"datasets": ["synthetic_small", {"name": "x", "path": "x.csv", "effort_column": "e",
                                           "categorical_column": ["a"]}]},
         "dataset keys ['categorical_column']"),
    ], ids=["baselin", "mdoe", "two-keys", "entry-bogus", "entry-role"])
    def test_unknown_keys_are_a_validation_error(self, tmp_path, capsys, monkeypatch, change,
                                                 unknown):
        # accepted before and ignored: "mdoe" ran the oracle mode, and
        # "categorical_column" scaled a categorical column as a numeric one
        choices = ("['baseline', 'datasets', 'methods', 'mode', 'mopso', 'output_dir', 'seed']"
                   if unknown.startswith("config") else
                   "['categorical_columns', 'effort_column', 'excluded_columns', 'name', 'path']")
        (tmp_path / "x.csv").write_text("a,e\n1,2\n3,4\n5,6\n")  # entry-role's table
        path = self.write_config(tmp_path, **change)
        monkeypatch.setattr(harness, "run_method", lambda *a, **k: pytest.fail("tuned a cell"))
        for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*args, "--config", str(path)]) == 1
            assert capsys.readouterr().err == \
                f"validation error: unknown {unknown}; choose from {choices}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("verb", [["run"], ["tune", "--dataset", "synthetic_small",
                                                "--method", "lt"]], ids=["run", "tune"])
    def test_threads_below_one_are_a_validation_error(self, tmp_path, verb, threads):
        path = self.write_config(tmp_path)
        out = ["--out", str(tmp_path / "out")] if verb == ["run"] else []
        proc = self.cli(*verb, "--config", str(path), *out, "--threads", threads)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"validation error: --threads must be at least 1, got {threads}\n"
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content,roles,where", [
        (b"", {}, "empty file"),
        (b"size,effort\n1,10\n2,20\n\xe9,30\n", {}, "line 4: not UTF-8"),
        (b"size,effort\n1,10\n" + b"2" * 131_073 + b",20\n3,30\n", {}, "row 3: field larger"),
        (b"size,effort\n1,10\ninf,20\n3,30\n", {}, "row 3, column 'size'"),
        (b"size,effort\n1,10\n2,inf\n3,30\n", {}, "row 3, column 'effort'"),
        (b"size,id,effort\n1,1,10\n2,2,20\n3,3,30\n", {"excluded_columns": ["ID"]}, "['ID']"),
        (b"size,effort\n1,10\n2,20\n", {}, "need at least 3 projects"),
        (b"a,effort\n1,1e-320\n2,20\n3,30\n4,40\n", {}, "row 2: effort must lie in"),
        (b"a,effort\n1,1e308\n2,1.5e308\n3,1.7e308\n4,1.2e308\n", {},
         "row 2: effort must lie in"),
    ], ids=["empty", "not-utf8", "oversize-field", "inf-input", "inf-effort", "unknown-column",
            "two-rows", "effort-too-small", "effort-too-large"])
    def test_malformed_dataset_file_is_a_validation_error(self, tmp_path, capsys, monkeypatch,
                                                           content, roles, where):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(content)
        path = self.write_config(tmp_path, datasets=["synthetic_small", {
            "name": "bad", "path": str(csv), "effort_column": "effort", **roles}])
        monkeypatch.setattr(harness, "run_method", lambda *a, **k: pytest.fail("tuned a cell"))
        for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*args, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"validation error: {csv}: ") and where in err, err
        assert not (tmp_path / "out").exists()

    def test_dataset_name_with_a_path_separator_is_a_validation_error(self, tmp_path, capsys,
                                                                       monkeypatch):
        (tmp_path / "t.csv").write_text("a,effort\n1,10\n2,20\n3,30\n4,40\n")
        path = self.write_config(tmp_path, datasets=[
            {"name": "a/b", "path": str(tmp_path / "t.csv"), "effort_column": "effort"}])
        monkeypatch.setattr(harness, "run_method", lambda *a, **k: pytest.fail("tuned a cell"))
        for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*args, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err == "validation error: dataset name 'a/b' contains a path separator; " \
                          "report files are named after it\n", err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["compare", "--threads", "0", "--seed", "-5", "p.csv"],
        ["compare", "--config", "c.json", "p.csv"],
        ["compare", "--mode", "honest", "p.csv"],
        ["validate", "--config", "c.json", "--seed", "1"],
        ["validate", "--config", "c.json", "--out", "o"],
        ["validate", "--config", "c.json", "--threads", "2"],
        ["validate", "--config", "c.json", "--mode", "oracle"],
        ["tune", "--config", "c.json", "--dataset", "nasa", "--method", "lt", "--out", "o"],
    ], ids=["compare-threads-seed", "compare-config", "compare-mode", "validate-seed",
            "validate-out", "validate-threads", "validate-mode", "tune-out"])
    def test_a_verb_rejects_flags_it_does_not_read(self, tmp_path, args):
        proc = self.cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert "unrecognized arguments" in proc.stderr, proc.stderr
        assert proc.stdout == ""

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

    def test_seed_override_gives_the_bytes_of_a_config_with_that_seed(self, tmp_path):
        self.cli("run", "--config", str(self.write_config(tmp_path)), "--out",
                 str(tmp_path / "flag"), "--seed", "123456")
        (tmp_path / "file").mkdir()
        path = self.write_config(tmp_path / "file", seed=123456)
        self.cli("run", "--config", str(path), "--out", str(tmp_path / "file"))
        flag = (tmp_path / "flag" / "report.json").read_bytes()
        assert flag == (tmp_path / "file" / "report.json").read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_override_out_of_range_is_a_validation_error(self, tmp_path, capsys,
                                                              monkeypatch, seed):
        path = self.write_config(tmp_path)
        monkeypatch.setattr(harness, "run_method", lambda *a, **k: pytest.fail("tuned a cell"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out), "--seed", seed]) == 1
        assert capsys.readouterr().err == \
            "validation error: seed must be an unsigned 64-bit integer\n"
        assert not out.exists()

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

    def test_tune_is_a_one_cell_run(self, tmp_path, capsys, monkeypatch):
        path = self.write_config(tmp_path, datasets=["nasa", "synthetic_small"],
                                 methods=["abe0", "lt", "gt"])
        real, runs = harness.run_experiment, []
        monkeypatch.setattr(harness, "run_experiment",
                            lambda cfg, threads: runs.append(cfg) or real(cfg, threads=threads))
        assert cli.main(["tune", "--config", str(path), "--dataset", "synthetic_small",
                         "--method", "abe0"]) == 0
        [cfg] = runs
        assert [d.name for d in cfg.datasets] == ["synthetic_small"]
        assert cfg.methods == ("abe0",)
        cell = real(cfg)["results"]["synthetic_small"]["abe0"]
        out = capsys.readouterr().out
        assert out.startswith(f"dataset=synthetic_small method=abe0 mode=best_k_scan\n"
                              f"  solution[0]: k={cell['solutions'][0]['k']}\n")
        assert f" SA={100 * cell['metrics']['sa']:.1f} " in out

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

    @pytest.mark.parametrize("column,cell", [
        ("project_index", "1.5"),
        ("actual", "many"),
        ("actual", "inf"),
        ("actual", "0"),
        ("actual", "-4"),
        ("predicted", "x1"),
        ("predicted", "inf"),
        ("predicted", "nan"),
    ], ids=["index-not-integer", "actual-not-numeric", "actual-inf", "actual-zero",
            "actual-negative", "predicted-not-numeric", "predicted-inf", "predicted-nan"])
    def test_compare_rejects_a_malformed_predictions_file(self, tmp_path, capsys, column, cell):
        header = ["dataset", "method", "project_index", "actual", "predicted"]
        rows = [["d", m, str(i), str(10.0 * (i + 1)), str(9.0 * (i + 1) + j)]
                for j, m in enumerate(("abe0", "lt")) for i in range(4)]
        rows[5][header.index(column)] = cell  # line 7 of the file
        path = tmp_path / "predictions.csv"
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        assert cli.main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {path}: row 7, column '{column}': "
                              f"{cell!r} is not "), err
        assert not (tmp_path / "cmp").exists()

    @staticmethod
    def predictions_file(path, rows):
        path.write_text("dataset,method,project_index,actual,predicted\n"
                        + "".join(",".join(map(str, r)) + "\n" for r in rows))
        return path

    def test_compare_pairs_projects_by_index(self, tmp_path, capsys):
        # same actuals in the same order, but method b predicts other projects
        rows = [("d", "a", i, 10.0 * (j + 1), 9.0 * (j + 1)) for j, i in enumerate((0, 5, 9))]
        rows += [("d", "b", i, 10.0 * (i + 1), 8.0 * (i + 1)) for i in range(3)]
        path = self.predictions_file(tmp_path / "p.csv", rows)
        assert cli.main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == 1
        assert capsys.readouterr().err == (
            "validation error: d: methods disagree on the project indices or actuals\n")
        assert not (tmp_path / "cmp").exists()

    def test_compare_rejects_a_repeated_index(self, tmp_path, capsys):
        rows = [("d", m, i, 10.0 * (i + 1), 9.0 * (i + 1) + j)
                for j, m in enumerate("ab") for i in (0, 1, 1, 2)]
        path = self.predictions_file(tmp_path / "p.csv", rows)
        assert cli.main(["compare", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"validation error: {path}: row 4: project_index 1 repeats\n")

    def test_compare_rejects_a_method_whose_rows_differ_between_files(self, tmp_path, capsys):
        rows = [("d", m, i, 10.0 * (i + 1), 9.0 * (i + 1) + j)
                for j, m in enumerate("ab") for i in range(4)]
        one = self.predictions_file(tmp_path / "one.csv", rows)
        rows[5] = ("d", "b", 1, 20.0, 17.5)
        two = self.predictions_file(tmp_path / "two.csv", rows)
        assert cli.main(["compare", str(one), str(two), "--out", str(tmp_path / "cmp")]) == 1
        assert capsys.readouterr().err == (
            f"validation error: {two}: the rows of ('d', 'b') differ from an earlier file's\n")
        assert not (tmp_path / "cmp").exists()

    def test_compare_files_that_share_identical_rows(self, tmp_path, capsys):
        rows = {m: [("d", m, i, 10.0 * (i + 1), 9.0 * (i + 1) + 3 * j) for i in range(4)]
                for j, m in enumerate(("abe0", "lt", "gt"))}
        one = self.predictions_file(tmp_path / "one.csv", rows["abe0"] + rows["lt"])
        two = self.predictions_file(tmp_path / "two.csv", rows["gt"] + rows["abe0"])
        assert cli.main(["compare", str(one), str(two), str(one)]) == 0
        out = capsys.readouterr().out
        assert [line.split(":")[1] for line in out.splitlines()] == [
            " abe0 vs lt", " abe0 vs gt", " lt vs gt"]

    def test_compare_rejects_a_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_bytes(b"dataset,method,project_index,actual,predicted\n"
                         b"d,a,0,10.0,9.0\nd,caf\xe9,0,10.0,9.0\n")
        assert cli.main(["compare", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"validation error: {path}: line 3: not UTF-8 text")

    @pytest.mark.parametrize("mode,table,categorical", [
        ("oracle", "size,effort\n" + "".join(f"{i},{10 * i}\n" for i in range(1, 7)), []),
        ("honest", "size,effort\n" + "".join(f"{i},{10 * i}\n" for i in range(1, 4)), []),
        ("oracle", "size,effort\n" + "".join(f"{i},10\n" for i in range(1, 6)), []),
        ("oracle", "lang,team,effort\na,x,10\nb,x,20\na,y,35\nc,y,40\nb,z,55\na,z,70\n",
         ["lang", "team"]),
    ], ids=["oracle-6", "honest-3", "constant-effort", "all-categorical"])
    def test_degenerate_boxes_run_every_method(self, tmp_path, mode, table, categorical):
        # one feature pins the mask; in honest mode three projects leave one
        # weight row per inner fold, which pins k too, and lt_plus has no
        # free dimension left.  Equal efforts leave SA undefined for every
        # method that misses them, and categorical inputs adapt nothing.
        csv = tmp_path / "one.csv"
        csv.write_text(table)
        methods = list(harness.METHOD_ORDER)
        path = self.write_config(tmp_path, mode=mode, methods=methods, datasets=[
            {"name": "one", "path": str(csv), "effort_column": "effort",
             "categorical_columns": categorical}])
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "abetune.cli",
                               "run", "--config", str(path), "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        cells = report["results"]["one"]
        assert sorted(cells) == sorted(methods)
        undefined = [m for m in methods if math.isnan(cells[m]["metrics"]["sa"])]
        if len({row.rsplit(",", 1)[1] for row in table.splitlines()[1:]}) == 1:
            # ABE0 is exact; a NaN SA decides no comparison and ranks last
            assert cells["abe0"]["metrics"]["mae"] == 0 and cells["abe0"]["metrics"]["sa"] == 1
            assert undefined == methods[1:]
            assert report["win_tie_loss"]["one"]["abe0"]["sa"] == {"win": 0, "tie": 6, "loss": 0}
            ranks = {r["method"]: r["mean_rank"] for r in report["rank_summaries"]["sa"]}
            assert ranks == dict.fromkeys(methods, 4.5) | {"abe0": 1.0}
        else:
            assert not undefined

    def test_missing_config_is_validation_error(self):
        proc = self.cli("run")
        assert proc.returncode == 1
