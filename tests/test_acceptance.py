"""Acceptance gate: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 4 and 5 read
the report cells of the tool's own runs: a module fixture calls
`harness.run_experiment` at the default settings for three seeds, and those
runs dominate the runtime.  Criterion 5 and the exact-optimum check measure
the local cells against `scalar_reference.local_optimum`, the least value of
each fold's objectives over the whole space a local variant decodes to.
"""

import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from abetune import abe, datasets, harness, metrics, mopso, stats, tuning
import scalar_reference as ref

# The eight bundled benchmark tables, in table order; synthetic_small is not
# one of them.
BENCHMARK_NAMES = ["albrecht", "kemerer", "nasa", "telecom", "desharnais",
                   "cocomo", "china", "maxwell"]
# The datasets of the ablation check (criterion 5).
ABLATION_NAMES = ["albrecht", "kemerer"]
SEEDS = (1, 2, 3)
THREADS = max(1, min(4, os.cpu_count() or 1))
PAPER_ABE0_ALBRECHT_SA = 68.2  # anchor; tolerance +/- 15

_T0 = time.time()
_ELAPSED: dict[str, float] = {}


def _line(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")


@pytest.fixture(scope="module")
def bench():
    """The gate's runs of the tool: per seed, one `harness.run_experiment`
    of ABE0, LT and GT over the eight bundled datasets and one of the
    ablation variants LT* and LT+ on albrecht and kemerer, at the default
    settings.  Each run goes through one worker pool, which takes every GT
    cell and every LT fold as a task.  Returns each (dataset, method)
    report cell, one per seed in seed order."""
    t0 = time.time()
    cells = {}
    for seed in SEEDS:
        for names, methods in ((BENCHMARK_NAMES, ("abe0", "lt", "gt")),
                               (ABLATION_NAMES, ("lt_star", "lt_plus"))):
            cfg = harness.parse_config({"datasets": names, "methods": methods, "seed": seed})
            report = harness.run_experiment(cfg, threads=THREADS)
            for name, by_method in report["results"].items():
                for method, cell in by_method.items():
                    cells.setdefault((name, method), []).append(cell)
    _ELAPSED["bench"] = time.time() - t0
    return cells


def _percent(cells, measure: str) -> list:
    """A metric of each seed's cell, in percent."""
    return [100.0 * cell["metrics"][measure] for cell in cells]


@functools.cache
def _optimum(name: str, method: str) -> np.ndarray:
    """The exact least (AE, BRE, IBRE) of each fold of a local method."""
    return ref.local_optimum(datasets.load_bundled(name), tuning.VARIANTS[method])


def _pinned_rows(variant, n_rows: int, m: int) -> np.ndarray:
    """The weight rows a variant that does not optimize weights decodes to."""
    space = tuning.SolutionSpace(n_rows=n_rows, m=m, variant=variant)
    return space.decode(space.bounds().lower[None, :])[2][0]


def _all_masks(m: int) -> np.ndarray:
    """Every mask value 1..2^m-1 decoded as bits, from a box that holds only
    the mask dimension (one weight row pins k, lt_plus pins the weights)."""
    space = tuning.SolutionSpace(n_rows=1, m=m, variant=tuning.VARIANTS["lt_plus"])
    return space.decode(np.arange(1.0, 2 ** m)[:, None])[1]


def _ranked_fold(ds, i):
    """Held-out actual, then the training efforts and adaptation differences
    in rank order (nearest first), as the fold's context holds them."""
    train, row, actual = ds.loocv_fold(i)
    ctx = abe._FoldContext([(train, row)])
    return actual, ctx.efforts[:, 0], ctx.diffs[:, :, 0]


def _owm_row(k: int) -> np.ndarray:
    return abe._owm_matrix(np.array([k]), k)[0]


def _score(problem, sol: dict) -> np.ndarray:
    """A problem's objectives for one solution in report form."""
    return problem.score(*ref.solution_arrays(sol))[0]


def _floored(x):
    return np.maximum(x, abe.EPS_EFFORT)


def _gt_sa_ceiling(ds) -> float:
    """Upper bound (%) on the SA of any shared solution.  Features lie in
    [0, 1] and decoded weight rows sum to 1, so each adjustment is at most
    1/m in size and the OWM prediction stays within 1/m of the OWM of the k
    nearest efforts.  For one k shared by every project, MAE is then at least
    the mean distance from each actual to that interval; the ceiling is the
    best k's SA under this bound."""
    ranked = [_ranked_fold(ds, i) for i in range(ds.n)]
    owm = np.array([[_owm_row(k) @ efforts[:k] for k in range(1, ds.n)]
                    for _, efforts, _ in ranked])  # (project, k)
    actual = ds.efforts()[:, None]
    pred = np.clip(actual, _floored(owm - 1.0 / ds.m), _floored(owm + 1.0 / ds.m))
    mae = np.abs(actual - pred).mean(axis=0)
    mae_p0 = metrics.random_guess_baseline(ds.efforts()).mae_p0
    return 100.0 * float(np.max(1.0 - mae / mae_p0))


def test_c1_metric_unit_exactness():
    """Criterion 1: worked examples for the metric, analogy and tuning
    operations hold to 1e-9 (1e-6 for the log-deviation example)."""
    tol = 1e-9
    failures = []
    n_checks = 0

    def chk(label, got, want, eps=tol):
        nonlocal n_checks
        n_checks += 1
        if isinstance(want, (list, tuple, np.ndarray)):
            ok = np.allclose(np.array(got, dtype=float), np.array(want, dtype=float),
                             atol=eps, rtol=0)
        else:
            ok = abs(float(got) - float(want)) <= eps
        if not ok:
            failures.append(f"{label}: got {got!r}, wanted {want!r}")

    # metrics
    def errors(actual, predicted):  # (AE, BRE, IBRE) of one prediction
        return metrics.error_means([actual], [predicted])

    chk("ae identity", errors(100, 100)[0], 0)
    chk("ae under", errors(100, 80)[0], 20)
    chk("ae over", errors(80, 100)[0], 20)
    chk("bre(10,5)", errors(10, 5)[1], 1.0)
    chk("ibre(10,5)", errors(10, 5)[2], 0.5)
    chk("bre(5,10)", errors(5, 10)[1], 1.0)
    chk("ibre(5,10)", errors(5, 10)[2], 0.5)
    chk("bre exact", errors(10, 10)[1], 0.0)
    suite = metrics.aggregate([10], [5])
    chk("aggregate single", [suite["mbre"], suite["mibre"], suite["mae"]], [1.0, 0.5, 5.0])
    chk("aggregate mbre midpoint",
        metrics.aggregate([10, 10], [5, 10])["mbre"], 0.5)
    exact_suite = metrics.aggregate([10, 4], [10, 4])
    chk("aggregate exact", [exact_suite["mae"], exact_suite["mbre"], exact_suite["mibre"]],
        [0.0, 0.0, 0.0])
    chk("baseline enumeration", metrics.random_guess_baseline([1, 2, 3]).mae_p0, 4 / 3)
    chk("baseline zero spread", metrics.random_guess_baseline([5, 5, 5]).mae_p0, 0.0)
    sampled = metrics.random_guess_baseline([1, 2, 3], mode="sampled", runs=100_000, seed=3)
    if abs(sampled.mae_p0 - 4 / 3) > 0.02 * 4 / 3:
        failures.append(f"sampled baseline off: {sampled.mae_p0}")
    base = metrics.RandomGuessBaseline(100.0, 100.0)
    chk("sa perfect", metrics.sa(0.0, base), 1.0)
    chk("sa guessing", metrics.sa(100.0, base), 0.0)
    chk("sa 0.7", metrics.sa(30.0, base), 0.7)
    chk("effect none", metrics.effect_size(100, 100, 100), 0.0)
    chk("effect medium", metrics.effect_size(50, 100, 100), 0.5)
    chk("effect large", metrics.effect_size(20, 100, 100), 0.8)
    chk("lsd zero", metrics.lsd([10, 4], [10, 4]), 0.0)
    lam = [0.1, -0.1]
    chk("lsd hand formula", metrics.lsd([1.0, 1.0], [math.exp(-x) for x in lam]),
        math.sqrt((0.11 ** 2 + 0.09 ** 2) / 1.0), eps=1e-6)
    c = 0.37
    chk("lsd constant residual",
        metrics.lsd([1.0, 1.0], [math.exp(-c)] * 2), c * math.sqrt(2.0))

    # abe core
    no_cat = np.zeros(2, dtype=bool)
    chk("distance 3-4-5", abe.distance(np.array([0.0, 0.0]), np.array([0.6, 0.8]), no_cat), 1.0)
    chk("distance identity", abe.distance(np.array([0.3, 0.4]), np.array([0.3, 0.4]), no_cat), 0.0)
    chk("distance categorical",
        abe.distance(np.array([0.0]), np.array([1.0]), np.array([True])), 1.0)
    chk("mean single", ref.mean([10]), 10)
    chk("mean symmetric", ref.mean([10, 20, 30]), 20)
    chk("mean midpoint", ref.mean([7, 8]), 7.5)
    chk("irwm single", ref.irwm([10]), 10)
    chk("irwm pair", ref.irwm([10, 20]), 40 / 3)
    chk("irwm constant", ref.irwm([3.3, 3.3, 3.3]), 3.3)
    owm3 = abe._owm_matrix(np.arange(1, 4), 3)  # row k - 1 holds k's rank weights
    chk("owm weights k3", owm3[2], [4 / 7, 2 / 7, 1 / 7])
    chk("owm single", owm3[0, :1] @ [100.0], 100)
    chk("owm k3 value", owm3[2] @ [7.0, 14.0, 21.0], 11.0)

    def adapted(target, analogy, effort, mask):
        # one analogy at k = 1, whose OWM weight is 1, with weight row (1, 1);
        # the raw rows are set on a standardized dataset, so none is re-scaled
        train = replace(ref.numeric_std([[0, 0], [1, 1], [2, 2]], [1, 1, 1]),
                        matrix=np.array([analogy]), effort_vec=np.array([effort]))
        ctx = abe._FoldContext([(train, np.array(target))])
        return ctx.predict_batch(np.array([1]), np.array([mask], dtype=float),
                                 np.ones((1, 1, 2)))[0, 0]

    chk("adapt zero diff", adapted([0.2, 0.8], [0.2, 0.8], 42.0, (1, 1)), 42.0)
    chk("adapt full mask", adapted([0.5, 0.5], [0.3, 0.1], 10.0, (1, 1)), 10.3)
    chk("adapt partial mask", adapted([0.4, 0.9], [0.2, 0.1], 5.0, (1, 0)), 5.1)

    ds = ref.numeric_std([[0.5, 0.0], [0.2, 0.0], [0.9, 0.0], [0.0, 0.0]], [10, 20, 30, 40])
    chk("retrieve sort oracle", abe.neighbor_order(ds.subset([0, 1, 2]), ds.matrix[3])[:2],
        [1, 0])
    ds2 = ref.numeric_std([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [10, 30, 99])
    abe0_k, abe0_preds = tuning.best_k_abe0(ds2)  # k = 2; the third project's analogies tie
    chk("abe0 equidistant mean", [abe0_k, abe0_preds[2]], [2, 20.0])

    tiny = ref.numeric_std([[1.0, 2.0], [2.0, 1.0], [9.0, 8.0], [1.5, 1.5]], [10, 30, 80, 22])
    train = tiny.subset([0, 1, 2])
    sol = ref.solution(2, [1, 1], np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
    chk("predict_adapted compositional oracle",
        abe.predict_adapted(train, tiny.matrix[3], *ref.solution_arrays(sol)),
        ref.predict(train, tiny.matrix[3], sol))
    sol1 = ref.solution(1, [1, 1], np.ones((3, 2)))
    chk("predict_adapted identity",
        abe.predict_adapted(train, train.matrix[1], *ref.solution_arrays(sol1)), 30.0)

    # tuning codecs and selection
    # one weight row pins k to 1 and lt_plus the weights: a mask-only box
    plus = tuning.VARIANTS["lt_plus"]
    chk("decode mask 15/6",
        tuning.decode_position([15.0], 1, 6, plus)["mask"], [0, 0, 1, 1, 1, 1])
    chk("decode mask full", tuning.decode_position([7.0], 1, 3, plus)["mask"], [1, 1, 1])
    chk("decode mask left-first", tuning.decode_position([1.0], 1, 3, plus)["mask"], [0, 0, 1])
    v = tuning.VariantConfig()
    chk("round half up 3.4", tuning.decode_position(
        np.array([3.4, 3.0] + [0.5] * 8), 4, 2, v)["k"], 3)
    chk("round half up 3.5", tuning.decode_position(
        np.array([3.5, 3.0] + [0.5] * 8), 4, 2, v)["k"], 4)
    # one weight row pins k to 1, so the box has no k dimension
    chk("weight row fixed point", tuning.decode_position(
        np.array([7.0, 0.2, 0.2, 0.6]), 1, 3, v)["weights_used"][0], [0.2, 0.2, 0.6])
    chk("weight row clamp+normalize", tuning.decode_position(
        np.array([7.0, 2.0, 0.0, 0.0]), 1, 3, v)["weights_used"][0], [1.0, 0.0, 0.0])
    train = ref.numeric_std([[0.0], [0.5], [1.0]], [5, 5, 5])
    chk("lt objectives substitution",
        _score(tuning.LocalProblem(train, np.array([0.0]), 10.0, tuning.VARIANTS["lt"]),
               ref.solution(1, [1], np.ones((3, 1)))),
        [5.0, 1.0, 0.5])
    front = np.array([[1.0, 9.0], [9.0, 1.0], [4.0, 4.0]])
    if tuning.select_from_front(front) != 0:
        failures.append("select_from_front tie-break")
    dup = ref.numeric_std([[0.0], [0.0], [5.0], [5.0], [9.0], [9.0]], [10, 10, 50, 50, 90, 90])
    sol_nn = ref.solution(1, [1], np.ones((5, 1)))
    chk("gt objectives perfect",
        _score(tuning.GlobalProblem(dup, tuning.VARIANTS["gt"]), sol_nn), [-1.0, 0.0, 0.0])

    total = n_checks + 2  # chk() calls plus the two bespoke checks above
    _line("criterion 1", not failures,
          f"{total - len(failures)}/{total} worked examples exact"
          + (f"; failures: {failures}" if failures else ""))
    assert not failures, failures


def test_c2_mopso_closed_form():
    """Criterion 2: bi-objective bowl pair, pop 50, T 100, seed fixed."""
    class BiObjective:
        bounds = mopso.Bounds(lower=np.array([-5.0]), upper=np.array([5.0]))

        def evaluate_batch(self, X):
            x = X[:, 0]
            return np.stack([x ** 2, (x - 2.0) ** 2], axis=1)

    t0 = time.time()
    arc = mopso.run(BiObjective(), mopso.MopsoConfig(pop_size=50, max_iter=100, seed=42))
    dt = time.time() - t0
    F = arc.fitnesses
    nondominated = bool(mopso._non_dominated_mask(F).all())
    xs = np.array([p[0] for p in arc.positions])
    on_front = xs[(xs >= 0) & (xs <= 2)]
    bins = {min(int(x / 0.1), 19) for x in on_front}
    coverage = len(bins) / 20.0
    d_left = float(np.min(np.max(np.abs(F - [0.0, 4.0]), axis=1)))
    d_right = float(np.min(np.max(np.abs(F - [4.0, 0.0]), axis=1)))
    ok = nondominated and coverage >= 0.9 and d_left < 0.1 and d_right < 0.1 and dt < 5.0
    _line("criterion 2", ok,
          f"front coverage {coverage:.0%}, endpoints {d_left:.3f}/{d_right:.3f}, "
          f"non-dominated={nondominated}, {dt:.1f}s")
    assert nondominated
    assert coverage >= 0.9
    assert d_left < 0.1 and d_right < 0.1
    assert dt < 5.0


def test_c3_brute_force_pareto_equivalence():
    """Criterion 3: LT+ fronts vs exhaustive (k, v) enumeration, n=8, m=4."""
    t0 = time.time()
    ds = datasets.load_bundled("synthetic_small")
    variant = tuning.VARIANTS["lt_plus"]
    cfg = mopso.MopsoConfig(seed=7)
    masks = _all_masks(ds.m)
    checked = unique_cases = 0
    for i in range(ds.n):
        train, target_row, actual = ds.loocv_fold(i)
        rows = _pinned_rows(variant, train.n, ds.m)
        problem = tuning.LocalProblem(train, target_row, actual, variant)
        # every (k, mask) pair as one decoded batch, k-major
        K = np.repeat(np.arange(1, train.n + 1), len(masks))
        enumerated = problem.score(K, np.tile(masks, (train.n, 1)),
                                   np.broadcast_to(rows, (len(K),) + rows.shape))
        nd = enumerated[mopso._non_dominated_mask(enumerated)]

        fold_cfg = replace(cfg, seed=tuning._fold_seed(cfg.seed, i))
        archive = mopso.run(problem, fold_cfg)
        chosen_obj = problem.score(*tuning._tune(problem, fold_cfg)[0])[0]
        # dominance at the criterion's stated tolerance: an enumerated vector
        # must be at least 1e-9 better somewhere and no worse anywhere
        dominated = any(
            bool(np.all(e <= chosen_obj + 1e-9) and np.any(e < chosen_obj - 1e-9))
            for e in enumerated)
        assert not dominated, f"project {i}: selected vector dominated"
        front_best_ae = problem.score(*problem.space.decode(archive.positions))[:, 0].min()
        assert abs(front_best_ae - enumerated[:, 0].min()) <= 1e-9, \
            f"project {i}: best front AE misses the enumerated optimum"
        checked += 1
        if len(nd) == 1:
            unique_cases += 1
            assert abs(chosen_obj[0] - nd[0][0]) <= 1e-9, \
                f"project {i}: unique optimum AE missed"
    dt = time.time() - t0
    ok = checked == ds.n and dt < 30.0
    _line("criterion 3", ok,
          f"{checked} projects non-dominated vs enumeration "
          f"({unique_cases} unique-optimum cases), {dt:.1f}s")
    assert dt < 30.0


def test_c4_directional_benchmark(bench):
    """Criterion 4: LT beats the scanned baseline everywhere; the shared
    global solution loses at most twice; albrecht baseline anchored to the
    published value. Median SA over the three seeds."""
    lt_wins = []
    gt_wins = []
    gt_table = []
    for name in BENCHMARK_NAMES:
        abe0 = bench[name, "abe0"][0]  # the scan draws nothing, so every seed gives this cell
        abe0_sa = 100.0 * abe0["metrics"]["sa"]
        lt_med = float(np.median(_percent(bench[name, "lt"], "sa")))
        gt_med = float(np.median(_percent(bench[name, "gt"], "sa")))
        gt_k = [cell["solutions"][0]["k"] for cell in bench[name, "gt"]]
        lt_wins.append(lt_med > abe0_sa)
        gt_wins.append(gt_med >= abe0_sa)
        gt_table.append(
            f"{name}: ABE0 {abe0_sa:.2f} (k={abe0['solutions'][0]['k']}), "
            f"GT {gt_med:.2f} (k={'/'.join(map(str, gt_k))}), "
            f"GT ceiling {_gt_sa_ceiling(datasets.load_bundled(name)):.2f}")
    albrecht_sa = 100.0 * bench["albrecht", "abe0"][0]["metrics"]["sa"]
    anchor_ok = abs(albrecht_sa - PAPER_ABE0_ALBRECHT_SA) <= 15.0
    lt_ok = all(lt_wins)
    gt_ok = sum(gt_wins) >= 6
    detail = (f"LT>ABE0 on {sum(lt_wins)}/8, GT>=ABE0 on {sum(gt_wins)}/8 "
              f"(need >=6), albrecht ABE0 SA {albrecht_sa:.1f} vs {PAPER_ABE0_ALBRECHT_SA} "
              f"+/-15, bench wall {_ELAPSED.get('bench', 0):.0f}s; SA % by dataset: "
              + "; ".join(gt_table))
    _line("criterion 4", lt_ok and gt_ok and anchor_ok, detail)
    assert anchor_ok, f"albrecht anchor violated: {albrecht_sa:.1f}"
    assert lt_ok, f"LT SA must exceed ABE0 SA on all datasets: {lt_wins}"
    # Known red clause, kept faithful to the criterion.  Criterion 1 fixes
    # additive adaptation over [0, 1] features, OWM aggregation and weight
    # rows that sum to 1, which keep every GT prediction within 1/m effort
    # units of the OWM over the k nearest analogies (_gt_sa_ceiling).  That
    # SA ceiling lies below ABE0 on five datasets: kemerer 43.82 < 46.56,
    # desharnais 47.03 < 49.17, cocomo 37.25 < 43.24, china 56.84 < 56.86
    # (ABE0 k=2) and maxwell 45.80 < 46.45.  GT can therefore reach ABE0 on
    # at most 3 of 8 datasets whatever the optimizer, seed or selection rule.
    # The paper promises LT over GT, not GT over ABE0.
    assert gt_ok, (f"GT >= ABE0 on {sum(gt_wins)}/8 datasets, need 6; SA % by dataset: "
                   + "; ".join(gt_table))


def test_c5_ablation_ordering(bench):
    """Criterion 5: optimizing all three variables never worse (median MBRE)
    than pinning the mask or the weights, on albrecht and kemerer.

    Tie rule: LT counts as worse than a pinned variant only when its median
    MBRE trails by more than the optimizer's demonstrated resolution on the
    pinned problem, which is the pinned variant's median shortfall from its
    exact optimum.  The optima come from `scalar_reference.local_optimum`,
    independently of the tuning code, and no run, LT's included, may beat
    its own."""
    def runs_and_optimum(name, method):
        """Each seed's MBRE (%) and the exact least MBRE, which none beats."""
        runs = _percent(bench[name, method], "mbre")
        opt = 100.0 * float(np.mean(_optimum(name, method)[:, 1]))
        assert min(runs) >= opt - 1e-9, f"{name} {method}: a run beats the exact optimum {opt}"
        return runs, opt

    ok = {"LT*": True, "LT+": True}
    details = []
    for name in ABLATION_NAMES:
        lt_runs, lt_opt = runs_and_optimum(name, "lt")
        lt = float(np.median(lt_runs))
        parts = [f"{name}: LT {lt:.4f} (optimum {lt_opt:.4f})"]
        for label, method in (("LT*", "lt_star"), ("LT+", "lt_plus")):
            runs, opt = runs_and_optimum(name, method)
            pinned = float(np.median(runs))
            tol = float(np.median([r - opt for r in runs]))
            gap = lt - pinned
            parts.append(f"{label} {pinned:.4f} (gap {gap:+.4f}, tol {tol:.4f})")
            ok[label] = ok[label] and gap <= tol
        details.append(" vs ".join(parts))
    _line("criterion 5", all(ok.values()), "; ".join(details))
    # LT's space contains both pinned spaces: the mask v = 2^m - 1 is all
    # ones, and the pinned rows 1/m are the point every constant row decodes
    # to.  The exact optima agree to 1e-3 pp (LT vs LT*: albrecht 35.9180 vs
    # 35.9182, kemerer 75.4700 for both), while the median runs sit 0.02 to
    # 0.25 pp above them, so a smaller gap compares two optimizer residuals.
    # On kemerer LT trails LT* by 0.0005 against a tolerance of 0.0237.  The
    # rule keeps its power: with pinned rows of literal ones, which reach
    # adjustments up to the full difference sum over m rather than 1/m, LT+
    # led LT by 0.5298 (tolerance 0.0114) on albrecht and 0.0612 (tolerance
    # 0.0000) on kemerer.
    assert all(ok.values()), f"ablation ordering violated {ok}: {details}"


def test_tuned_folds_do_not_beat_the_exact_optimum(bench):
    """No fold of an LT, LT* or LT+ cell the gate tuned sits below the exact
    least value of any of its objectives (`scalar_reference.local_optimum`),
    up to `scalar_reference.OPTIMUM_TOLERANCE`."""
    checked = 0
    below = []
    for (name, method), cells in bench.items():
        if method not in tuning.VARIANTS or tuning.VARIANTS[method].shared:
            continue
        for seed, cell in zip(SEEDS, cells):
            folds = ref.folds_below_optimum(cell["actuals"], cell["predictions"],
                                            _optimum(name, method))
            below += [f"{name} {method} seed {seed} fold {i}" for i in folds]
            checked += len(cell["actuals"])
    _line("exact optimum", not below,
          f"{checked} tuned LT-family folds, {len(below)} below their exact optimum")
    assert not below, below


def test_c6_property_suites(property_suite_runs):
    """Criterion 6: the randomized invariant suites (>=1000 cases each).  When
    this session runs all of test_properties.py, conftest.py runs this test
    last and hands it that file's reports; otherwise it runs the file."""
    if property_suite_runs is None:
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(Path(__file__).parent / "test_properties.py"),
             "-q", "--no-header"],
            capture_output=True, text=True)
        dt = time.time() - t0
        ok = proc.returncode == 0
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "?"
        _line("criterion 6", ok, f"property suites: {tail} ({dt:.0f}s)")
        assert ok, proc.stdout + proc.stderr
        return
    failed, few = [], []
    for item, reports in property_suite_runs:
        if not (any(r.when == "call" for r in reports) and all(r.passed for r in reports)):
            failed.append(item.nodeid)
        cfg = getattr(item.function, "_hypothesis_internal_use_settings", None)
        if cfg is None or cfg.max_examples < 1000:
            few.append(item.nodeid)
    ok = not failed and not few
    _line("criterion 6", ok, f"property suites: {len(property_suite_runs)} ran in this "
                             f"session, {len(failed)} did not pass, {len(few)} under 1000 cases")
    assert not failed, f"property tests that did not run and pass: {failed}"
    assert not few, f"property tests with fewer than 1000 cases: {few}"


def test_c7_wilcoxon_correctness():
    """Criterion 7: exact p-values and tally conservation."""
    p1 = stats.wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    p2 = stats.wilcoxon_rank_sum([1, 2, 3], [1, 2, 3])
    rng = np.random.default_rng(123)
    methods = ["m1", "m2", "m3", "m4"]
    # distinct error scales so the tournament produces real wins, not all ties
    errors = {m: (rng.random(20) * (i + 1) ** 2).tolist()
              for i, m in enumerate(methods)}
    measures = {m: {"mae": float(np.mean(errors[m]))} for m in methods}
    tallies, _ = stats.win_tie_loss(errors, measures)
    total_wins = sum(tallies[m]["mae"]["win"] for m in methods)
    total_losses = sum(tallies[m]["mae"]["loss"] for m in methods)
    ok = abs(p1 - 0.1) < 1e-12 and p2 == 1.0 and total_wins == total_losses
    _line("criterion 7", ok,
          f"exact p={p1}, identical p={p2}, wins {total_wins} == losses {total_losses}")
    assert abs(p1 - 0.1) < 1e-12
    assert p2 == 1.0
    assert total_wins > 0
    assert total_wins == total_losses


def test_c8_thread_determinism(tmp_path):
    """Criterion 8: report bytes identical for --threads 1 and 4."""
    cfg = {
        "datasets": [{"name": "synthetic_small"}, {"name": "nasa"}],
        "methods": ["abe0", "lt", "gt"],
        "mopso": {"pop_size": 16, "max_iter": 10},
        "seed": 31,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    reports = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "abetune.cli", "run", "--config", str(cfg_path),
             "--out", str(out), "--threads", threads],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    ok = reports[0] == reports[1]
    _line("criterion 8", ok, f"report.json identical across thread counts "
                             f"({len(reports[0])} bytes)")
    assert ok


def test_c9_runtime_budget():
    """Criterion 9: criteria 1-8 complete within the ten-minute budget on a
    four-core machine; on smaller machines the budget scales by the missing
    cores since the fold work parallelizes."""
    elapsed = time.time() - _T0
    cores = os.cpu_count() or 1
    budget = 600.0 if cores >= 4 else 600.0 * (4.0 / cores)
    ok = elapsed < budget
    _line("criterion 9", ok,
          f"criteria 1-8 wall time {elapsed:.0f}s on {cores} cores "
          f"(budget {budget:.0f}s)")
    assert ok, f"{elapsed:.0f}s exceeds {budget:.0f}s"
