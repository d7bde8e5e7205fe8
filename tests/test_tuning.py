from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from abetune import abe, datasets, harness, metrics, mopso, tuning
from abetune.datasets import load_bundled
from abetune.errors import BoundsError
from abetune.tuning import (
    VARIANTS, GlobalProblem, LocalProblem, SolutionSpace, VariantConfig, decode_position,
    select_from_front,
)
import scalar_reference as ref
from scalar_reference import numeric_std

ATOL = 1e-9
# k alone is tuned: the mask and the weights are both pinned.
K_ONLY = VariantConfig(optimize_features=False, optimize_weights=False)


def report_form(x, n_rows: int, m: int, variant: VariantConfig) -> dict:
    """The report-form solution `decode_position` gives for the position x
    in a fresh (n_rows, m, variant) space."""
    return decode_position(np.asarray(x, dtype=float), SolutionSpace(n_rows, m, variant))[1]


class TestDecodeMask:
    # One weight row pins k and lt_plus pins the weights, so these boxes hold
    # only the mask dimension.
    @staticmethod
    def decode(v: int, m: int) -> dict:
        return report_form(np.array([float(v)]), 1, m, VARIANTS["lt_plus"])

    def test_fifteen_of_six(self):
        sol = self.decode(15, 6)
        assert (sol["mask"], sol["v"]) == ([0, 0, 1, 1, 1, 1], 15)

    def test_full_mask(self):
        sol = self.decode(2 ** 5 - 1, 5)
        assert (sol["mask"], sol["v"]) == ([1, 1, 1, 1, 1], 31)

    def test_left_first_convention(self):
        sol = self.decode(1, 3)
        assert (sol["mask"], sol["v"]) == ([0, 0, 1], 1)


class TestPositionCodec:
    def variant(self):
        return VariantConfig()

    def test_round_half_up(self):
        x = np.array([3.4, 3.0] + [0.5] * 8)
        sol = report_form(x, n_rows=4, m=2, variant=self.variant())
        assert sol["k"] == 3
        x[0] = 3.5
        assert report_form(x, 4, 2, self.variant())["k"] == 4

    # With one weight row k can only be 1, so the box holds no k dimension
    # and these positions start at the mask.
    def test_weight_row_already_normalized(self):
        x = np.array([7.0, 0.2, 0.2, 0.6])
        sol = report_form(x, n_rows=1, m=3, variant=self.variant())
        assert sol["weights_used"][0] == pytest.approx([0.2, 0.2, 0.6], abs=ATOL)

    def test_weight_row_clamped_then_normalized(self):
        x = np.array([7.0, 2.0, 0.0, 0.0])
        sol = report_form(x, n_rows=1, m=3, variant=self.variant())
        assert sol["weights_used"][0] == pytest.approx([1.0, 0.0, 0.0], abs=ATOL)

    def test_zero_row_becomes_uniform(self):
        x = np.array([7.0, 0.0, 0.0, 0.0])
        sol = report_form(x, n_rows=1, m=3, variant=self.variant())
        assert sol["weights_used"][0] == pytest.approx([1 / 3] * 3, abs=ATOL)

    def test_roundtrip_identity(self):
        w = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
        sol = ref.solution(2, (1, 0), w)
        x = ref.encode_position(sol, SolutionSpace(n_rows=3, m=2, variant=self.variant()))
        back = report_form(x, n_rows=3, m=2, variant=self.variant())
        assert (back["k"], back["v"], back["mask"], back["n_rows"]) == (2, 2, [1, 0], 3)
        assert np.allclose(back["weights_used"], sol["weights_used"], atol=ATOL)

    def test_fixed_variables_left_out(self):
        v = K_ONLY
        space = SolutionSpace(n_rows=5, m=3, variant=v)
        assert space.bounds().dim == 1
        K, masks, W = space.decode(np.array([[2.6]]))
        assert K.tolist() == [3]
        assert masks.tolist() == [[1, 1, 1]]
        assert W.shape == (1, 5, 3)
        assert np.allclose(W, 1 / 3, atol=ATOL)
        assert np.allclose(W.sum(axis=2), 1.0, atol=ATOL)
        ref.assert_same_solution(report_form(np.array([2.6]), 5, 3, v),
                                 {"k": 3, "v": 7, "mask": [1, 1, 1], "n_rows": 5,
                                  "weights_used": W[0, :3]})

    def test_batch_decoder_matches_scalar_decode(self):
        # includes boxes where k (one row) or the mask (one feature) is pinned
        rng = np.random.default_rng(0)
        for variant in (VARIANTS["lt"], VARIANTS["lt_star"], VARIANTS["lt_plus"], K_ONLY):
            for n_rows, m in ((4, 3), (1, 3), (4, 1), (1, 2)):
                space = SolutionSpace(n_rows=n_rows, m=m, variant=variant)
                bounds = space.bounds()
                if bounds.dim == 0:
                    continue
                # reach a little past the box, as a mutated position may not
                X = rng.uniform(bounds.lower - 0.5, bounds.upper + 0.5, size=(40, bounds.dim))
                K, masks, W = space.decode(X)
                for i in range(40):
                    k, bits, w = ref.scalar_decode(X[i], n_rows, m, variant)
                    assert k == K[i]
                    assert list(masks[i]) == bits
                    assert np.array_equal(W[i], w)
                    rows, sol = decode_position(X[i], space)
                    ref.assert_same_solution(sol, ref.solution(k, bits, w))
                    # the one decode's rows are the batch's row i, bit for bit
                    for got, batch in zip(rows, (K, masks, W)):
                        assert got.dtype == batch.dtype
                        assert np.array_equal(got, batch[i:i + 1])

    def test_degenerate_dimensions_are_pinned(self):
        # one weight row leaves only k = 1, one feature only the mask (1,)
        assert SolutionSpace(n_rows=1, m=2, variant=K_ONLY).bounds().dim == 0
        assert SolutionSpace(n_rows=3, m=1, variant=VARIANTS["lt_plus"]).bounds().dim == 1
        ref.assert_same_solution(report_form(np.zeros(0), 1, 1, VARIANTS["lt_plus"]),
                                 {"k": 1, "v": 1, "mask": [1], "n_rows": 1,
                                  "weights_used": np.array([[1.0]])})

    @pytest.mark.parametrize("variant,n_rows,m,x", [
        (VARIANTS["lt"], 4, 3, [2.6, 5.0] + [0.3, 0.0, 0.9] * 4),
        (K_ONLY, 5, 3, [2.6]),
        (VARIANTS["lt_plus"], 1, 1, []),
    ], ids=["free", "pinned-weights", "no-box"])
    def test_weights_used_owns_its_k_rows(self, variant, n_rows, m, x):
        # a kept solution must not keep the decode's (1, n_rows, m) block alive
        sol = report_form(np.array(x), n_rows, m, variant)
        w = sol["weights_used"]
        assert type(w) is np.ndarray and w.dtype == np.float64
        assert w.shape == (sol["k"], m) and w.base is None

    def test_mask_exact_at_the_feature_limit(self):
        m = 52
        for v in (2 ** m - 1, 2 ** m - 3):
            sol = report_form(np.array([1.0, float(v)]), 2, m, VARIANTS["lt_plus"])
            assert sol["v"] == v
            assert sol["mask"] == ref.mask_bits(v, m)


def score(problem, sol: dict) -> np.ndarray:
    """A problem's objectives for one solution in report form."""
    return problem.score(*ref.solution_arrays(sol))[0]


class TestObjectives:
    def setup_method(self):
        self.ds = numeric_std(
            [[1.0, 2.0], [2.0, 1.0], [9.0, 8.0], [1.5, 1.5], [4.0, 4.0], [6.0, 7.0]],
            [10, 30, 80, 22, 46, 64])

    def full_sol(self, train_n, m, k=2):
        return ref.solution(k, (1,) * m, np.full((train_n, m), 1.0 / m))

    def test_lt_exact_prediction_zeroes_all(self):
        train = self.ds.subset([0, 1, 2])
        sol = ref.solution(1, (1, 1), np.ones((3, 2)))
        target = train.matrix[1]
        obj = score(LocalProblem(train, target, 30.0, VARIANTS["lt"]), sol)
        assert obj.tolist() == pytest.approx([0.0, 0.0, 0.0], abs=ATOL)

    def test_lt_substitution(self):
        # prediction 5 against actual 10 -> (5, 1.0, 0.5)
        train = numeric_std([[0.0], [0.5], [1.0]], [5, 5, 5]).subset([0, 1, 2])
        sol = ref.solution(1, (1,), np.ones((3, 1)))
        obj = score(LocalProblem(train, np.array([0.0]), 10.0, VARIANTS["lt"]), sol)
        assert obj.tolist() == pytest.approx([5.0, 1.0, 0.5], abs=ATOL)

    def test_lt_domination_ordering(self):
        a = np.array([1.0, 0.1, 0.05])
        b = np.array([2.0, 0.2, 0.10])
        assert ref.dominates(a, b)

    def test_gt_matches_stepwise_composition(self):
        sol = self.full_sol(train_n=self.ds.n - 1, m=2, k=3)
        got = score(GlobalProblem(self.ds, VARIANTS["gt"]), sol)
        baseline = metrics.random_guess_baseline(self.ds.effort_vec)
        want = ref.gt_objectives(self.ds, sol, baseline)
        assert got.tolist() == pytest.approx(want.tolist(), abs=1e-12)

    def test_gt_unused_weight_rows_inert(self):
        # positions that differ only in the weight rows past k decode to the
        # same solution, which holds only the k rows a prediction reads
        problem = GlobalProblem(self.ds, VARIANTS["gt"])
        space = problem.space
        base = self.full_sol(train_n=self.ds.n - 1, m=2, k=2)
        x = ref.encode_position(base, space)
        other_x = x.copy()
        other_x[-6:] = [0.9, 0.1, 0.3, 0.7, 0.2, 0.8]  # rows 3 to 5 of 5, all beyond k
        W = space.decode(np.stack([x, other_x]))[2]
        assert np.array_equal(W[0, :2], W[1, :2]) and not np.allclose(W[0, 2:], W[1, 2:])
        other = decode_position(other_x, space)[1]
        ref.assert_same_solution(decode_position(x, space)[1], other)
        assert np.array_equal(score(problem, base), score(problem, other))

    def test_gt_perfect_predictor_contrived(self):
        # duplicated projects: nearest neighbor always shares the effort
        ds = numeric_std([[0.0], [0.0], [5.0], [5.0], [9.0], [9.0]],
                         [10, 10, 50, 50, 90, 90])
        sol = ref.solution(1, (1,), np.ones((5, 1)))
        obj = score(GlobalProblem(ds, VARIANTS["gt"]), sol)
        assert obj.tolist() == pytest.approx([-1.0, 0.0, 0.0], abs=ATOL)

    def test_batched_problems_match_reference(self):
        train = self.ds.subset([0, 1, 2, 4, 5])
        target = self.ds.matrix[3]
        lp = LocalProblem(train, target, 22.0, VARIANTS["lt"])
        rng = np.random.default_rng(1)
        X = rng.uniform(lp.bounds.lower, lp.bounds.upper, size=(25, lp.bounds.dim))
        batch = lp.evaluate_batch(X)
        for i in range(25):
            sol = ref.solution(*ref.scalar_decode(X[i], train.n, train.m, VARIANTS["lt"]))
            want = ref.errors(22.0, ref.predict(train, target, sol))
            assert np.allclose(batch[i], want, atol=1e-9), (batch[i], want)

        gp = GlobalProblem(self.ds, VARIANTS["gt"])
        Xg = rng.uniform(gp.bounds.lower, gp.bounds.upper, size=(10, gp.bounds.dim))
        batch = gp.evaluate_batch(Xg)
        for i in range(10):
            sol = ref.solution(*ref.scalar_decode(Xg[i], self.ds.n - 1, self.ds.m, VARIANTS["gt"]))
            want = ref.gt_objectives(self.ds, sol, gp.baseline)
            assert np.allclose(batch[i], want, atol=1e-9)

    def test_leave_one_out_stack_matches_one_fold_contexts(self):
        # desharnais has a categorical feature, which must adapt nothing
        ds = load_bundled("desharnais")
        gp = GlobalProblem(ds, VARIANTS["gt"])
        rng = np.random.default_rng(5)
        X = rng.uniform(gp.bounds.lower, gp.bounds.upper, size=(40, gp.bounds.dim))
        K, masks, W = gp.space.decode(X)
        stacked = gp.ctx.predict_batch(K, masks, W)
        folds = [ds.loocv_fold(i) for i in range(ds.n)]
        one_by_one = np.hstack([abe._FoldContext([(train, row)]).predict_batch(K, masks, W)
                                for train, row, _ in folds])
        assert stacked.shape == (40, ds.n)
        assert np.array_equal(stacked, one_by_one)
        for j in range(8):
            sol = ref.solution(*ref.scalar_decode(X[j], ds.n - 1, ds.m, VARIANTS["gt"]))
            for i in (0, ds.n // 2, ds.n - 1):
                train, row, _ = folds[i]
                assert stacked[j, i] == pytest.approx(ref.predict(train, row, sol), rel=1e-12)


def bundled_problem(name: str, method: str):
    """A GlobalProblem over a bundled dataset, or a LocalProblem on its
    fourth fold."""
    ds = load_bundled(name)
    variant = VARIANTS[method]
    if variant.shared:
        return GlobalProblem(ds, variant)
    train, row, actual = ds.loocv_fold(3)
    return LocalProblem(train, row, actual, variant)


def peak_traced_bytes(call) -> int:
    """Peak bytes allocated, NumPy's data blocks included, while `call` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOwnedBuffers:
    """A problem decodes and predicts into buffers it owns and reuses; every
    result must have the bytes of a freshly built problem's."""

    @pytest.mark.parametrize("name,method", [("china", "lt"), ("china", "lt_plus"),
                                             ("albrecht", "gt"), ("desharnais", "gt_star")])
    def test_reused_buffers_give_a_fresh_problems_bytes(self, name, method):
        problem = bundled_problem(name, method)
        space, bounds = problem.space, problem.bounds
        rng = np.random.default_rng(8)
        X1 = rng.uniform(bounds.lower, bounds.upper, size=(100, bounds.dim))
        X2 = rng.uniform(bounds.lower, bounds.upper, size=(100, bounds.dim))
        X2[:, 0] = rng.uniform(1.0, space.n_rows / 2, size=100)  # a smaller K.max()
        assert space.decode(X1)[0].max() != space.decode(X2)[0].max()
        one_row = (np.array([2]), np.ones((1, space.m)), np.full((1, space.n_rows, space.m), 0.3))

        first = problem.evaluate_batch(X1)
        kept = first.copy()
        small = problem.ctx.predict_batch(*one_row)
        second = problem.evaluate_batch(X2)

        assert first.tobytes() == kept.tobytes()
        assert first.tobytes() == bundled_problem(name, method).evaluate_batch(X1).tobytes()
        assert small.tobytes() == bundled_problem(name, method).ctx.predict_batch(*one_row).tobytes()
        assert second.tobytes() == bundled_problem(name, method).evaluate_batch(X2).tobytes()

    def test_repeated_evaluation_allocates_less_than_a_weight_block(self):
        problem = bundled_problem("china", "lt")
        bounds = problem.bounds
        X = np.random.default_rng(2).uniform(bounds.lower, bounds.upper, size=(100, bounds.dim))
        problem.evaluate_batch(X)  # grows the buffers
        block = 100 * problem.space.n_rows * problem.space.m * 8
        assert peak_traced_bytes(lambda: problem.evaluate_batch(X)) < block


class TestSelectFromFront:
    """The front is an archive's (n, M) objective rows; the selection is a
    row index."""

    def test_single_solution(self):
        assert select_from_front(np.array([[1.0, 2.0]])) == 0

    def test_average_rank_tie_breaks_on_first_objective(self):
        front = np.array([[1.0, 9.0], [9.0, 1.0], [4.0, 4.0]])
        assert select_from_front(front) == 0

    def test_tied_values_share_their_mean_rank(self):
        # midranks give row 1 the best mean rank (5.5 / 3); ranking tied
        # values in row order would give it to row 0 (5 / 3)
        front = np.array([[1.0, 1.0, 3.0], [1.0, 2.0, 1.0], [2.0, 1.0, 2.0]])
        assert select_from_front(front) == 1

    def test_unanimous_winner(self):
        front = np.array([[2.0, 2.0], [1.0, 1.0], [3.0, 3.0]])
        assert select_from_front(front) == 1

    def test_empty_front(self):
        with pytest.raises(BoundsError):
            select_from_front(np.zeros((0, 0)))

    def test_remaining_tie_breaks_on_insertion_order(self):
        front = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert select_from_front(front) == 0


class TestRunners:
    def small_cfg(self, seed=3):
        return mopso.MopsoConfig(pop_size=20, max_iter=15, seed=seed)

    def test_lt_on_identical_projects_is_perfect(self):
        ds = numeric_std([[1.0, 1.0]] * 3 + [[1.0, 1.0]], [7, 7, 7, 7])
        res = tuning.run_lt(ds, VARIANTS["lt"], self.small_cfg())
        assert np.allclose(res.predictions, 7.0, atol=ATOL)

    def test_gt_on_identical_projects_is_perfect(self):
        ds = numeric_std([[1.0, 1.0]] * 4, [7, 7, 7, 7])
        res = tuning.run_gt(ds, VARIANTS["gt"], self.small_cfg())
        assert np.allclose(res.predictions, 7.0, atol=ATOL)

    def test_lt_fixed_seed_reproducible(self):
        ds = numeric_std([[1, 2], [2, 1], [9, 8], [4, 4], [6, 7]],
                         [10, 30, 80, 46, 64])
        r1 = tuning.run_lt(ds, VARIANTS["lt"], self.small_cfg(seed=11))
        r2 = tuning.run_lt(ds, VARIANTS["lt"], self.small_cfg(seed=11))
        assert np.array_equal(r1.predictions, r2.predictions)

    def test_lt_parallel_folds_match_serial(self):
        ds = numeric_std([[1, 2], [2, 1], [9, 8], [4, 4], [6, 7]],
                         [10, 30, 80, 46, 64])
        ser = tuning.run_lt(ds, VARIANTS["lt"], self.small_cfg(seed=4), fold_map=map)
        with ProcessPoolExecutor(max_workers=2) as pool:
            par = tuning.run_lt(ds, VARIANTS["lt"], self.small_cfg(seed=4), fold_map=pool.map)
        assert np.array_equal(ser.predictions, par.predictions)

    def test_gt_solution_reapplied_matches_predictions(self):
        ds = numeric_std([[1, 2], [2, 1], [9, 8], [4, 4], [6, 7]],
                         [10, 30, 80, 46, 64])
        res = tuning.run_gt(ds, VARIANTS["gt"], self.small_cfg(seed=5))
        sol = res.solutions[0]
        for i in range(ds.n):
            train, row, _ = ds.loocv_fold(i)
            assert res.predictions[i] == pytest.approx(ref.predict(train, row, sol), rel=1e-12)

    def test_lt_prediction_has_the_selected_entry_error(self):
        ds = load_bundled("albrecht")
        cfg = mopso.MopsoConfig(pop_size=10, max_iter=5, seed=3)
        res = tuning.run_lt(ds, VARIANTS["lt"], cfg)
        for i in range(ds.n):
            train, row, actual = ds.loocv_fold(i)
            problem = LocalProblem(train, row, actual, VARIANTS["lt"])
            fold_cfg = replace(cfg, seed=tuning._fold_seed(cfg.seed, i))
            archive = mopso.run(problem, fold_cfg)
            chosen = select_from_front(archive.fitnesses)
            sol = report_form(archive.positions[chosen], train.n, ds.m, VARIANTS["lt"])
            rows, tuned = tuning._tune(problem, fold_cfg)
            ref.assert_same_solution(res.solutions[i], sol)
            ref.assert_same_solution(tuned, sol)
            assert res.predictions[i] == abe.predict_adapted(abe._FoldContext([(train, row)]),
                                                             *rows)
            obj = archive.fitnesses[chosen]
            assert np.allclose(problem.score(*rows)[0], obj, rtol=1e-12, atol=0)
            assert abs(abs(actual - res.predictions[i]) - obj[0]) <= 1e-12 * max(1.0, actual)

    def test_honest_lt_prediction_applies_the_inner_solution_to_the_held_out_project(self):
        # an honest fold tunes a global problem over its training set and
        # predicts the held-out project with that solution's decoded rows
        ds = load_bundled("albrecht")
        cfg = mopso.MopsoConfig(pop_size=10, max_iter=5, seed=3)
        res = tuning.run_lt(ds, VARIANTS["lt"], cfg, honest=True)
        for i in range(ds.n):
            train, row, _ = ds.loocv_fold(i)
            fold_cfg = replace(cfg, seed=tuning._fold_seed(cfg.seed, i))
            rows, tuned = tuning._tune(GlobalProblem(train, VARIANTS["lt"]), fold_cfg)
            ref.assert_same_solution(res.solutions[i], tuned)
            pred = abe._FoldContext([(train, row)]).predict_batch(*rows)[0, 0]
            assert res.predictions[i] == pred

    @pytest.mark.parametrize("honest", [False, True], ids=["oracle", "honest"])
    def test_a_fold_orders_the_held_out_project_once_and_decodes_once(self, honest,
                                                                       monkeypatch):
        """An LT fold builds one fold context for the held-out project,
        which both scores (oracle mode) and predicts, and `_tune` decodes
        the chosen position once.  A decode without a weight block is a
        final decode: the swarm's evaluations pass the problem's own."""
        ds = load_bundled("albrecht")
        calls = {"neighbor_order": 0, "final_decode": 0}
        real_order, real_decode = abe.neighbor_order, SolutionSpace.decode

        def neighbor_order(*args):
            calls["neighbor_order"] += 1
            return real_order(*args)

        def decode(space, X, W=None):
            calls["final_decode"] += W is None
            return real_decode(space, X, W)

        monkeypatch.setattr(abe, "neighbor_order", neighbor_order)
        monkeypatch.setattr(SolutionSpace, "decode", decode)
        tuning.lt_fold(ds, VARIANTS["lt"], self.small_cfg(), honest, 0)
        # an honest fold also orders the n - 1 folds of its inner pass
        assert calls == {"neighbor_order": ds.n if honest else 1, "final_decode": 1}

    def test_fold_streams_are_distinct(self):
        def state(seed, fold):
            return tuple(tuning._fold_seed(seed, fold).generate_state(4, np.uint64).tolist())

        # the base seed XOR the fold index maps all three to seed 1
        assert len({state(1, 0), state(2, 3), state(3, 2)}) == 3
        assert len({state(seed, i) for seed in (1, 2, 3) for i in range(77)}) == 3 * 77

    def test_variant_flags_respected(self):
        ds = numeric_std([[1, 2], [2, 1], [9, 8], [4, 4], [6, 7]],
                         [10, 30, 80, 46, 64])
        star = tuning.run_lt(ds, VARIANTS["lt_star"], self.small_cfg())
        assert all(s["mask"] == [1, 1] and s["v"] == 3 for s in star.solutions)
        plus = tuning.run_lt(ds, VARIANTS["lt_plus"], self.small_cfg())
        for s in plus.solutions:
            assert np.allclose(s["weights_used"], 0.5, atol=ATOL)
            assert np.allclose(np.sum(s["weights_used"], axis=1), 1.0, atol=ATOL)

    def test_row_sums_of_optimized_solutions(self):
        ds = numeric_std([[1, 2], [2, 1], [9, 8], [4, 4], [6, 7]],
                         [10, 30, 80, 46, 64])
        res = tuning.run_lt(ds, VARIANTS["lt"], self.small_cfg(seed=2))
        for sol in res.solutions:
            assert len(sol["weights_used"]) == sol["k"]
            assert np.allclose(np.sum(sol["weights_used"], axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_report_solutions_hold_their_own_rows(self, threads):
        # a worker's solution arrives unpickled, its rows in a buffer of
        # their own; in this process it is decode_position's array itself
        cfg = harness.parse_config({"datasets": ["synthetic_small"], "seed": 5,
                                    "methods": ["lt", "lt_plus", "gt"],
                                    "mopso": {"pop_size": 8, "max_iter": 4}})
        cells = harness.run_experiment(cfg, threads=threads)["results"]["synthetic_small"]
        assert [len(cells[m]["solutions"]) for m in cfg.methods] == [8, 8, 1]
        for cell in cells.values():
            for sol in cell["solutions"]:
                w = sol["weights_used"]
                assert type(w) is np.ndarray and w.dtype == np.float64
                assert w.shape == (sol["k"], len(sol["mask"]))
                root = w
                while root.base is not None:
                    root = root.base
                assert memoryview(root).nbytes == w.nbytes
                if threads == 1:
                    assert w.base is None

    def test_lt_honest_mode_runs(self):
        ds = numeric_std([[1, 2], [2, 1], [9, 8], [4, 4], [6, 7], [3, 3]],
                         [10, 30, 80, 46, 64, 40])
        res = tuning.run_lt(ds, VARIANTS["lt"], self.small_cfg(), honest=True)
        assert res.mode == "local_honest"
        assert all(s["k"] <= ds.n - 2 == s["n_rows"] for s in res.solutions)

    @pytest.mark.parametrize("honest", [True, False], ids=["honest", "oracle"])
    def test_honest_prediction_ignores_the_held_out_effort(self, honest):
        """Scaling project i's effort by 0.5 or 1.3 leaves its honest
        prediction unchanged: an honest fold never reads the held-out
        actual.  An oracle fold does, so some of its predictions move."""
        ds = load_bundled("albrecht")
        cfg = mopso.MopsoConfig(pop_size=30, max_iter=30, seed=1)
        moved = 0
        for i in range(8):
            pred, _ = tuning.lt_fold(ds, VARIANTS["lt"], cfg, honest, i)
            for scale in (0.5, 1.3):
                efforts = ds.effort_vec.copy()
                efforts[i] *= scale
                scaled = replace(ds, effort_vec=efforts)
                moved += tuning.lt_fold(scaled, VARIANTS["lt"], cfg, honest, i)[0] != pred
        if honest:
            assert moved == 0
        else:
            assert moved > 0

    def test_k_histogram_varies_on_albrecht(self):
        ds = load_bundled("albrecht")
        res = tuning.run_lt(ds, K_ONLY,
                            mopso.MopsoConfig(pop_size=30, max_iter=20, seed=1))
        assert len({s["k"] for s in res.solutions}) > 1
        assert ref.folds_below_optimum(ds.effort_vec, res.predictions,
                                       ref.local_optimum(ds, K_ONLY)) == []


class TestLocalOptimum:
    """`scalar_reference.local_optimum`, the exact yardstick of local tuning."""

    def test_free_weights_need_only_the_drop_one_masks(self, monkeypatch):
        ds = load_bundled("albrecht")
        few = ref.local_optimum(ds, VARIANTS["lt"])
        monkeypatch.setattr(ref, "_reachable_masks",
                            lambda m, variant: [ref.mask_bits(v, m) for v in range(1, 2 ** m)])
        assert np.array_equal(ref.local_optimum(ds, VARIANTS["lt"]), few)

    @pytest.mark.parametrize("variant", [VARIANTS["lt_plus"], K_ONLY], ids=["lt_plus", "k_only"])
    def test_pinned_weights_match_the_kernel_over_every_k_and_mask(self, variant):
        # pinned weights leave a finite space: every (k, mask) scored by the
        # problem the swarm tunes, then each objective's least value
        ds = load_bundled("synthetic_small")
        optimum = ref.local_optimum(ds, variant)
        masks = np.array([ref.mask_bits(v, ds.m) for v in range(1, 2 ** ds.m)]
                         if variant.optimize_features else [[1] * ds.m], dtype=float)
        for i in range(ds.n):
            train, row, actual = ds.loocv_fold(i)
            problem = LocalProblem(train, row, actual, variant)
            K = np.repeat(np.arange(1, train.n + 1), len(masks))
            W = np.full((len(K), train.n, ds.m), 1.0 / ds.m)
            scores = problem.score(K, np.tile(masks, (train.n, 1)), W)
            np.testing.assert_allclose(scores.min(axis=0), optimum[i], rtol=1e-12, atol=0)


class TestBestK:
    def test_constant_effort_ties_resolve_to_one(self):
        ds = numeric_std([[1, 2], [2, 1], [5, 5], [0, 9]], [7, 7, 7, 7])
        k, preds = tuning.best_k_abe0(ds)
        assert k == 1
        assert np.allclose(preds, 7.0)

    @staticmethod
    def scan(ds):
        """The best k and its predictions by brute force over every k with
        the scalar reference's ABE0, one fold at a time."""
        best = None
        for kk in range(1, ds.n):
            loo = []
            for i in range(ds.n):
                train, row, _ = ds.loocv_fold(i)
                loo.append(ref.abe0(train, row, kk))
            mae = float(np.mean(np.abs(np.array(loo) - ds.effort_vec)))
            if best is None or mae < best[1] - 1e-15:
                best = (kk, mae, loo)
        return best[0], best[2]

    def test_hand_enumeration_on_four_projects(self):
        ds = numeric_std([[0.0], [1.0], [2.0], [3.0]], [10, 20, 40, 80])
        k, preds = tuning.best_k_abe0(ds)
        want_k, want_preds = self.scan(ds)
        assert k == want_k
        assert np.allclose(preds, want_preds, atol=ATOL)

    def test_matches_a_per_fold_scan_on_a_bundled_dataset(self):
        ds = load_bundled("kemerer")
        k, preds = tuning.best_k_abe0(ds)
        want_k, want_preds = self.scan(ds)
        assert k == want_k
        assert np.allclose(preds, want_preds, rtol=1e-12, atol=0)

    def test_n_three_scans_two_ks(self):
        ds = numeric_std([[0.0], [1.0], [2.0]], [10, 20, 40])
        k, _ = tuning.best_k_abe0(ds)
        assert k in (1, 2)


# GT predictions of every bundled dataset and GT variant, under a small
# budget, with a digest of the predictions for 500 random positions: the
# arithmetic of a GT swarm's evaluations.  The first line names the OpenBLAS
# kernel that ran, or None where NumPy's BLAS is not a bundled scipy-openblas64.
GT_BYTES_SCRIPT = """
import ctypes, glob, hashlib, os
import numpy as np
from abetune import datasets, mopso, tuning

core = None
for path in glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*"):
    get = ctypes.CDLL(path).scipy_openblas_get_corename64_
    get.argtypes, get.restype = [], ctypes.c_char_p
    core = get().decode()
print(core)
cfg = mopso.MopsoConfig(seed=1, pop_size=20, max_iter=10)
for name in datasets.BUNDLED:
    ds = datasets.load_bundled(name)
    for method in ("gt", "gt_star", "gt_plus"):
        variant = tuning.VARIANTS[method]
        problem = tuning.GlobalProblem(ds, variant)
        X = np.random.default_rng(1).uniform(problem.bounds.lower, problem.bounds.upper,
                                             (500, problem.bounds.dim))
        batch = problem.ctx.predict_batch(*problem.space.decode(X))
        print(name, method, hashlib.sha256(batch.tobytes()).hexdigest(),
              tuning.run_gt(ds, variant, cfg).predictions.tobytes().hex())
"""


def cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


@pytest.mark.skipif(not {"avx2", "fma"} <= cpu_flags(), reason="the CPU lacks AVX2 or FMA")
def test_gt_predictions_do_not_depend_on_the_blas_kernel():
    """GT cells run in whichever process the pool picks; their bytes rest on
    the adaptation's matrix product giving the same bits under the kernel
    OpenBLAS picks at run time and under its Haswell kernel."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    native, haswell = (
        subprocess.run([sys.executable, "-c", GT_BYTES_SCRIPT], env=env | forced,
                       capture_output=True, text=True, check=True).stdout.splitlines()
        for forced in ({}, {"OPENBLAS_CORETYPE": "Haswell"}))
    if haswell[0] != "Haswell":
        pytest.skip(f"cannot confirm the Haswell kernel ran (got {haswell[0]})")
    assert len(native) == 1 + 3 * len(datasets.BUNDLED)
    assert native[1:] == haswell[1:], f"native kernel {native[0]}"
