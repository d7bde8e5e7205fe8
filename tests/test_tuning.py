from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from abetune import abe, metrics, mopso, tuning
from abetune.data import Dataset, FeatureSpec, Project, Role, standardize
from abetune.datasets import load_bundled
from abetune.errors import BoundsError
from abetune.tuning import (
    VARIANTS, GlobalProblem, LocalProblem, SolutionSpace, SolutionVector, VariantConfig,
    decode_mask, decode_position, select_from_front,
)
import scalar_reference as ref

ATOL = 1e-9


def numeric_std(rows, efforts):
    m = len(rows[0])
    specs = tuple(FeatureSpec(f"f{j}") for j in range(m)) + (
        FeatureSpec("effort", role=Role.EFFORT),)
    projects = tuple(Project(values=tuple(map(float, r)), effort=float(e))
                     for r, e in zip(rows, efforts))
    return standardize(Dataset(specs=specs, projects=projects))


class TestDecodeMask:
    def test_fifteen_of_six(self):
        assert decode_mask(15, 6).bits == (0, 0, 1, 1, 1, 1)

    def test_full_mask(self):
        assert decode_mask(2 ** 5 - 1, 5).bits == (1, 1, 1, 1, 1)

    def test_left_first_convention(self):
        assert decode_mask(1, 3).bits == (0, 0, 1)

    def test_out_of_range(self):
        with pytest.raises(BoundsError):
            decode_mask(0, 4)
        with pytest.raises(BoundsError):
            decode_mask(16, 4)


class TestPositionCodec:
    def variant(self):
        return VariantConfig()

    def test_round_half_up(self):
        x = np.array([3.4, 3.0] + [0.5] * 8)
        sol = decode_position(x, n_rows=4, m=2, variant=self.variant())
        assert sol.k == 3
        x[0] = 3.5
        assert decode_position(x, 4, 2, self.variant()).k == 4

    # With one weight row k can only be 1, so the box holds no k dimension
    # and these positions start at the mask.
    def test_weight_row_already_normalized(self):
        x = np.array([7.0, 0.2, 0.2, 0.6])
        sol = decode_position(x, n_rows=1, m=3, variant=self.variant())
        assert sol.weights[0].tolist() == pytest.approx([0.2, 0.2, 0.6], abs=ATOL)

    def test_weight_row_clamped_then_normalized(self):
        x = np.array([7.0, 2.0, 0.0, 0.0])
        sol = decode_position(x, n_rows=1, m=3, variant=self.variant())
        assert sol.weights[0].tolist() == pytest.approx([1.0, 0.0, 0.0], abs=ATOL)

    def test_zero_row_becomes_uniform(self):
        x = np.array([7.0, 0.0, 0.0, 0.0])
        sol = decode_position(x, n_rows=1, m=3, variant=self.variant())
        assert sol.weights[0].tolist() == pytest.approx([1 / 3] * 3, abs=ATOL)

    def test_roundtrip_identity(self):
        w = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
        sol = SolutionVector(k=2, mask=abe.FeatureMask((1, 0)), weights=w)
        x = ref.encode_position(sol, SolutionSpace(n_rows=3, m=2, variant=self.variant()))
        back = decode_position(x, n_rows=3, m=2, variant=self.variant())
        assert back.k == sol.k
        assert back.mask.bits == sol.mask.bits
        assert np.allclose(back.weights, sol.weights, atol=ATOL)

    def test_fixed_variables_left_out(self):
        v = VARIANTS["k_only"]
        space = SolutionSpace(n_rows=5, m=3, variant=v)
        assert space.bounds().dim == 1
        sol = decode_position(np.array([2.6]), 5, 3, v)
        assert sol.k == 3
        assert sol.mask.bits == (1, 1, 1)
        assert sol.weights.shape == (5, 3)
        assert np.allclose(sol.weights, 1 / 3, atol=ATOL)
        assert np.allclose(sol.weights.sum(axis=1), 1.0, atol=ATOL)

    def test_batch_decoder_matches_scalar_decode(self):
        # includes boxes where k (one row) or the mask (one feature) is pinned
        rng = np.random.default_rng(0)
        for name in ("lt", "lt_star", "lt_plus", "k_only"):
            for n_rows, m in ((4, 3), (1, 3), (4, 1), (1, 2)):
                space = SolutionSpace(n_rows=n_rows, m=m, variant=VARIANTS[name])
                bounds = space.bounds()
                if bounds.dim == 0:
                    continue
                # reach a little past the box, as a mutated position may not
                X = rng.uniform(bounds.lower - 0.5, bounds.upper + 0.5, size=(40, bounds.dim))
                K, masks, W = space.decode(X)
                for i in range(40):
                    sol = ref.scalar_decode(X[i], n_rows, m, VARIANTS[name])
                    assert sol.k == K[i]
                    assert list(masks[i]) == list(sol.mask.bits)
                    assert np.array_equal(W[i], sol.weights)

    def test_degenerate_dimensions_are_pinned(self):
        # one weight row leaves only k = 1, one feature only the mask (1,)
        assert SolutionSpace(n_rows=1, m=2, variant=VARIANTS["k_only"]).bounds().dim == 0
        assert SolutionSpace(n_rows=3, m=1, variant=VARIANTS["lt_plus"]).bounds().dim == 1
        sol = decode_position(np.zeros(0), 1, 1, VARIANTS["lt_plus"])
        assert (sol.k, sol.mask.bits, sol.weights.tolist()) == (1, (1,), [[1.0]])

    def test_mask_exact_at_the_feature_limit(self):
        m = 52
        for v in (2 ** m - 1, 2 ** m - 3):
            sol = decode_position(np.array([1.0, float(v)]), 2, m, VARIANTS["lt_plus"])
            assert sol.mask_int == v


class TestObjectives:
    def setup_method(self):
        self.ds = numeric_std(
            [[1.0, 2.0], [2.0, 1.0], [9.0, 8.0], [1.5, 1.5], [4.0, 4.0], [6.0, 7.0]],
            [10, 30, 80, 22, 46, 64])

    def full_sol(self, train_n, m, k=2):
        return SolutionVector(k=k, mask=abe.FeatureMask((1,) * m),
                              weights=np.full((train_n, m), 1.0 / m))

    def test_lt_exact_prediction_zeroes_all(self):
        train = self.ds.subset([0, 1, 2])
        sol = SolutionVector(k=1, mask=abe.FeatureMask((1, 1)), weights=np.ones((3, 2)))
        target = train.matrix[1]
        obj = tuning.lt_objectives(train, target, 30.0, sol)
        assert obj.tolist() == pytest.approx([0.0, 0.0, 0.0], abs=ATOL)

    def test_lt_substitution(self):
        # prediction 5 against actual 10 -> (5, 1.0, 0.5)
        train = numeric_std([[0.0], [0.5], [1.0]], [5, 5, 5]).subset([0, 1, 2])
        sol = SolutionVector(k=1, mask=abe.FeatureMask((1,)), weights=np.ones((3, 1)))
        obj = tuning.lt_objectives(train, np.array([0.0]), 10.0, sol)
        assert obj.tolist() == pytest.approx([5.0, 1.0, 0.5], abs=ATOL)

    def test_k_beyond_the_training_set_rejected(self):
        train = self.ds.subset([0, 1, 2])
        with pytest.raises(BoundsError):
            tuning.lt_objectives(train, self.ds.matrix[3], 22.0, self.full_sol(4, 2, k=4))
        with pytest.raises(BoundsError):
            tuning.gt_objectives(self.ds, self.full_sol(6, 2, k=6))

    def test_lt_domination_ordering(self):
        a = np.array([1.0, 0.1, 0.05])
        b = np.array([2.0, 0.2, 0.10])
        assert mopso.dominates(a, b)

    def test_gt_matches_stepwise_composition(self):
        sol = self.full_sol(train_n=self.ds.n - 1, m=2, k=3)
        got = tuning.gt_objectives(self.ds, sol)
        baseline = metrics.random_guess_baseline(self.ds.efforts())
        want = ref.gt_objectives(self.ds, sol, baseline)
        assert got.tolist() == pytest.approx(want.tolist(), abs=1e-12)

    def test_gt_unused_weight_rows_inert(self):
        base = self.full_sol(train_n=self.ds.n - 1, m=2, k=2)
        other_w = base.weights.copy()
        other_w[3:] = 0.123  # rows beyond k
        other = SolutionVector(k=2, mask=base.mask, weights=other_w)
        assert np.allclose(tuning.gt_objectives(self.ds, base),
                           tuning.gt_objectives(self.ds, other), atol=0)

    def test_gt_perfect_predictor_contrived(self):
        # duplicated projects: nearest neighbor always shares the effort
        ds = numeric_std([[0.0], [0.0], [5.0], [5.0], [9.0], [9.0]],
                         [10, 10, 50, 50, 90, 90])
        sol = SolutionVector(k=1, mask=abe.FeatureMask((1,)),
                             weights=np.ones((5, 1)))
        obj = tuning.gt_objectives(ds, sol)
        assert obj.tolist() == pytest.approx([-1.0, 0.0, 0.0], abs=ATOL)

    def test_batched_problems_match_reference(self):
        train = self.ds.subset([0, 1, 2, 4, 5])
        target = self.ds.matrix[3]
        lp = LocalProblem(train, target, 22.0, VARIANTS["lt"])
        rng = np.random.default_rng(1)
        X = rng.uniform(lp.bounds.lower, lp.bounds.upper, size=(25, lp.bounds.dim))
        batch = lp.evaluate_batch(X)
        for i in range(25):
            sol = ref.scalar_decode(X[i], train.n, train.m, VARIANTS["lt"])
            want = ref.lt_objectives(train, target, 22.0, sol)
            assert np.allclose(batch[i], want, atol=1e-9), (batch[i], want)

        gp = GlobalProblem(self.ds, VARIANTS["gt"])
        Xg = rng.uniform(gp.bounds.lower, gp.bounds.upper, size=(10, gp.bounds.dim))
        batch = gp.evaluate_batch(Xg)
        for i in range(10):
            sol = ref.scalar_decode(Xg[i], self.ds.n - 1, self.ds.m, VARIANTS["gt"])
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
            sol = ref.scalar_decode(X[j], ds.n - 1, ds.m, VARIANTS["gt"])
            for i in (0, ds.n // 2, ds.n - 1):
                train, row, _ = folds[i]
                assert stacked[j, i] == pytest.approx(ref.predict(train, row, sol), rel=1e-12)


class TestSelectFromFront:
    def test_single_solution(self):
        assert select_from_front([("only", (1.0, 2.0))])[0] == "only"

    def test_average_rank_tie_breaks_on_first_objective(self):
        front = [("a", (1.0, 9.0)), ("b", (9.0, 1.0)), ("c", (4.0, 4.0))]
        assert select_from_front(front)[0] == "a"

    def test_tied_values_share_their_mean_rank(self):
        # midranks give b the best mean rank (5.5 / 3); ranking tied values
        # in front order would give it to a (5 / 3)
        front = [("a", (1.0, 1.0, 3.0)), ("b", (1.0, 2.0, 1.0)), ("c", (2.0, 1.0, 2.0))]
        assert select_from_front(front)[0] == "b"

    def test_unanimous_winner(self):
        front = [("a", (2.0, 2.0)), ("b", (1.0, 1.0)), ("c", (3.0, 3.0))]
        assert select_from_front(front)[0] == "b"

    def test_empty_front(self):
        with pytest.raises(BoundsError):
            select_from_front([])

    def test_remaining_tie_breaks_on_insertion_order(self):
        front = [("a", (1.0, 1.0)), ("b", (1.0, 1.0))]
        assert select_from_front(front)[0] == "a"


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
            front = tuning._front(problem, replace(cfg, seed=tuning._fold_seed(cfg.seed, i)))
            sol, obj = select_from_front(front)
            chosen = res.solutions[i]
            assert (sol.k, sol.mask) == (chosen.k, chosen.mask)
            assert np.array_equal(sol.weights, chosen.weights)
            assert abs(abs(actual - res.predictions[i]) - obj[0]) <= 1e-12 * max(1.0, actual)

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
        assert all(s.mask.bits == (1, 1) for s in star.solutions)
        plus = tuning.run_lt(ds, VARIANTS["lt_plus"], self.small_cfg())
        for s in plus.solutions:
            assert np.allclose(s.weights, 0.5, atol=ATOL)
            assert np.allclose(s.weights.sum(axis=1), 1.0, atol=ATOL)

    def test_row_sums_of_optimized_solutions(self):
        ds = numeric_std([[1, 2], [2, 1], [9, 8], [4, 4], [6, 7]],
                         [10, 30, 80, 46, 64])
        res = tuning.run_lt(ds, VARIANTS["lt"], self.small_cfg(seed=2))
        for sol in res.solutions:
            assert np.allclose(sol.weights.sum(axis=1), 1.0, atol=1e-9)

    def test_lt_honest_mode_runs(self):
        ds = numeric_std([[1, 2], [2, 1], [9, 8], [4, 4], [6, 7], [3, 3]],
                         [10, 30, 80, 46, 64, 40])
        res = tuning.run_lt(ds, replace(VARIANTS["lt"], mode="local_honest"), self.small_cfg())
        assert res.mode == "local_honest"
        assert all(s.k <= ds.n - 2 for s in res.solutions)

    def test_k_histogram_varies_on_albrecht(self):
        ds = load_bundled("albrecht")
        res = tuning.run_lt(ds, VARIANTS["k_only"],
                            mopso.MopsoConfig(pop_size=30, max_iter=20, seed=1))
        assert len({s.k for s in res.solutions}) > 1


class TestBestK:
    def test_constant_effort_ties_resolve_to_one(self):
        ds = numeric_std([[1, 2], [2, 1], [5, 5], [0, 9]], [7, 7, 7, 7])
        k, preds = tuning.best_k_abe0(ds)
        assert k == 1
        assert np.allclose(preds, 7.0)

    @staticmethod
    def scan(ds):
        """The best k and its predictions by brute force over every k with
        the public prediction op, one fold at a time."""
        best = None
        for kk in range(1, ds.n):
            loo = []
            for i in range(ds.n):
                train, row, _ = ds.loocv_fold(i)
                loo.append(abe.predict_abe0(train, row, kk))
            mae = float(np.mean(np.abs(np.array(loo) - ds.efforts())))
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
