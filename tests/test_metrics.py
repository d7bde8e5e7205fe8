import math

import numpy as np
import pytest

from abetune import abe, metrics
from abetune.datasets import load_bundled
from abetune.errors import BoundsError, UndefinedBaselineError

import scalar_reference as ref

ATOL = 1e-9


def ae(actual, predicted):
    return metrics.error_means([actual], [predicted])[0]


def bre(actual, predicted):
    return metrics.error_means([actual], [predicted])[1]


def ibre(actual, predicted):
    return metrics.error_means([actual], [predicted])[2]


class TestPointwise:
    def test_ae(self):
        assert ae(100, 100) == 0
        assert ae(100, 80) == 20
        assert ae(80, 100) == 20

    def test_bre_ibre(self):
        assert bre(10, 5) == pytest.approx(1.0, abs=ATOL)
        assert ibre(10, 5) == pytest.approx(0.5, abs=ATOL)
        assert bre(5, 10) == pytest.approx(1.0, abs=ATOL)
        assert ibre(5, 10) == pytest.approx(0.5, abs=ATOL)
        assert bre(10, 10) == 0
        assert ibre(10, 10) == 0

    def test_nonpositive_prediction_clamped(self):
        assert bre(10, -3.0) == pytest.approx((10 - 1e-6) / 1e-6)
        assert ibre(10, -3.0) == pytest.approx((10 - 1e-6) / 10)

    def test_actual_must_be_positive(self):
        for actual in (0.0, -2.0, math.nan):
            with pytest.raises(BoundsError, match="actual effort must be positive"):
                metrics.aggregate([10.0, actual], [5.0, 5.0])


class TestKernel:
    def test_matches_the_scalar_reference(self):
        # predictions below, at and just above the floor, negative ones, and
        # ordinary ones, against actuals spanning several magnitudes
        rng = np.random.default_rng(8)
        eps = abe.EPS_EFFORT
        for n in (1, 2, 3, 7, 8, 9, 100, 129, 700):
            actuals = np.exp(rng.uniform(-3, 9, n))
            preds = actuals * rng.uniform(0.2, 3.0, n)
            special = rng.choice([-50.0, -eps, 0.0, eps / 2, eps, 2 * eps], n)
            preds = np.where(rng.random(n) < 0.3, special, preds)
            want = ref.error_means(actuals, preds)
            got = metrics.error_means(actuals, preds)
            assert got.shape == (3,)
            assert got.tolist() == pytest.approx(want, rel=1e-13, abs=0)
            suite = metrics.aggregate(actuals, preds)
            assert [suite["mae"], suite["mbre"], suite["mibre"]] == got.tolist()
            assert suite["n"] == n

    def test_rows_are_scored_independently(self):
        rng = np.random.default_rng(3)
        actuals = rng.uniform(1, 50, 6)
        preds = rng.uniform(-1, 60, (4, 6))
        batch = metrics.error_means(actuals, preds)
        assert batch.shape == (4, 3)
        for row, p in zip(batch, preds):
            assert row.tolist() == metrics.error_means(actuals, p).tolist()


class TestAggregate:
    def test_single_record(self):
        s = metrics.aggregate([10], [5])
        assert s["mbre"] == pytest.approx(1.0, abs=ATOL)
        assert s["mibre"] == pytest.approx(0.5, abs=ATOL)
        assert s["mae"] == pytest.approx(5.0, abs=ATOL)
        assert math.isnan(s["lsd"]) and math.isnan(s["sa"])

    def test_mbre_midpoint(self):
        s = metrics.aggregate([10, 10], [5, 10])
        assert s["mbre"] == pytest.approx(0.5, abs=ATOL)

    def test_all_exact(self):
        s = metrics.aggregate([10, 7, 3], [10, 7, 3])
        assert s["mae"] == 0 and s["mbre"] == 0 and s["mibre"] == 0

    def test_empty_errors(self):
        with pytest.raises(BoundsError):
            metrics.aggregate([], [])

    def test_misaligned_rejected(self):
        with pytest.raises(BoundsError):
            metrics.aggregate([10, 20], [10])

    def test_ibre_never_exceeds_bre(self):
        rng = np.random.default_rng(5)
        s = metrics.aggregate(rng.uniform(1, 100, 50), rng.uniform(-5, 100, 50))
        assert s["mibre"] <= s["mbre"] + ATOL


class TestBaseline:
    def test_exact_enumeration(self):
        b = metrics.random_guess_baseline([1, 2, 3])
        assert b.mae_p0 == pytest.approx(4.0 / 3.0, abs=ATOL)

    def test_equal_efforts_zero_spread(self):
        b = metrics.random_guess_baseline([5, 5, 5])
        assert b.mae_p0 == 0 and b.sp0 == 0

    def test_sampled_close_to_exact(self):
        exact = metrics.random_guess_baseline([1, 2, 3])
        sampled = metrics.random_guess_baseline([1, 2, 3], mode="sampled",
                                                runs=100_000, seed=11)
        assert sampled.mae_p0 == pytest.approx(exact.mae_p0, rel=0.02)

    def test_sampled_within_three_sigma(self):
        efforts = [3.0, 9.5, 12.0, 30.0, 4.2]
        exact = metrics.random_guess_baseline(efforts)
        sampled = metrics.random_guess_baseline(efforts, mode="sampled",
                                                runs=100_000, seed=2)
        n_draws = 100_000 * len(efforts)
        band = 3.0 * exact.sp0 / math.sqrt(n_draws)
        assert abs(sampled.mae_p0 - exact.mae_p0) <= band * 5  # slack for correlation

    def test_sampled_matches_the_direct_expression(self):
        e = load_bundled("desharnais").efforts()
        got = metrics.random_guess_baseline(e, mode="sampled", runs=100_000, seed=1)
        n = len(e)
        guess_idx = (np.arange(n)[None, :]
                     + np.random.default_rng(1).integers(1, n, size=(100_000, n))) % n
        errs = np.abs(e[None, :] - e[guess_idx]).ravel()
        assert (got.mae_p0, got.sp0) == (float(errs.mean()), float(np.std(errs, ddof=1)))
        assert (got.mae_p0, got.sp0) == (3477.793654805195, 3218.8296808804675)

    def test_too_few_efforts(self):
        with pytest.raises(BoundsError):
            metrics.random_guess_baseline([1])


class TestSaAndEffectSize:
    def base(self, mae_p0=100.0, sp0=100.0):
        return metrics.RandomGuessBaseline(mae_p0=mae_p0, sp0=sp0)

    def test_perfect_predictor(self):
        assert metrics.sa(0.0, self.base()) == pytest.approx(1.0, abs=ATOL)

    def test_no_better_than_guessing(self):
        assert metrics.sa(100.0, self.base()) == pytest.approx(0.0, abs=ATOL)

    def test_direct_substitution(self):
        assert metrics.sa(30.0, self.base()) == pytest.approx(0.7, abs=ATOL)

    def test_zero_baseline_rejected(self):
        with pytest.raises(UndefinedBaselineError):
            metrics.sa(1.0, self.base(mae_p0=0.0))

    def test_effect_size_values(self):
        assert metrics.effect_size(100, 100, 100) == 0
        assert metrics.effect_size(50, 100, 100) == pytest.approx(0.5, abs=ATOL)
        assert metrics.effect_size(20, 100, 100) == pytest.approx(0.8, abs=ATOL)

    def test_effect_size_signed_magnitude(self):
        assert metrics.effect_size(120, 100, 50) == pytest.approx(0.4, abs=ATOL)
        assert metrics.effect_size(80, 100, 50) == pytest.approx(0.4, abs=ATOL)

    def test_effect_size_zero_sd(self):
        with pytest.raises(UndefinedBaselineError):
            metrics.effect_size(1, 2, 0)

    def test_sa_scale_invariance(self):
        rng = np.random.default_rng(7)
        efforts = rng.uniform(5, 50, 12)
        preds = efforts * rng.uniform(0.5, 1.5, 12)
        for c in (1.0, 7.3, 1200.0):
            b = metrics.random_guess_baseline(efforts * c)
            s = metrics.aggregate(efforts * c, preds * c, b)
            if c == 1.0:
                first = s["sa"]
            assert s["sa"] == pytest.approx(first, abs=1e-12)


class TestLsd:
    def residuals(self, lams):
        # actual fixed at 1; predicted = exp(-lambda) so ln(a) - ln(p) = lambda
        return [1.0] * len(lams), [math.exp(-lam) for lam in lams]

    def test_all_exact(self):
        assert metrics.lsd([10, 4], [10, 4]) == 0

    def test_hand_formula(self):
        got = metrics.lsd(*self.residuals([0.1, -0.1]))
        expected = math.sqrt((0.11 ** 2 + (-0.09) ** 2) / 1.0)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_constant_residual_closed_form(self):
        c = 0.37
        got = metrics.lsd(*self.residuals([c, c]))
        assert got == pytest.approx(abs(c) * math.sqrt(2.0), abs=1e-9)

    def test_needs_two_records(self):
        with pytest.raises(BoundsError):
            metrics.lsd([5], [5])
