import math

import numpy as np
import pytest

from abetune import metrics
from abetune.datasets import load_bundled
from abetune.errors import BoundsError, UndefinedBaselineError
from abetune.metrics import PredictionRecord as R

ATOL = 1e-9


class TestPointwise:
    def test_ae(self):
        assert metrics.ae(R(100, 100)) == 0
        assert metrics.ae(R(100, 80)) == 20
        assert metrics.ae(R(80, 100)) == 20

    def test_bre_ibre(self):
        assert metrics.bre(R(10, 5)) == pytest.approx(1.0, abs=ATOL)
        assert metrics.ibre(R(10, 5)) == pytest.approx(0.5, abs=ATOL)
        assert metrics.bre(R(5, 10)) == pytest.approx(1.0, abs=ATOL)
        assert metrics.ibre(R(5, 10)) == pytest.approx(0.5, abs=ATOL)
        assert metrics.bre(R(10, 10)) == 0
        assert metrics.ibre(R(10, 10)) == 0

    def test_nonpositive_prediction_clamped(self):
        r = R(10, -3.0)
        assert metrics.bre(r) == pytest.approx((10 - 1e-6) / 1e-6)
        assert metrics.ibre(r) == pytest.approx((10 - 1e-6) / 10)

    def test_actual_must_be_positive(self):
        with pytest.raises(BoundsError):
            R(0, 5)


class TestAggregate:
    def test_single_record(self):
        s = metrics.aggregate([R(10, 5)])
        assert s.mbre == pytest.approx(1.0, abs=ATOL)
        assert s.mibre == pytest.approx(0.5, abs=ATOL)
        assert s.mae == pytest.approx(5.0, abs=ATOL)
        assert math.isnan(s.lsd) and math.isnan(s.sa)

    def test_mbre_midpoint(self):
        s = metrics.aggregate([R(10, 5), R(10, 10)])
        assert s.mbre == pytest.approx(0.5, abs=ATOL)

    def test_all_exact(self):
        s = metrics.aggregate([R(10, 10), R(7, 7), R(3, 3)])
        assert s.mae == 0 and s.mbre == 0 and s.mibre == 0

    def test_empty_errors(self):
        with pytest.raises(BoundsError):
            metrics.aggregate([])

    def test_ibre_never_exceeds_bre(self):
        rng = np.random.default_rng(5)
        recs = [R(float(a), float(p))
                for a, p in zip(rng.uniform(1, 100, 50), rng.uniform(-5, 100, 50))]
        s = metrics.aggregate(recs)
        assert s.mibre <= s.mbre + ATOL


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
        return metrics.RandomGuessBaseline(mae_p0=mae_p0, sp0=sp0, mode="exact")

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
        assert metrics.effect_size(80, 100, 50, signed=True) == pytest.approx(-0.4, abs=ATOL)

    def test_effect_size_zero_sd(self):
        with pytest.raises(UndefinedBaselineError):
            metrics.effect_size(1, 2, 0)

    def test_sa_scale_invariance(self):
        rng = np.random.default_rng(7)
        efforts = rng.uniform(5, 50, 12)
        preds = efforts * rng.uniform(0.5, 1.5, 12)
        for c in (1.0, 7.3, 1200.0):
            b = metrics.random_guess_baseline(efforts * c)
            recs = [R(a * c, p * c) for a, p in zip(efforts, preds)]
            s = metrics.aggregate(recs, b)
            if c == 1.0:
                ref = s.sa
            assert s.sa == pytest.approx(ref, abs=1e-12)


class TestLsd:
    def residual_records(self, lams):
        # actual fixed at 1; predicted = exp(-lambda) so ln(a) - ln(p) = lambda
        return [R(1.0, math.exp(-lam)) for lam in lams]

    def test_all_exact(self):
        assert metrics.lsd([R(10, 10), R(4, 4)]) == 0

    def test_hand_formula(self):
        got = metrics.lsd(self.residual_records([0.1, -0.1]))
        expected = math.sqrt((0.11 ** 2 + (-0.09) ** 2) / 1.0)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_constant_residual_closed_form(self):
        c = 0.37
        got = metrics.lsd(self.residual_records([c, c]))
        assert got == pytest.approx(abs(c) * math.sqrt(2.0), abs=1e-9)

    def test_needs_two_records(self):
        with pytest.raises(BoundsError):
            metrics.lsd([R(5, 5)])
