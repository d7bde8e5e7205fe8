import math
import tracemalloc

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
        e = load_bundled("desharnais").effort_vec
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

    def test_sampled_needs_a_run(self):
        with pytest.raises(BoundsError):
            metrics.random_guess_baseline([1, 2, 3], mode="sampled", runs=0)


def _efforts(n: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "ties":
        return rng.integers(1, 4, n).astype(float)
    return 10.0 ** rng.uniform(0, 6, n)  # efforts from 1 to 1e6


class TestStreamedBaseline:
    """The sampled baseline is summed leaf by leaf along NumPy's pairwise
    tree; it must keep every bit of the one-shot `np.mean`/`np.std`."""

    # runs * n spans: below one leaf (runs 1 and 7), not a multiple of 8
    # (odd n at odd runs), and many leaves (runs 1001 at n >= 77; n = 300
    # gives 19).  n = 2 draws nothing: its only guess is the other project.
    @pytest.mark.parametrize("kind", ["ties", "spread"])
    @pytest.mark.parametrize("runs", [1, 7, 1001])
    @pytest.mark.parametrize("n", [2, 3, 15, 77, 129, 300])
    def test_bits_match_the_one_shot_expression(self, n, runs, kind):
        e = _efforts(n, kind)
        for seed in (0, 7):
            got = metrics.random_guess_baseline(e, mode="sampled", runs=runs, seed=seed)
            assert (got.mae_p0, got.sp0) == ref.sampled_baseline(e, runs, seed), seed

    def test_grid_sampled_inputs_keep_their_bits(self):
        # the benchmark's grid-sampled baselines: every bundled dataset but
        # synthetic_small at seeds 1-3 and 100,000 runs, as (mae_p0, sp0)
        expected = {
            "albrecht": [("0x1.9300e33c33456p+4", "0x1.f2e6f9a145f74p+4"),
                         ("0x1.92f2d7199e7e5p+4", "0x1.f2e4846eb0e59p+4"),
                         ("0x1.934df6608ba2ap+4", "0x1.f343157b22050p+4")],
            "kemerer": [("0x1.c0c066a0ac40dp+7", "0x1.28b79cad61c4dp+8"),
                        ("0x1.c162b8e8ea39cp+7", "0x1.28c2fef1c3e48p+8"),
                        ("0x1.c14a6ef5ba653p+7", "0x1.28d4f2f33233ap+8")],
            "nasa": [("0x1.984c373b76fe5p+5", "0x1.3dc8984592110p+5"),
                     ("0x1.986fbc655ea00p+5", "0x1.3db5c112c7c97p+5"),
                     ("0x1.984468bbdaf53p+5", "0x1.3dcfc29b2461ep+5")],
            "telecom": [("0x1.15e24c00a16f1p+8", "0x1.04e3194972741p+8"),
                        ("0x1.15d0fc8e2bbf2p+8", "0x1.04d564baf9bbcp+8"),
                        ("0x1.15df9ee905417p+8", "0x1.0517846c36a08p+8")],
            "desharnais": [("0x1.b2b9659ec3140p+11", "0x1.925a8cbeeaf73p+11"),
                           ("0x1.b2b3e322abdb0p+11", "0x1.92811932e60cdp+11"),
                           ("0x1.b2d15006ff05bp+11", "0x1.926587894e6e9p+11")],
            "cocomo": [("0x1.1dc43a7cffe06p+9", "0x1.f0433c8da9f9bp+9"),
                       ("0x1.1d9b97984c0d9p+9", "0x1.eff0c54acf8c0p+9"),
                       ("0x1.1d83174e3b22cp+9", "0x1.efe6470760af2p+9")],
            "china": [("0x1.18db1d61c9012p+12", "0x1.7a5494f246aecp+12"),
                      ("0x1.18e153b379cdep+12", "0x1.7a726f91968f6p+12"),
                      ("0x1.18e454b3da45fp+12", "0x1.7a6f88a302709p+12")],
            "maxwell": [("0x1.2df2fb6c0c14fp+13", "0x1.777a4c524d0fep+13"),
                        ("0x1.2dfd400c2d50ap+13", "0x1.776cfa9ebb687p+13"),
                        ("0x1.2e2de08ada0ccp+13", "0x1.77c342927c88cp+13")],
        }
        got = {}
        for name in expected:
            e = load_bundled(name).effort_vec
            drawn = [metrics.random_guess_baseline(e, mode="sampled", runs=100_000, seed=seed)
                     for seed in (1, 2, 3)]
            got[name] = [(b.mae_p0.hex(), b.sp0.hex()) for b in drawn]
        assert got == expected

    @pytest.mark.parametrize("runs", [100_000, 400_000])
    def test_memory_does_not_grow_with_runs(self, runs):
        # the one-shot block of desharnais's 77 x 100,000 guesses peaks at
        # about 118 MiB; streamed, the peak is a few leaves' arrays
        e = load_bundled("desharnais").effort_vec
        tracemalloc.start()
        try:
            metrics.random_guess_baseline(e, mode="sampled", runs=runs, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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
