import math

import numpy as np
import pytest

from abetune import stats
from abetune.errors import BoundsError


class TestWilcoxon:
    def test_disjoint_samples_exact_p(self):
        assert stats.wilcoxon_rank_sum([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1)

    def test_identical_samples(self):
        assert stats.wilcoxon_rank_sum([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_order_invariance(self):
        a, b = [3, 1, 2], [6, 4, 5]
        assert stats.wilcoxon_rank_sum(a, b) == stats.wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.random(rng.integers(2, 10)).tolist()
            b = rng.random(rng.integers(2, 10)).tolist()
            assert stats.wilcoxon_rank_sum(a, b) == pytest.approx(
                stats.wilcoxon_rank_sum(b, a), abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(BoundsError):
            stats.wilcoxon_rank_sum([], [1.0])

    def test_exact_and_approx_agree_at_boundary(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(200):
            a = rng.random(8)
            b = rng.random(8) + rng.normal(0, 0.4)
            pooled = np.concatenate([a, b])
            ranks = stats._midranks(pooled)
            obs = float(ranks[:8].sum())
            diff = abs(stats._exact_p(ranks, 8, obs) - stats._approx_p(ranks, 8, obs))
            worst = max(worst, diff)
        assert worst < 0.02

    def test_large_samples_use_approximation(self):
        a = list(range(20))
        b = [x + 30 for x in range(20)]
        p = stats.wilcoxon_rank_sum(a, b)
        assert p < 1e-6

    def test_all_equal_values(self):
        assert stats.wilcoxon_rank_sum([5.0] * 10, [5.0] * 12) == 1.0


class TestWinTieLoss:
    def test_clear_winner(self):
        errors = {"A": [0.0] * 10, "B": [100.0] * 10}
        measures = {"A": {"mae": 0.0}, "B": {"mae": 100.0}}
        tallies, comps = stats.win_tie_loss(errors, measures)
        assert tallies["A"]["mae"]["win"] == 1 and tallies["A"]["mae"]["loss"] == 0
        assert tallies["B"]["mae"]["loss"] == 1 and tallies["B"]["mae"]["win"] == 0
        assert comps[0]["outcomes"]["mae"] == "win"

    def test_identical_distributions_tie(self):
        errors = {"A": [1.0, 2.0, 3.0], "B": [1.0, 2.0, 3.0]}
        measures = {"A": {"mae": 2.0}, "B": {"mae": 2.0}}
        tallies, _ = stats.win_tie_loss(errors, measures)
        assert tallies["A"]["mae"]["tie"] == 1 and tallies["B"]["mae"]["tie"] == 1

    def test_three_method_total_order(self):
        errors = {
            "best": [0.0] * 12,
            "mid": [50.0] * 12,
            "worst": [200.0] * 12,
        }
        measures = {m: {"mae": float(np.mean(errors[m]))} for m in errors}
        tallies, _ = stats.win_tie_loss(errors, measures)
        assert tallies["best"]["mae"]["win"] == 2 and tallies["best"]["mae"]["loss"] == 0
        assert tallies["worst"]["mae"]["loss"] == 2

    def test_sa_direction_is_higher_better(self):
        errors = {"A": [0.0] * 12, "B": [100.0] * 12}
        measures = {"A": {"sa": 0.9}, "B": {"sa": 0.1}}
        tallies, _ = stats.win_tie_loss(errors, measures)
        assert tallies["A"]["sa"]["win"] == 1

    def test_increment_conservation(self):
        rng = np.random.default_rng(9)
        methods = ["m1", "m2", "m3", "m4"]
        errors = {m: rng.random(15).tolist() for m in methods}
        measures = {m: {"mae": float(np.mean(errors[m])), "sa": rng.random()}
                    for m in methods}
        tallies, _ = stats.win_tie_loss(errors, measures)
        for e in ("mae", "sa"):
            total_w = sum(tallies[m][e]["win"] for m in methods)
            total_l = sum(tallies[m][e]["loss"] for m in methods)
            assert total_w == total_l
            for m in methods:
                t = tallies[m][e]
                assert t["win"] + t["tie"] + t["loss"] == len(methods) - 1

    def test_nan_measure_decides_nothing(self):
        # a significant pair whose measure is NaN on one side ties on it
        errors = {"A": [0.0] * 12, "B": [100.0] * 12, "C": [200.0] * 12}
        measures = {"A": {"sa": 1.0, "mae": 0.0}, "B": {"sa": math.nan, "mae": 100.0},
                    "C": {"sa": math.nan, "mae": 200.0}}
        tallies, comps = stats.win_tie_loss(errors, measures)
        assert all(c["p_value"] < stats.SIGNIFICANCE for c in comps)
        assert [c["outcomes"]["sa"] for c in comps] == ["tie", "tie", "tie"]
        assert tallies["A"]["sa"] == {"win": 0, "tie": 2, "loss": 0}
        assert tallies["A"]["mae"] == {"win": 2, "tie": 0, "loss": 0}

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(BoundsError):
            stats.win_tie_loss({"A": [1.0, 2.0], "B": [1.0]},
                               {"A": {"mae": 1}, "B": {"mae": 2}})


class TestRankMethods:
    def test_constant_winner(self):
        table = {f"d{i}": {"A": 1.0, "B": 2.0} for i in range(5)}
        out = {s["method"]: s for s in stats.rank_methods(table)}
        assert out["A"]["mean_rank"] == 1.0 and out["A"]["rank_sd"] == 0.0
        assert out["B"]["mean_rank"] == 2.0

    def test_alternating_ranks(self):
        table = {
            "d1": {"A": 1.0, "B": 2.0},
            "d2": {"A": 2.0, "B": 1.0},
            "d3": {"A": 1.0, "B": 2.0},
            "d4": {"A": 2.0, "B": 1.0},
        }
        out = {s["method"]: s for s in stats.rank_methods(table)}
        assert out["A"]["mean_rank"] == pytest.approx(1.5)
        assert out["A"]["rank_sd"] == pytest.approx(0.5773502691896257)

    def test_tie_shares_rank(self):
        table = {"d1": {"A": 3.0, "B": 3.0, "C": 9.0}}
        out = {s["method"]: s for s in stats.rank_methods(table)}
        assert out["A"]["mean_rank"] == 1.5 and out["B"]["mean_rank"] == 1.5
        assert out["C"]["mean_rank"] == 3.0

    def test_higher_better_direction(self):
        table = {"d1": {"A": 0.9, "B": 0.2}}
        out = {s["method"]: s for s in stats.rank_methods(table, higher_is_better=True)}
        assert out["A"]["mean_rank"] == 1.0

    def test_missing_cell_rejected(self):
        with pytest.raises(BoundsError):
            stats.rank_methods({"d1": {"A": 1.0, "B": 2.0}, "d2": {"A": 1.0}})

    @pytest.mark.parametrize("higher_is_better", [False, True])
    def test_nan_cells_share_the_midrank_after_every_value(self, higher_is_better):
        table = {"d1": {"A": math.nan, "B": 0.5, "C": math.nan, "D": 0.7, "E": math.nan},
                 "d2": {"A": 0.1, "B": 0.5, "C": math.nan, "D": 0.7, "E": 0.9}}
        out = {s["method"]: s["mean_rank"]
               for s in stats.rank_methods(table, higher_is_better=higher_is_better)}
        if higher_is_better:  # d1: D 1, B 2, NaNs 4; d2: E 1, D 2, B 3, A 4, C 5
            assert out == {"A": 4.0, "B": 2.5, "C": 4.5, "D": 1.5, "E": 2.5}
        else:  # d1: B 1, D 2, NaNs 4; d2: A 1, B 2, D 3, E 4, C 5
            assert out == {"A": 2.5, "B": 1.5, "C": 4.5, "D": 2.5, "E": 4.0}
