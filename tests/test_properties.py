"""Randomized property tests for the engine and metric laws."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abetune import abe, metrics, mopso, stats, tuning

MANY = settings(max_examples=1000, deadline=None, derandomize=True)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def objective_rows(draw, pop: int, n_obj: int) -> np.ndarray:
    return np.array([[draw(finite) for _ in range(n_obj)] for _ in range(pop)])


def swarm_shape(draw):
    return draw(st.integers(min_value=2, max_value=6)), draw(st.integers(min_value=2, max_value=4))


class TestDominanceLaws:
    """Row-wise laws of `dominates` over swarms of objective rows, the form
    in which the pbest update applies it."""

    @MANY
    @given(st.data())
    def test_irreflexive(self, data):
        a = objective_rows(data.draw, *swarm_shape(data.draw))
        assert not mopso.dominates(a, a).any()

    @MANY
    @given(st.data())
    def test_antisymmetric(self, data):
        pop, n_obj = swarm_shape(data.draw)
        a = objective_rows(data.draw, pop, n_obj)
        b = objective_rows(data.draw, pop, n_obj)
        # shared values per cell make dominance in either direction likely
        b = np.where(np.array(data.draw(st.lists(st.booleans(), min_size=a.size,
                                                 max_size=a.size))).reshape(a.shape), a, b)
        assert not (mopso.dominates(a, b) & mopso.dominates(b, a)).any()

    @MANY
    @given(st.data())
    def test_transitive(self, data):
        pop = data.draw(st.integers(min_value=2, max_value=6))
        a, b, c = (objective_rows(data.draw, pop, 3) for _ in range(3))
        chain = mopso.dominates(a, b) & mopso.dominates(b, c)
        assert mopso.dominates(a, c)[chain].all()


class TestArchiveProperties:
    @MANY
    @given(st.data())
    def test_nondominance_and_capacity(self, data):
        capacity = data.draw(st.integers(min_value=1, max_value=6))
        archive = mopso.Archive(capacity=capacity)
        n_updates = data.draw(st.integers(min_value=1, max_value=3))
        for _ in range(n_updates):
            batch = data.draw(st.lists(
                st.tuples(st.floats(0, 10, allow_nan=False),
                          st.floats(0, 10, allow_nan=False)),
                min_size=1, max_size=6))
            fits = np.array(batch, dtype=float)
            archive.update([np.array([i], dtype=float) for i in range(len(fits))], fits)
            assert len(archive) <= capacity
            f = archive.fitnesses
            for i in range(len(archive)):
                for j in range(len(archive)):
                    if i != j:
                        assert not mopso.dominates(f[i], f[j])


class TestEncodingProperties:
    @MANY
    @given(st.data())
    def test_decoded_weight_rows_sum_to_one(self, data):
        n_rows = data.draw(st.integers(min_value=1, max_value=5))
        m = data.draw(st.integers(min_value=1, max_value=5))
        variant = tuning.VARIANTS["lt"]
        space = tuning.SolutionSpace(n_rows=n_rows, m=m, variant=variant)
        x = [data.draw(st.floats(-2, 2, allow_nan=False))
             for _ in range(n_rows * m)]
        if space.free_mask:
            x.insert(0, data.draw(st.floats(0, 2 ** m, allow_nan=False)))
        if space.free_k:
            x.insert(0, data.draw(st.floats(0, n_rows + 1, allow_nan=False)))
        K, masks, W = space.decode(np.array([x]))
        assert np.allclose(W.sum(axis=2), 1.0, atol=1e-9)
        assert np.all(W >= 0) and np.all(W <= 1)
        assert 1 <= K[0] <= n_rows
        assert any(masks[0])

    @MANY
    @given(st.data())
    def test_position_updates_stay_in_bounds(self, data):
        pop = data.draw(st.integers(min_value=2, max_value=5))
        d = data.draw(st.integers(min_value=1, max_value=4))
        lo = np.zeros(d)
        hi = np.ones(d)
        bounds = mopso.Bounds(lower=lo, upper=hi)
        X = np.array([[data.draw(st.floats(0, 1, allow_nan=False)) for _ in range(d)]
                      for _ in range(pop)])
        V = np.array([[data.draw(st.floats(-3, 3, allow_nan=False)) for _ in range(d)]
                      for _ in range(pop)])
        nX, _ = mopso.step_position(X, V, bounds)
        assert np.all(nX >= lo) and np.all(nX <= hi)
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        cfg = mopso.MopsoConfig(pop_size=pop, max_iter=10, seed=seed)
        t = data.draw(st.integers(min_value=0, max_value=4))
        mX = mopso.mutate(nX, t, cfg, bounds, np.random.default_rng(seed))
        assert np.all(mX >= lo) and np.all(mX <= hi)


class TestAggregationFixedPoints:
    @MANY
    @given(st.floats(0.001, 1e5, allow_nan=False), st.integers(1, 30))
    def test_owm_constant(self, c, k):
        assert abe.owm_aggregate([c] * k) == pytest.approx(c, rel=1e-12)

    @MANY
    @given(st.floats(0.001, 1e5, allow_nan=False), st.integers(1, 30))
    def test_irwm_constant(self, c, k):
        assert abe.irwm_aggregate([c] * k) == pytest.approx(c, rel=1e-12)


class TestSaScaleInvariance:
    @MANY
    @given(st.data())
    def test_sa_unchanged_by_rescaling(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        efforts = np.array([data.draw(st.floats(0.1, 1e4, allow_nan=False))
                            for _ in range(n)])
        assume(len(set(efforts.tolist())) > 1)
        preds = np.array([data.draw(st.floats(0.1, 1e4, allow_nan=False))
                          for _ in range(n)])
        c = data.draw(st.floats(0.01, 1e4, allow_nan=False))
        base1 = metrics.random_guess_baseline(efforts)
        base2 = metrics.random_guess_baseline(efforts * c)
        sa1 = metrics.sa(float(np.mean(np.abs(efforts - preds))), base1)
        sa2 = metrics.sa(float(np.mean(np.abs(efforts * c - preds * c))), base2)
        assert sa2 == pytest.approx(sa1, rel=1e-9, abs=1e-9)


class TestWilcoxonProperties:
    @MANY
    @given(st.data())
    def test_symmetry(self, data):
        a = [data.draw(st.floats(0, 100, allow_nan=False))
             for _ in range(data.draw(st.integers(1, 9)))]
        b = [data.draw(st.floats(0, 100, allow_nan=False))
             for _ in range(data.draw(st.integers(1, 9)))]
        assert stats.wilcoxon_rank_sum(a, b) == pytest.approx(
            stats.wilcoxon_rank_sum(b, a), abs=1e-12)

    @MANY
    @given(st.data())
    def test_exact_and_approx_agree_at_boundary(self, data):
        # pooled size 16, continuous draws so ties are absent
        a = np.array([data.draw(st.floats(0, 1, allow_nan=False,
                                          exclude_min=True)) for _ in range(8)])
        shift = data.draw(st.floats(-0.5, 0.5, allow_nan=False))
        b = np.array([data.draw(st.floats(0, 1, allow_nan=False,
                                          exclude_min=True)) + shift for _ in range(8)])
        pooled = np.concatenate([a, b])
        assume(len(np.unique(pooled)) == 16)
        ranks = stats._midranks(pooled)
        obs = float(ranks[:8].sum())
        exact = stats._exact_p(ranks, 8, obs)
        approx = stats._approx_p(ranks, 8, obs)
        assert abs(exact - approx) < 0.02
