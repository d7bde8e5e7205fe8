"""Randomized property tests for the engine and metric laws."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abetune import abe, metrics, mopso, stats, tuning

import scalar_reference as ref

MANY = settings(max_examples=1000, deadline=None, derandomize=True)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
GRID = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0])


def objective_rows(draw, pop: int, n_obj: int) -> np.ndarray:
    return np.array([[draw(finite) for _ in range(n_obj)] for _ in range(pop)])


def swarm_shape(draw):
    return draw(st.integers(min_value=2, max_value=6)), draw(st.integers(min_value=2, max_value=4))


class TestDominanceLaws:
    """Row-wise laws of the oracle's `dominates` over swarms of objective
    rows, the form in which its pbest rule applies it."""

    @MANY
    @given(st.data())
    def test_irreflexive(self, data):
        a = objective_rows(data.draw, *swarm_shape(data.draw))
        assert not ref.dominates(a, a).any()

    @MANY
    @given(st.data())
    def test_antisymmetric(self, data):
        pop, n_obj = swarm_shape(data.draw)
        a = objective_rows(data.draw, pop, n_obj)
        b = objective_rows(data.draw, pop, n_obj)
        # shared values per cell make dominance in either direction likely
        b = np.where(np.array(data.draw(st.lists(st.booleans(), min_size=a.size,
                                                 max_size=a.size))).reshape(a.shape), a, b)
        assert not (ref.dominates(a, b) & ref.dominates(b, a)).any()

    @MANY
    @given(st.data())
    def test_transitive(self, data):
        pop = data.draw(st.integers(min_value=2, max_value=6))
        a, b, c = (objective_rows(data.draw, pop, 3) for _ in range(3))
        chain = ref.dominates(a, b) & ref.dominates(b, c)
        assert ref.dominates(a, c)[chain].all()


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
                        assert not ref.dominates(f[i], f[j])

    @MANY
    @given(st.data())
    def test_screened_update_is_the_all_pairs_merge(self, data):
        # objective values on a coarse grid, so duplicate rows, ties on one
        # objective and candidates equal to entries are common
        n_obj = data.draw(st.integers(min_value=1, max_value=3))
        capacity = data.draw(st.integers(min_value=1, max_value=6))
        archive = mopso.Archive(capacity=capacity)
        for t in range(data.draw(st.integers(min_value=1, max_value=4))):
            n = data.draw(st.integers(min_value=1, max_value=6))
            fit = np.array([[data.draw(GRID) for _ in range(n_obj)] for _ in range(n)])
            pos = 10.0 * t + np.arange(n, dtype=float)[:, None]
            positions, fitnesses = archive.positions, archive.fitnesses
            screened_out = len(archive) > 0 and all(
                any(ref.dominates(e, c) for e in fitnesses) for c in fit)
            want_pos, want_fit = ref.reference_merge(positions, fitnesses, pos, fit, capacity)
            archive.update(pos, fit)
            assert archive.positions.shape == want_pos.shape
            assert archive.positions.tobytes() == want_pos.tobytes()
            assert archive.fitnesses.tobytes() == want_fit.tobytes()
            if screened_out:
                assert archive.positions is positions and archive.fitnesses is fitnesses


class TestPbestProperties:
    @MANY
    @given(st.data())
    def test_paired_reductions_are_the_two_dominates_rule(self, data):
        pop = data.draw(st.integers(min_value=1, max_value=8))
        n_obj = data.draw(st.integers(min_value=1, max_value=3))
        F, PBF = (np.array([[data.draw(GRID) for _ in range(n_obj)] for _ in range(pop)])
                  for _ in range(2))
        PB, X = np.zeros((pop, 2)), np.arange(2.0 * pop).reshape(pop, 2)
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        want_pb, want_pbf = ref.reference_pbests(PB, PBF, X, F, np.random.default_rng(seed))
        mopso.update_pbests(PB, PBF, X, F, np.random.default_rng(seed))
        assert PB.tobytes() == want_pb.tobytes()
        assert PBF.tobytes() == want_pbf.tobytes()


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
        S, viol, below = np.empty_like(X), np.empty(X.shape, bool), np.empty(X.shape, bool)
        nX, _ = mopso.step_position(X, V, bounds, S, viol, below)
        assert np.all(nX >= lo) and np.all(nX <= hi)
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        cfg = mopso.MopsoConfig(pop_size=pop, max_iter=10, seed=seed)
        t = data.draw(st.integers(min_value=0, max_value=4))
        mX = mopso.mutate(nX, t, cfg, bounds, np.random.default_rng(seed), S, viol)
        assert np.all(mX >= lo) and np.all(mX <= hi)


def edge_box(draw, d: int) -> mopso.Bounds:
    lo = np.array([draw(st.sampled_from([0.0, -0.0, -1.0, 1.0]) | st.floats(-10, 10))
                   for _ in range(d)])
    width = np.array([draw(st.sampled_from([1.0, 4.0]) | st.floats(1e-3, 10)) for _ in range(d)])
    return mopso.Bounds(lower=lo, upper=lo + width)


def edge_matrix(draw, pop: int, d: int, options) -> np.ndarray:
    """(pop, d) floats, each entry picked from its column of `options(u)`, a
    stack of candidate (pop, d) blocks computed from uniforms u."""
    n = pop * d
    u = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))).reshape(pop, d)
    table = np.stack([np.broadcast_to(c, u.shape) for c in options(u)])
    kind = draw(st.lists(st.integers(0, len(table) - 1), min_size=n, max_size=n))
    return np.take_along_axis(table, np.reshape(kind, (1, pop, d)), axis=0)[0]


def coordinates(bounds: mopso.Bounds):
    """Coordinates: on either bound, a signed zero, one ulp outside the box,
    or anywhere across it or up to a box width around it."""
    lo, hi = bounds.lower, bounds.upper
    width = hi - lo
    return lambda u: [lo, hi, 0.0, -0.0, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                      lo + u * width, lo - width + 3 * width * u]


def velocities(bounds: mopso.Bounds):
    """Velocity components: exactly at +-v_max (the edge of the strict test),
    one ulp either side of it, a signed zero, or anywhere up to three caps
    out."""
    cap = bounds.v_max
    edges = [s * c for s in (1.0, -1.0)
             for c in (cap, np.nextafter(cap, 0.0), np.nextafter(cap, np.inf))]
    return lambda u: edges + [0.0, -0.0, (2 * u - 1) * 3 * cap]


def uniforms(u):
    return [0.0, u]


class TestStepsMatchMaskedOracle:
    """The branchless velocity and position steps against the masked-indexing
    arithmetic of `scalar_reference`, compared as bytes so that the sign of a
    zero counts.  The velocity operators run composed in `run`'s order, R2
    written into R1's block after the cognitive pull; the oracle takes R1
    and R2 as separate arrays."""

    @MANY
    @given(st.data())
    def test_velocity_step_bit_equal(self, data):
        pop, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        bounds = edge_box(data.draw, d)
        V = edge_matrix(data.draw, pop, d, velocities(bounds))
        X, PB, G = (edge_matrix(data.draw, pop, d, coordinates(bounds)) for _ in range(3))
        R1, R2 = (edge_matrix(data.draw, pop, d, uniforms) for _ in range(2))
        # w_t = 1 with c1 = c2 = 0 carries V's edge values through to the cap test
        w_t = data.draw(st.sampled_from([1.0, 0.9, 0.4]) | st.floats(0, 1))
        c1, c2 = (data.draw(st.sampled_from([0.0, 2.0]) | st.floats(0, 4)) for _ in range(2))
        expected = ref.reference_velocity(V.copy(), X, PB, G, R1.copy(), R2.copy(),
                                          w_t, c1, c2, bounds.v_max)
        got, R, C = V.copy(), R1.copy(), np.empty_like(V)
        mopso.cognitive_pull(got, X, PB, R, C, w_t, c1)
        R[...] = R2
        C[...] = G
        mopso.social_pull(got, X, R, C, c2)
        mopso.cap_velocity(got, bounds.v_max, C, np.empty(V.shape, bool))
        assert got.tobytes() == expected.tobytes()

    @MANY
    @given(st.data())
    def test_position_step_bit_equal(self, data):
        pop, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        bounds = edge_box(data.draw, d)
        X = edge_matrix(data.draw, pop, d, coordinates(bounds))
        V = edge_matrix(data.draw, pop, d, velocities(bounds))
        # some steps aim exactly at a bound
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, pop - 1),
                                                 st.integers(0, d - 1)), max_size=3)):
            V[i, j] = data.draw(st.sampled_from([bounds.upper[j], bounds.lower[j]])) - X[i, j]
        expected_X, expected_V = ref.reference_position(X, V, bounds.lower, bounds.upper)
        X1, V1 = X.copy(), V.copy()
        mopso.step_position(X1, V1, bounds, np.empty_like(X), np.empty(X.shape, bool),
                            np.empty(X.shape, bool))
        assert X1.tobytes() == expected_X.tobytes()
        assert V1.tobytes() == expected_V.tobytes()


class TestAggregationFixedPoints:
    @MANY
    @given(st.floats(0.001, 1e5, allow_nan=False), st.integers(1, 30))
    def test_owm_constant(self, c, k):
        table = abe._owm_matrix(np.arange(1, k + 1), k)
        assert table @ np.full(k, c) == pytest.approx(np.full(k, c), rel=1e-12)

    @MANY
    @given(st.floats(0.001, 1e5, allow_nan=False), st.integers(1, 30))
    def test_irwm_constant(self, c, k):
        assert ref.irwm([c] * k) == pytest.approx(c, rel=1e-12)


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
        sample = st.lists(st.floats(0, 1, allow_nan=False, exclude_min=True),
                          min_size=8, max_size=8)
        a = np.array(data.draw(sample))
        shift = data.draw(st.floats(-0.5, 0.5, allow_nan=False))
        b = np.array(data.draw(sample)) + shift
        pooled = np.concatenate([a, b])
        assume(len(np.unique(pooled)) == 16)
        ranks = stats._midranks(pooled)
        obs = float(ranks[:8].sum())
        exact = stats._exact_p(ranks, 8, obs)
        approx = stats._approx_p(ranks, 8, obs)
        assert abs(exact - approx) < 0.02
