import numpy as np
import pytest

from abetune import mopso
from abetune.errors import BoundsError, EvaluationError
from abetune.mopso import Archive, Bounds, MopsoConfig


class ScriptedRng:
    """Deterministic stand-in replaying preset uniform/integer draws."""

    def __init__(self, uniforms=(), integers=()):
        self._uniforms = list(uniforms)
        self._integers = list(integers)

    def random(self, n=None):
        out = self._uniforms.pop(0)
        return np.asarray(out, dtype=float) if n is not None else float(out)

    def integers(self, low, high, size=None):
        out = self._integers.pop(0)
        return np.asarray(out) if size is not None else int(out)


class TestDominates:
    def test_strict_improvement(self):
        assert mopso.dominates((1, 2), (2, 3))

    def test_incomparable(self):
        assert not mopso.dominates((1, 3), (3, 1))
        assert not mopso.dominates((3, 1), (1, 3))

    def test_equal_vectors(self):
        assert not mopso.dominates((1, 2), (1, 2))

    def test_length_mismatch(self):
        with pytest.raises(BoundsError):
            mopso.dominates((1, 2), (1, 2, 3))


class TestCrowding:
    def test_single_objective_line(self):
        cd = mopso.crowding_distances([[1.0], [3.0], [7.0]])
        assert cd.tolist() == [7.0, 6.0, 7.0]

    def test_single_entry_gets_summed_maxima(self):
        cd = mopso.crowding_distances([[2.0, 5.0]])
        assert cd.tolist() == [7.0]

    def test_two_entries_two_objectives(self):
        cd = mopso.crowding_distances([[1.0, 4.0], [3.0, 2.0]])
        # both entries are boundaries on both objectives
        assert cd.tolist() == [7.0, 7.0]


def rows(*values):
    """A one-dimension swarm: one particle per value."""
    return np.array([[float(v)] for v in values])


class TestDrawOrder:
    def test_each_particle_draws_from_its_own_stream(self):
        rngs = [np.random.default_rng(s) for s in (5, 6)]
        pick, R1, R2 = mopso.swarm_draws(rngs, 3, 2)
        for j, seed in enumerate((5, 6)):
            ref = np.random.default_rng(seed)
            assert pick[j] == ref.integers(0, 3)
            assert R1[j].tolist() == ref.random(2).tolist()
            assert R2[j].tolist() == ref.random(2).tolist()


class TestVelocity:
    def step(self, V, X, PB, G, R1, R2, w_t, c1, c2, cap):
        return mopso.step_velocity(V, X, PB, G, R1, R2, w_t, c1, c2, np.array([cap]))

    def test_zero_attraction_at_both_bests(self):
        X = rows(0.5, 0.2)
        V = self.step(rows(0, 0), X, X.copy(), X.copy(), rows(0.3, 0.6), rows(0.9, 0.1),
                      0.9, 2.0, 2.0, 1.0)
        assert V.tolist() == [[0.0], [0.0]]

    def test_single_term_reduction(self):
        # cognitive pull only: 1.0 * 0.5 * (0.4 - 0) on the first particle
        V = self.step(rows(9.9, 0.0), rows(0, 0), rows(0.4, 0.0), rows(0, 0),
                      rows(0.5, 0.5), rows(0.1, 0.1), 0.0, 1.0, 0.0, 10.0)
        assert V.ravel().tolist() == pytest.approx([0.2, 0.0])

    def test_overcap_negated_then_clamped(self):
        # raw v' = 1.7 exceeds cap 1.0 -> negate to -1.7 -> clamp to -1.0;
        # -0.4 is within the cap and stays
        V = self.step(rows(1.7, -0.4), rows(0, 0), rows(0, 0), rows(0, 0),
                      rows(0, 0), rows(0, 0), 1.0, 2.0, 2.0, 1.0)
        assert V.tolist() == [[-1.0], [-0.4]]


class TestPosition:
    bounds = Bounds(lower=np.array([0.0]), upper=np.array([1.0]))

    def test_interior_move(self):
        X, V = mopso.step_position(rows(0.4, 0.1), rows(0.2, -0.1), self.bounds)
        assert X.ravel().tolist() == pytest.approx([0.6, 0.0])
        assert V.tolist() == [[0.2], [-0.1]]

    def test_boundary_reflection(self):
        # only the particle that left the box is reflected back
        X, V = mopso.step_position(rows(0.9, 0.1, 0.5), rows(0.3, -0.4, 0.1), self.bounds)
        assert X.ravel().tolist() == pytest.approx([0.9, 0.1, 0.6])
        assert V.tolist() == [[-0.3], [0.4], [0.1]]

    def test_fixed_point_at_bound(self):
        X, V = mopso.step_position(rows(0.0, 1.0), rows(0.0, 0.0), self.bounds)
        assert X.tolist() == [[0.0], [1.0]] and V.tolist() == [[0.0], [0.0]]


class TestMutation:
    def cfg(self, **kw):
        return MopsoConfig(pop_size=2, max_iter=100, **kw)

    def test_zero_headroom_at_upper_bound(self):
        b = Bounds(lower=np.array([0.0]), upper=np.array([1.0]))
        rng = ScriptedRng(uniforms=[[0.0], [0.5]], integers=[[0]])  # selected, toward UB
        x = mopso.mutate(np.array([1.0]), 10, self.cfg(), b, rng)
        assert x.tolist() == [1.0]

    def test_full_range_at_t_zero(self):
        # delta(0, y) = y regardless of r, so an upward move lands on UB
        b = Bounds(lower=np.array([0.0]), upper=np.array([1.0]))
        rng = ScriptedRng(uniforms=[[0.0], [0.77]], integers=[[0]])
        x = mopso.mutate(np.array([0.25]), 0, self.cfg(), b, rng)
        assert x.tolist() == pytest.approx([1.0])

    def test_delta_vanishes_at_final_iteration(self):
        y = np.array([0.8])
        d = mopso._mutation_delta(100, 100, y, np.array([1.0]), 5.0, classical=False)
        assert d.tolist() == pytest.approx([0.0], abs=1e-12)

    def test_printed_rule_substitution(self):
        y = np.array([1.0])
        d = mopso._mutation_delta(50, 100, y, np.array([1.0]), 5.0, classical=False)
        assert d.tolist() == pytest.approx([1.0 - 0.5 ** 5])

    def test_classical_variant_differs(self):
        y = np.array([1.0])
        r = np.array([0.5])
        printed = mopso._mutation_delta(50, 100, y, r, 5.0, classical=False)
        classical = mopso._mutation_delta(50, 100, y, r, 5.0, classical=True)
        assert printed[0] != classical[0]

    def test_unselected_dimensions_untouched(self):
        b = Bounds(lower=np.zeros(4), upper=np.ones(4))
        rng = ScriptedRng(uniforms=[[0.9, 0.9, 0.1, 0.9], [0.5]], integers=[[0]])
        x0 = np.array([0.5, 0.5, 0.5, 0.5])
        x = mopso.mutate(x0, 0, self.cfg(), b, rng)
        assert x[0] == 0.5 and x[1] == 0.5 and x[3] == 0.5
        assert x[2] != 0.5


class TestArchive:
    def test_dominating_insert_clears_archive(self):
        a = Archive(capacity=10)
        a.update([np.array([1.0]), np.array([2.0])], [[1.0, 5.0], [5.0, 1.0]])
        a.update([np.array([3.0])], [[0.5, 0.5]])
        assert len(a) == 1
        assert a.fitnesses.tolist() == [[0.5, 0.5]]

    def test_dominated_insert_rejected(self):
        a = Archive(capacity=10)
        a.update([np.array([1.0])], [[1.0, 1.0]])
        a.update([np.array([2.0])], [[2.0, 2.0]])
        assert len(a) == 1
        assert a.fitnesses.tolist() == [[1.0, 1.0]]

    def test_capacity_prunes_smallest_crowding(self):
        # mutually non-dominated with a 1-3-7 spread per axis; the middle
        # entry has the smallest crowding distance (12 vs 14) and is dropped
        a = Archive(capacity=2)
        fits = [[1.0, 7.0], [3.0, 5.0], [7.0, 1.0]]
        cd = mopso.crowding_distances(fits)
        assert int(np.argmin(cd)) == 1
        a.update([np.array([float(i)]) for i in range(3)], fits)
        assert len(a) == 2
        assert sorted(x[0] for x in a.fitnesses) == [1.0, 7.0]

    def test_archive_only_mutually_nondominated(self):
        rng = np.random.default_rng(0)
        a = Archive(capacity=30)
        for _ in range(20):
            pts = rng.random((10, 3))
            a.update([p.copy() for p in pts], pts.copy())
            f = a.fitnesses
            for i in range(len(a)):
                for j in range(len(a)):
                    if i != j:
                        assert not mopso.dominates(f[i], f[j])


class TestLeaderSelection:
    def make_archive(self, n):
        a = Archive(capacity=100)
        pos = [np.array([float(i), 0.0]) for i in range(n)]
        fits = [[float(i), float(n - i)] for i in range(n)]
        a.update(pos, fits)
        assert len(a) == n
        return a

    def test_single_entry(self):
        a = self.make_archive(1)
        assert mopso.leader_share(a.crowding(), 0.1).tolist() == [0]

    def test_archive_of_ten_selects_the_max_cd_entry(self):
        cds = self.make_archive(10).crowding()
        assert mopso.leader_share(cds, 0.1).tolist() == [int(np.argmax(cds))]

    def test_archive_of_twenty_stays_in_top_two(self):
        cds = self.make_archive(20).crowding()
        share = mopso.leader_share(cds, 0.1)
        assert share.tolist() == np.argsort(-cds, kind="stable")[:2].tolist()
        rngs = [np.random.default_rng(s) for s in range(200)]
        pick, _, _ = mopso.swarm_draws(rngs, len(share), 1)
        assert set(pick.tolist()) == {0, 1}

    def test_empty_archive_rejected(self):
        with pytest.raises(BoundsError):
            mopso.leader_share(Archive(capacity=3).crowding(), 0.1)


class TestPbest:
    def update(self, fitness, pbest_fitness, rngs):
        pop = len(fitness)
        PB = np.zeros((pop, 1))
        PBF = np.array(pbest_fitness, dtype=float)
        X = np.ones((pop, 1))
        mopso.update_pbests(PB, PBF, X, np.array(fitness, dtype=float), rngs)
        return PB, PBF

    def test_current_dominates(self):
        PB, PBF = self.update([[1, 1], [3, 3]], [[2, 2], [2, 2]],
                              [np.random.default_rng(0)] * 2)
        assert PBF.tolist() == [[1, 1], [2, 2]]
        assert PB.tolist() == [[1.0], [0.0]]

    def test_pbest_kept_when_dominating(self):
        PB, PBF = self.update([[2, 2], [2, 2]], [[1, 1], [1, 2]],
                              [np.random.default_rng(0)] * 2)
        assert PBF.tolist() == [[1, 1], [1, 2]] and PB.tolist() == [[0.0], [0.0]]

    def test_coin_flip_roughly_even(self):
        pop = 1000
        rngs = [np.random.default_rng(42 + j) for j in range(pop)]
        _, PBF = self.update([[1, 3]] * pop, [[3, 1]] * pop, rngs)
        kept = sum(row == [3, 1] for row in PBF.tolist())
        assert 450 <= kept <= 550

    def test_only_undecided_particles_draw_a_coin(self):
        rngs = [np.random.default_rng(7) for _ in range(3)]
        self.update([[1, 1], [3, 3], [1, 3]], [[2, 2], [2, 2], [3, 1]], rngs)
        ref = np.random.default_rng(7)
        nxt = ref.random()
        assert rngs[0].random() == nxt and rngs[1].random() == nxt
        assert rngs[2].random() != nxt


class BiObjective:
    bounds = Bounds(lower=np.array([-5.0]), upper=np.array([5.0]))

    def evaluate_batch(self, X):
        x = X[:, 0]
        return np.stack([x ** 2, (x - 2.0) ** 2], axis=1)


class TestRun:
    def test_convex_bowl_collapses(self):
        class Bowl:
            bounds = Bounds(lower=np.array([-5.0]), upper=np.array([5.0]))

            def evaluate_batch(self, X):
                return X[:, :1] ** 2

        arc = mopso.run(Bowl(), MopsoConfig(pop_size=50, max_iter=100, seed=9))
        assert min(abs(p[0]) for p in arc.positions) < 0.05

    def test_biobjective_front(self):
        arc = mopso.run(BiObjective(), MopsoConfig(pop_size=50, max_iter=100, seed=42))
        F = arc.fitnesses
        assert mopso._non_dominated_mask(F).all()
        assert np.min(np.max(np.abs(F - [0.0, 4.0]), axis=1)) < 0.1
        assert np.min(np.max(np.abs(F - [4.0, 0.0]), axis=1)) < 0.1

    def test_single_iteration_archive_is_nondominated_subset_of_evaluations(self):
        seen = []

        class Recorder:
            bounds = Bounds(lower=np.array([-5.0]), upper=np.array([5.0]))

            def evaluate_batch(self, X):
                F = np.stack([X[:, 0] ** 2, (X[:, 0] - 2.0) ** 2], axis=1)
                seen.extend(F.tolist())
                return F

        arc = mopso.run(Recorder(), MopsoConfig(pop_size=20, max_iter=1, seed=5,
                                                archive_capacity=1000))
        all_f = np.array(seen)
        keep = mopso._non_dominated_mask(all_f)
        expected = {tuple(v) for v in all_f[keep].tolist()}
        got = {tuple(v) for v in arc.fitnesses.tolist()}
        assert got == expected

    def test_fixed_seed_reproducible(self):
        a1 = mopso.run(BiObjective(), MopsoConfig(pop_size=30, max_iter=40, seed=8))
        a2 = mopso.run(BiObjective(), MopsoConfig(pop_size=30, max_iter=40, seed=8))
        assert np.array_equal(a1.fitnesses, a2.fitnesses)
        assert all(np.array_equal(p, q) for p, q in zip(a1.positions, a2.positions))

    def test_positions_stay_in_bounds(self):
        class Checking:
            bounds = Bounds(lower=np.array([-1.0, 0.0]), upper=np.array([2.0, 0.5]))

            def evaluate_batch(self, X):
                assert np.all(X >= self.bounds.lower) and np.all(X <= self.bounds.upper)
                return np.stack([X[:, 0], X[:, 1]], axis=1)

        mopso.run(Checking(), MopsoConfig(pop_size=20, max_iter=30, seed=3))

    def test_nonfinite_fitness_aborts(self):
        class Bad:
            bounds = Bounds(lower=np.array([0.0]), upper=np.array([1.0]))

            def evaluate_batch(self, X):
                return np.full((len(X), 2), np.nan)

        with pytest.raises(EvaluationError):
            mopso.run(Bad(), MopsoConfig(pop_size=4, max_iter=2, seed=0))

    def test_inertia_decays_linearly(self):
        start, end = 0.9, 0.4
        T = 11
        ws = [start + (end - start) * (t / (T - 1)) for t in range(T)]
        assert ws[0] == pytest.approx(0.9) and ws[-1] == pytest.approx(0.4)
        diffs = np.diff(ws)
        assert np.allclose(diffs, diffs[0])
