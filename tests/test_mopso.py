import tracemalloc

import numpy as np
import pytest

from abetune import datasets, mopso, tuning
from abetune.errors import BoundsError, EvaluationError
from abetune.mopso import Archive, Bounds, MopsoConfig
import scalar_reference as ref


_default_rng = np.random.default_rng


class ScriptedRng:
    """Deterministic stand-in replaying preset blocks of uniform draws; each
    block must have the shape the caller asks for, by `size` or by `out`."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size=None, out=None):
        block = np.asarray(self.uniforms.pop(0), dtype=float)
        assert block.shape == (out.shape if out is not None else np.empty(size).shape)
        if out is None:
            return block
        out[...] = block
        return out


class RecordingRng:
    """A real generator that logs each call's method and requested shape, and
    in `outs` the `out` array of each `random` call (None when it allocates)."""

    def __init__(self, seed, log, outs):
        self._rng = _default_rng(seed)
        self.log = log
        self.outs = outs

    def random(self, size=None, out=None):
        self.log.append(("random", out.shape if out is not None else np.empty(size).shape))
        self.outs.append(out)
        return self._rng.random(size, out=out)

    def integers(self, low, high, size):
        self.log.append(("integers", np.empty(size).shape))
        return self._rng.integers(low, high, size=size)


class TestDominates:
    """The oracle's dominance, which its archive merge and pbest rule use."""

    def test_strict_improvement(self):
        assert ref.dominates((1, 2), (2, 3))

    def test_incomparable(self):
        assert not ref.dominates((1, 3), (3, 1))
        assert not ref.dominates((3, 1), (1, 3))

    def test_equal_vectors(self):
        assert not ref.dominates((1, 2), (1, 2))

    def test_length_mismatch(self):
        with pytest.raises(BoundsError):
            ref.dominates((1, 2), (1, 2, 3))


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
    def test_one_generator_draws_whole_swarm_blocks_in_step_order(self, monkeypatch):
        pop, d = 6, 5
        seeds, log, outs = [], [], []

        def default_rng(seed):
            seeds.append(seed)
            return RecordingRng(seed, log, outs)

        monkeypatch.setattr(np.random, "default_rng", default_rng)

        class Box(BiObjective):
            bounds = Bounds(lower=np.zeros(d), upper=np.ones(d))

        mopso.run(Box(), MopsoConfig(pop_size=pop, max_iter=2, seed=4, mutation_fraction=0.5))
        assert seeds == [4]
        # t = 0 mutates: a selection block, then one direction and one step
        # per selected coordinate; t = 1 does not mutate
        velocity = [("integers", (pop,)), ("random", (pop, d)), ("random", (pop, d))]
        n_sel = log[5][1]
        assert len(n_sel) == 1 and 1 <= n_sel[0] <= pop * d
        assert log == [("random", (pop, d)),
                       *velocity,
                       ("random", (pop, d)), ("random", n_sel), ("random", n_sel),
                       ("random", (pop,)),
                       *velocity,
                       ("random", (pop,))]
        # each step draws R1 and R2 into one block, the same every step, and
        # the selection block into another
        R = outs[1]
        assert isinstance(R, np.ndarray) and R.shape == (pop, d)
        assert all(out is R for out in (outs[2], outs[7], outs[8]))
        assert isinstance(outs[3], np.ndarray) and outs[3] is not R


def scratch(X):
    """A fresh float block and two bool blocks shaped like X."""
    return np.empty_like(X), np.empty(X.shape, dtype=bool), np.empty(X.shape, dtype=bool)


def velocity_step(V, X, PB, G, R1, R2, w_t, c1, c2, v_max):
    """The velocity operators composed in `run`'s order, with R2 written into
    R1's block after the cognitive pull; updates V in place and returns it."""
    R, C, over = np.array(R1, dtype=float), np.empty_like(V), np.empty(V.shape, dtype=bool)
    mopso.cognitive_pull(V, X, PB, R, C, w_t, c1)
    R[...] = R2
    C[...] = G
    mopso.social_pull(V, X, R, C, c2)
    return mopso.cap_velocity(V, v_max, C, over)


class TestVelocity:
    def step(self, V, X, PB, G, R1, R2, w_t, c1, c2, cap):
        return velocity_step(V, X, PB, G, R1, R2, w_t, c1, c2, np.array([cap]))

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

    def step(self, X, V):
        return mopso.step_position(X, V, self.bounds, *scratch(X))

    def test_interior_move(self):
        X, V = self.step(rows(0.4, 0.1), rows(0.2, -0.1))
        assert X.ravel().tolist() == pytest.approx([0.6, 0.0])
        assert V.tolist() == [[0.2], [-0.1]]

    def test_boundary_reflection(self):
        # only the particle that left the box is reflected back
        X, V = self.step(rows(0.9, 0.1, 0.5), rows(0.3, -0.4, 0.1))
        assert X.ravel().tolist() == pytest.approx([0.9, 0.1, 0.6])
        assert V.tolist() == [[-0.3], [0.4], [0.1]]

    def test_fixed_point_at_bound(self):
        X, V = self.step(rows(0.0, 1.0), rows(0.0, 0.0))
        assert X.tolist() == [[0.0], [1.0]] and V.tolist() == [[0.0], [0.0]]


class TestMutation:
    def cfg(self, **kw):
        return MopsoConfig(pop_size=2, max_iter=100, **kw)

    def mutate(self, X, t, b, rng):
        return mopso.mutate(X, t, self.cfg(), b, rng, *scratch(X)[:2])

    def test_zero_headroom_at_upper_bound(self):
        b = Bounds(lower=np.zeros(2), upper=np.ones(2))
        # only the first coordinate of the first particle is selected, toward UB
        rng = ScriptedRng([[[0.0, 0.9], [0.9, 0.9]], [0.0], [0.5]])
        X = self.mutate(np.array([[1.0, 0.3], [0.4, 0.3]]), 10, b, rng)
        assert X.tolist() == [[1.0, 0.3], [0.4, 0.3]]

    def test_full_range_at_t_zero(self):
        # delta(0, y) = y regardless of r, so an upward move (direction
        # draw below 0.5) lands on UB and a downward one on LB; directions
        # follow the selected coordinates in row-major order
        b = Bounds(lower=np.array([0.0]), upper=np.array([1.0]))
        rng = ScriptedRng([[[0.0], [0.0]], [0.2, 0.8], [0.77, 0.3]])
        X = self.mutate(rows(0.25, 0.6), 0, b, rng)
        assert X.ravel().tolist() == pytest.approx([1.0, 0.0])

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
        rng = ScriptedRng([[[0.9, 0.9, 0.1, 0.9], [0.9, 0.9, 0.9, 0.9]], [0.0], [0.5]])
        X0 = np.full((2, 4), 0.5)
        X = self.mutate(X0, 0, b, rng)
        # the swarm is mutated in place
        assert X is X0
        changed = X != 0.5
        assert changed.tolist() == [[False, False, True, False], [False] * 4]

    def test_draws_its_selection_block_into_scratch(self):
        # a china LT box at the default population: the (pop, d) selection
        # block goes into the run's scratch, so the call allocates far less
        bounds = _lt_box("china", "lt", 0).bounds
        cfg = MopsoConfig(seed=3)
        X = _default_rng(3).uniform(bounds.lower, bounds.upper, size=(cfg.pop_size, bounds.dim))
        S, picked = scratch(X)[:2]
        rng = _default_rng(4)
        tracemalloc.start()
        try:
            mopso.mutate(X, 0, cfg, bounds, rng, S, picked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes

    def test_nothing_selected_draws_nothing_more(self):
        b = Bounds(lower=np.zeros(2), upper=np.ones(2))
        rng = ScriptedRng([[[0.9, 0.9], [0.5, 0.6]]])
        X = self.mutate(np.full((2, 2), 0.5), 0, b, rng)
        assert X.tolist() == np.full((2, 2), 0.5).tolist()
        assert rng.uniforms == []


# (entries, candidates, capacity): merges where the screen must keep
# exactly what the all-pairs test over entries and candidates keeps
MERGES = {
    "first-update": ([], [[2, 1], [1, 2], [2, 2], [1, 2]], 10),
    "duplicate-rows": ([[1, 2], [2, 1]], [[1, 2], [1, 2], [0, 3], [0, 3]], 10),
    "tie-on-one-objective": ([[1, 2], [3, 0]], [[1, 3], [1, 1], [2, 0], [3, 0.5]], 10),
    "candidate-equals-entry": ([[1, 1]], [[1, 1], [2, 1], [1, 1]], 10),
    "at-capacity": ([[0, 4], [4, 0]], [[1, 3], [2, 2], [3, 1], [2, 2], [5, 5]], 3),
    "dominates-every-entry": ([[1, 3], [3, 1]], [[0, 0], [4, 4]], 10),
}


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
                        assert not ref.dominates(f[i], f[j])

    @pytest.mark.parametrize("case", sorted(MERGES))
    def test_screened_merge_is_the_all_pairs_merge(self, case):
        entries, candidates, capacity = MERGES[case]
        a = Archive(capacity=capacity)
        if entries:
            a.update(np.arange(len(entries), dtype=float)[:, None], entries)
        pos = 10.0 + np.arange(len(candidates), dtype=float)[:, None]
        fit = np.array(candidates, dtype=float)
        positions, fitnesses = ref.reference_merge(a.positions, a.fitnesses, pos, fit, capacity)
        a.update(pos, fit)
        assert a.positions.shape == positions.shape
        assert a.positions.tobytes() == positions.tobytes()
        assert a.fitnesses.tobytes() == fitnesses.tobytes()

    def test_no_surviving_candidate_leaves_the_archive_as_it_is(self, monkeypatch):
        a = Archive(capacity=10)
        a.update([[0.0], [1.0]], [[1.0, 3.0], [3.0, 1.0]])
        positions, fitnesses = a.positions, a.fitnesses
        before = positions.tobytes(), fitnesses.tobytes()
        monkeypatch.setattr(mopso, "crowding_distances", lambda f: pytest.fail("crowding"))
        # each candidate is dominated by the second entry and not by the first
        a.update([[2.0], [3.0]], [[4.0, 2.0], [3.0, 1.5]])
        assert a.positions is positions and a.fitnesses is fitnesses
        assert (positions.tobytes(), fitnesses.tobytes()) == before
        a.update([[4.0]], [[2.0, 2.0]])
        assert a.fitnesses is not fitnesses
        assert a.fitnesses.tolist() == [[1.0, 3.0], [3.0, 1.0], [2.0, 2.0]]
        assert a.positions.tolist() == [[0.0], [1.0], [4.0]]


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
        # the picks as `run` draws them, one per particle within the share
        pick = np.random.default_rng(0).integers(0, len(share), size=200)
        assert set(share[pick].tolist()) == set(share.tolist())

    def test_empty_archive_rejected(self):
        with pytest.raises(BoundsError):
            mopso.leader_share(Archive(capacity=3).crowding(), 0.1)


class TestPbest:
    def update(self, fitness, pbest_fitness, rng):
        pop = len(fitness)
        PB = np.zeros((pop, 1))
        PBF = np.array(pbest_fitness, dtype=float)
        X = np.ones((pop, 1))
        mopso.update_pbests(PB, PBF, X, np.array(fitness, dtype=float), rng)
        return PB, PBF

    def test_current_dominates(self):
        PB, PBF = self.update([[1, 1], [3, 3]], [[2, 2], [2, 2]], np.random.default_rng(0))
        assert PBF.tolist() == [[1, 1], [2, 2]]
        assert PB.tolist() == [[1.0], [0.0]]

    def test_pbest_kept_when_dominating(self):
        PB, PBF = self.update([[2, 2], [2, 2]], [[1, 1], [1, 2]], np.random.default_rng(0))
        assert PBF.tolist() == [[1, 1], [1, 2]] and PB.tolist() == [[0.0], [0.0]]

    def test_coin_flip_roughly_even(self):
        pop = 1000
        _, PBF = self.update([[1, 3]] * pop, [[3, 1]] * pop, np.random.default_rng(42))
        kept = sum(row == [3, 1] for row in PBF.tolist())
        assert 450 <= kept <= 550

    def test_coins_decide_only_undecided_particles(self):
        # one coin per particle, heads below 0.5; the first two are decided
        # by dominance whatever their coins say, the last two follow theirs
        rng = ScriptedRng([[0.9, 0.1, 0.1, 0.9]])
        PB, PBF = self.update([[1, 1], [3, 3], [1, 3], [1, 3]],
                              [[2, 2], [2, 2], [3, 1], [3, 1]], rng)
        assert PBF.tolist() == [[1, 1], [2, 2], [1, 3], [3, 1]]
        assert PB.ravel().tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_ties_and_equal_rows_follow_the_two_dominates_rule(self):
        # equal rows, ties on one objective in either direction, and
        # incomparable rows, each with a coin of either side
        F = [[1, 2], [1, 2], [1, 3], [1, 1], [2, 2], [0, 2], [0, 3], [0, 3]]
        PBF = [[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2]]
        for seed in range(8):
            PB, got = self.update(F, PBF, np.random.default_rng(seed))
            want_pb, want = ref.reference_pbests(np.zeros((8, 1)), np.array(PBF, dtype=float),
                                                 np.ones((8, 1)), np.array(F, dtype=float),
                                                 np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes() and PB.tobytes() == want_pb.tobytes()


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

    @pytest.mark.parametrize("better_at,sizes", [(None, [4]), (3, [4, 1])],
                             ids=["never-changes", "changes-once"])
    def test_leader_share_is_recomputed_only_when_the_archive_changes(self, monkeypatch,
                                                                     better_at, sizes):
        class Scripted:
            # the first batch fills the archive with equal rows; every later
            # batch is dominated by them, but for one better row in batch
            # `better_at`
            bounds = Bounds(lower=np.zeros(1), upper=np.ones(1))
            calls = 0

            def evaluate_batch(self, X):
                F = np.full((len(X), 2), 1.0 if self.calls == 0 else 2.0)
                if self.calls == better_at:
                    F[0] = 0.5
                self.calls += 1
                return F

        scored, crowding = [], mopso.crowding_distances
        monkeypatch.setattr(mopso, "crowding_distances",
                            lambda f: scored.append(len(f)) or crowding(f))
        archive = mopso.run(Scripted(), MopsoConfig(pop_size=4, max_iter=6, seed=0))
        assert scored == sizes
        assert len(archive) == sizes[-1]

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

        with pytest.raises(EvaluationError,
                           match=r"in the initial swarm for particles \[0, 1, 2, 3\]$"):
            mopso.run(Bad(), MopsoConfig(pop_size=4, max_iter=2, seed=0))

    def test_nonfinite_fitness_names_its_iteration(self):
        class LateBad:
            # evaluation 0 is the initial swarm, evaluation 2 iteration 1
            bounds = Bounds(lower=np.array([0.0]), upper=np.array([1.0]))
            calls = 0

            def evaluate_batch(self, X):
                F = np.zeros((len(X), 2))
                if self.calls == 2:
                    F[1, 0] = np.inf
                self.calls += 1
                return F

        with pytest.raises(EvaluationError, match=r"at iteration 1 for particles \[1\]$"):
            mopso.run(LateBad(), MopsoConfig(pop_size=4, max_iter=3, seed=0))

    def test_workspace_holds_under_five_and_a_half_blocks(self):
        # X, V, PB, the draw block R and the scratch C, plus two bool blocks
        # of an eighth each.  Every evaluation scores worse than the last,
        # so no step replaces a pbest or adds to the one-entry archive, and
        # no step copies rows
        pop, d = 20, 20_000

        class Wide:
            bounds = Bounds(lower=np.zeros(d), upper=np.ones(d))
            calls = 0

            def evaluate_batch(self, X):
                self.calls += 1
                return np.full((len(X), 2), float(self.calls))

        tracemalloc.start()
        try:
            mopso.run(Wide(), MopsoConfig(pop_size=pop, max_iter=2, archive_capacity=1, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * pop * d * 8

    def test_inertia_decays_linearly(self):
        start, end = 0.9, 0.4
        T = 11
        ws = [start + (end - start) * (t / (T - 1)) for t in range(T)]
        assert ws[0] == pytest.approx(0.9) and ws[-1] == pytest.approx(0.4)
        diffs = np.diff(ws)
        assert np.allclose(diffs, diffs[0])


def _lt_box(name: str, method: str, fold: int):
    train, row, actual = datasets.load_bundled(name).loocv_fold(fold)
    return tuning.LocalProblem(train, row, actual, tuning.VARIANTS[method])


class Corner:
    """A small box of three very different ranges whose objectives pull
    every coordinate past a bound, so reflections and clamps are frequent."""
    bounds = Bounds(lower=np.array([-1.0, 0.0, -1e-3]), upper=np.array([2.0, 0.5, 0.0]))

    def evaluate_batch(self, X):
        return np.stack([X.sum(axis=1), -X[:, 0], (X[:, 1] - X[:, 2]) ** 2], axis=1)


ORACLE_CASES = {
    "d1-capacity": (BiObjective, dict(pop_size=40, max_iter=60, archive_capacity=8)),
    "d1-classical": (BiObjective, dict(pop_size=12, max_iter=30, classical_mutation=True,
                                       mutation_fraction=1.0)),
    "corner": (Corner, dict(pop_size=25, max_iter=40, archive_capacity=5)),
    "kemerer-lt-plus": (lambda: _lt_box("kemerer", "lt_plus", 4), dict(pop_size=20, max_iter=20)),
    "china-lt": (lambda: _lt_box("china", "lt", 11), dict(pop_size=30, max_iter=12)),
    "china-lt-100x100": (lambda: _lt_box("china", "lt", 0), {}),  # d = 592
    "albrecht-gt": (lambda: tuning.GlobalProblem(datasets.load_bundled("albrecht"),
                                                 tuning.VARIANTS["gt"]),
                    dict(pop_size=12, max_iter=8)),
}


class TestFrozenOracle:
    """`run` against `scalar_reference.reference_run`, the loop written with
    boolean-mask indexing and fresh arrays per step.  Bytes are compared,
    not values, so that a -0.0 where the oracle has 0.0 fails."""

    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_final_archive_bytes_match(self, case, seed):
        make, settings = ORACLE_CASES[case]
        problem = make()
        cfg = MopsoConfig(seed=seed, **settings)
        archive = mopso.run(problem, cfg)
        positions, fitnesses = ref.reference_run(problem, cfg)
        assert archive.positions.shape == positions.shape
        assert archive.positions.tobytes() == positions.tobytes()
        assert archive.fitnesses.tobytes() == fitnesses.tobytes()

    def test_draws_into_a_block_continue_the_same_stream(self):
        # a step of `run`: the picks, then R1 and R2 drawn into one block R,
        # against the oracle's fresh arrays
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        R = np.empty((7, 5))
        assert a.integers(0, 4, size=7).tolist() == b.integers(0, 4, size=7).tolist()
        for _ in range(2):
            a.random(out=R)
            assert R.tobytes() == b.random((7, 5)).tobytes()
        assert a.random() == b.random()
