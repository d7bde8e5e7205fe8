import numpy as np
import pytest

from abetune import abe
from abetune.datasets import load_bundled
from abetune.data import Dataset, FeatureSpec, Kind, Project, Role, standardize
from abetune.errors import BoundsError
import scalar_reference as ref

ATOL = 1e-9


def numeric_std(rows, efforts):
    """Standardized dataset from raw numeric rows (helper for tiny fixtures)."""
    m = len(rows[0])
    specs = tuple(FeatureSpec(f"f{j}") for j in range(m)) + (
        FeatureSpec("effort", role=Role.EFFORT),)
    projects = tuple(Project(values=tuple(map(float, r)), effort=float(e))
                     for r, e in zip(rows, efforts))
    return standardize(Dataset(specs=specs, projects=projects))


class TestDistance:
    def test_pythagorean_scaled(self):
        no_cat = np.array([False, False])
        a = np.array([0.0, 0.0])
        b = np.array([0.6, 0.8])
        assert abe.distance(a, b, no_cat) == pytest.approx(1.0, abs=ATOL)

    def test_identical_projects(self):
        row = np.array([0.3, 0.7, 0.1])
        assert abe.distance(row, row, np.zeros(3, dtype=bool)) == 0.0

    def test_categorical_mismatch_contributes_one(self):
        cat = np.array([True])
        assert abe.distance(np.array([0.0]), np.array([1.0]), cat) == pytest.approx(1.0)
        assert abe.distance(np.array([2.0]), np.array([2.0]), cat) == 0.0

    def test_project_level_distance_with_labels(self):
        # labels are interned to codes, which compare for equality only
        specs = (FeatureSpec("lang", Kind.CATEGORICAL), FeatureSpec("effort", role=Role.EFFORT))
        projects = tuple(Project(values=(lang,), effort=1.0) for lang in ("C", "Java", "Ada", "C"))
        ds = standardize(Dataset(specs=specs, projects=projects))
        got = abe.distances_to(ds, ds.matrix[0])
        assert got.tolist() == [0.0, 1.0, 1.0, 0.0]
        assert abe.distance(ds.matrix[1], ds.matrix[2], ds.categorical_mask) == 1.0

    def test_symmetry(self):
        cat = np.array([False, True, False])
        a = np.array([0.1, 0.0, 0.9])
        b = np.array([0.7, 1.0, 0.2])
        assert abe.distance(a, b, cat) == abe.distance(b, a, cat)


class TestRetrieve:
    def setup_method(self):
        # distances to target (0, 0): 0.5, 0.2, 0.9
        self.ds = numeric_std([[0.5, 0.0], [0.2, 0.0], [0.9, 0.0], [0.0, 0.0]],
                              [10, 20, 30, 40])
        self.train = self.ds.subset([0, 1, 2])
        self.target = self.ds.matrix[3]

    def test_sorted_by_distance(self):
        got = abe.retrieve(self.train, self.target, k=2)
        assert [nb.index for nb in got] == [1, 0]
        assert [nb.rank for nb in got] == [1, 2]
        assert got[0].distance == pytest.approx(0.2 / 0.9)

    def test_k_equals_n(self):
        got = abe.retrieve(self.train, self.target, k=3)
        assert [nb.index for nb in got] == [1, 0, 2]

    def test_identical_target_is_rank_one_with_zero_distance(self):
        got = abe.retrieve(self.train, self.train.matrix[2], k=1)
        assert got[0].index == 2 and got[0].distance == 0.0

    def test_k_out_of_range(self):
        with pytest.raises(BoundsError):
            abe.retrieve(self.train, self.target, k=0)
        with pytest.raises(BoundsError):
            abe.retrieve(self.train, self.target, k=4)

    def test_distance_ties_break_by_index(self):
        ds = numeric_std([[0.4, 0.0], [0.4, 0.0], [0.0, 0.0]], [1, 2, 3])
        train = ds.subset([0, 1])
        got = abe.retrieve(train, ds.matrix[2], k=2)
        assert [nb.index for nb in got] == [0, 1]


class TestAggregation:
    def test_mean(self):
        assert abe.mean_aggregate([10]) == 10
        assert abe.mean_aggregate([10, 20, 30]) == 20
        assert abe.mean_aggregate([7, 8]) == pytest.approx(7.5, abs=ATOL)

    def test_irwm_single(self):
        assert abe.irwm_aggregate([10]) == pytest.approx(10, abs=ATOL)

    def test_irwm_two_values(self):
        assert abe.irwm_aggregate([10, 20]) == pytest.approx(40.0 / 3.0, abs=ATOL)

    def test_irwm_constant(self):
        assert abe.irwm_aggregate([4.2, 4.2, 4.2]) == pytest.approx(4.2, abs=ATOL)

    def test_owm_weights_k3(self):
        assert abe.owm_weights(3).tolist() == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=ATOL)

    def test_owm_single(self):
        assert abe.owm_aggregate([100]) == pytest.approx(100, abs=ATOL)

    def test_owm_k3_value(self):
        assert abe.owm_aggregate([7, 14, 21]) == pytest.approx(11.0, abs=ATOL)

    @pytest.mark.parametrize("k", range(1, 20))
    def test_owm_weights_sum_to_one(self, k):
        assert abe.owm_weights(k).sum() == pytest.approx(1.0, abs=ATOL)

    def test_owm_constant_fixed_point(self):
        assert abe.owm_aggregate([3.5] * 7) == pytest.approx(3.5, abs=ATOL)


class TestAdapt:
    def test_zero_difference_returns_effort(self):
        row = np.array([0.2, 0.8])
        out = abe.adapt_effort(row, row, 42.0, [0.5, 0.5], (1, 1), np.zeros(2, dtype=bool))
        assert out == pytest.approx(42.0, abs=ATOL)

    def test_hand_example_full_mask(self):
        out = abe.adapt_effort(np.array([0.5, 0.5]), np.array([0.3, 0.1]), 10.0,
                               [1.0, 1.0], (1, 1), np.zeros(2, dtype=bool))
        assert out == pytest.approx(10.3, abs=ATOL)

    def test_hand_example_partial_mask(self):
        out = abe.adapt_effort(np.array([0.4, 0.9]), np.array([0.2, 0.1]), 5.0,
                               [1.0, 1.0], (1, 0), np.zeros(2, dtype=bool))
        assert out == pytest.approx(5.1, abs=ATOL)

    def test_categorical_contributes_nothing_to_adaptation(self):
        cat = np.array([False, True])
        out = abe.adapt_effort(np.array([0.5, 0.0]), np.array([0.3, 1.0]), 10.0,
                               [1.0, 1.0], (1, 1), cat)
        assert out == pytest.approx(10.0 + 0.2 / 2, abs=ATOL)


class TestPredict:
    def setup_method(self):
        self.ds = numeric_std(
            [[1.0, 2.0], [2.0, 1.0], [9.0, 8.0], [1.5, 1.5]],
            [10, 30, 80, 22])

    def test_abe0_k1_is_nearest_effort(self):
        train = self.ds.subset([0, 1, 2])
        pred = abe.predict_abe0(train, self.ds.matrix[3], k=1)
        assert pred in (10.0, 30.0)

    def test_abe0_k_equals_n_is_training_mean(self):
        train = self.ds.subset([0, 1, 2])
        pred = abe.predict_abe0(train, self.ds.matrix[3], k=3)
        assert pred == pytest.approx(40.0, abs=ATOL)

    def test_abe0_two_equidistant(self):
        ds = numeric_std([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [10, 30, 99])
        pred = abe.predict_abe0(ds.subset([0, 1]), ds.matrix[2], k=2)
        assert pred == pytest.approx(20.0, abs=ATOL)

    def test_adapted_identity_case(self):
        # k=1, all-ones mask and weights, target equals a training project
        train = self.ds.subset([0, 1, 2])
        sol = ref.solution(1, (1, 1), np.ones((3, 2)))
        pred = abe.predict_adapted(train, train.matrix[1], sol)
        assert pred == pytest.approx(30.0, abs=ATOL)

    def test_adapted_compositional_oracle(self):
        # independent composition of retrieve + adapt_effort + owm_aggregate
        train = self.ds.subset([0, 1, 2])
        target = self.ds.matrix[3]
        weights = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        sol = ref.solution(2, (1, 1), weights)
        neighbors = abe.retrieve(train, target, 2)
        adapted = [
            abe.adapt_effort(target, train.matrix[nb.index],
                             float(train.effort_vec[nb.index]),
                             weights[nb.rank - 1], sol["mask"], train.categorical_mask)
            for nb in neighbors
        ]
        expected = max(abe.owm_aggregate(adapted), abe.EPS_EFFORT)
        assert abe.predict_adapted(train, target, sol) == pytest.approx(expected, abs=1e-12)

    def test_adapted_clamps_at_epsilon(self):
        ds = numeric_std([[0.0], [10.0], [5.0]], [1e-5, 2e-5, 1e-5])
        train = ds.subset([0, 1])
        sol = ref.solution(2, (1,), np.ones((2, 1)))
        pred = abe.predict_adapted(train, ds.matrix[2], sol)
        assert pred >= abe.EPS_EFFORT

    def test_adapted_k_out_of_range_rejected(self):
        train = self.ds.subset([0, 1, 2])
        for k in (0, 4):
            sol = ref.solution(k, (1, 1), np.ones((max(k, 1), 2)))
            with pytest.raises(BoundsError, match=f"k={k} out of range 1..3"):
                abe.predict_adapted(train, self.ds.matrix[3], sol)


class TestFoldContext:
    def test_owm_table_rows_match_the_per_call_matrix(self):
        train, row, _ = load_bundled("china").loocv_fold(0)
        ctx = abe._FoldContext([(train, row)])
        rows = train.n
        assert ctx.owm.shape == (rows, rows)
        for kmax in range(1, rows + 1):
            for k in range(1, kmax + 1):
                want = abe._owm_matrix(np.array([k]), kmax)[0]
                assert ctx.owm[k - 1, :kmax].tobytes() == want.tobytes(), (k, kmax)
