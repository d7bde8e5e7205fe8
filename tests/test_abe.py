import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from abetune import abe, tuning
from abetune.data import load_dataset
from abetune.datasets import load_bundled
import scalar_reference as ref
from scalar_reference import numeric_std

ATOL = 1e-9


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

    def test_project_level_distance_with_labels(self, tmp_path):
        # labels are interned to codes, which compare for equality only
        path = tmp_path / "lang.csv"
        path.write_text("lang,effort\nC,1\nJava,1\nAda,1\nC,1\n", encoding="utf-8")
        ds = load_dataset(path, categorical_columns=("lang",))
        got = abe.distance(ds.matrix, ds.matrix[0], ds.categorical_mask)
        assert got.tolist() == [0.0, 1.0, 1.0, 0.0]
        assert abe.distance(ds.matrix[1], ds.matrix[2], ds.categorical_mask) == 1.0

    def test_symmetry(self):
        cat = np.array([False, True, False])
        a = np.array([0.1, 0.0, 0.9])
        b = np.array([0.7, 1.0, 0.2])
        assert abe.distance(a, b, cat) == abe.distance(b, a, cat)


class TestRetrieve:
    """Retrieval is `neighbor_order`, with distances from `distance`'s matrix
    form."""

    def setup_method(self):
        # distances to target (0, 0): 0.5, 0.2, 0.9
        self.ds = numeric_std([[0.5, 0.0], [0.2, 0.0], [0.9, 0.0], [0.0, 0.0]],
                              [10, 20, 30, 40])
        self.train = self.ds.subset([0, 1, 2])
        self.target = self.ds.matrix[3]

    def distances(self, target):
        return abe.distance(self.train.matrix, target, self.train.categorical_mask)

    def test_sorted_by_distance(self):
        order = abe.neighbor_order(self.train, self.target)
        assert order[:2].tolist() == [1, 0]
        assert self.distances(self.target)[order[0]] == pytest.approx(0.2 / 0.9)

    def test_k_equals_n(self):
        assert abe.neighbor_order(self.train, self.target).tolist() == [1, 0, 2]

    def test_identical_target_is_rank_one_with_zero_distance(self):
        target = self.train.matrix[2]
        order = abe.neighbor_order(self.train, target)
        assert order[0] == 2 and self.distances(target)[order[0]] == 0.0

    def test_distance_ties_break_by_index(self):
        ds = numeric_std([[0.4, 0.0], [0.4, 0.0], [0.0, 0.0]], [1, 2, 3])
        assert abe.neighbor_order(ds.subset([0, 1]), ds.matrix[2]).tolist() == [0, 1]

    def test_matches_the_scalar_reference(self):
        ds = load_bundled("desharnais")  # one categorical feature
        for i in (0, 40, ds.n - 1):
            train, row, _ = ds.loocv_fold(i)
            assert abe.neighbor_order(train, row).tolist() == ref.nearest(train, row, train.n)


def owm_row(k: int) -> np.ndarray:
    return abe._owm_matrix(np.array([k]), k)[0]


class TestAggregation:
    """OWM through `_owm_matrix`, the table the estimator reads; the plain
    and inverse-ranked means, which no method runs, through the scalar
    reference."""

    def test_mean(self):
        assert ref.mean([10]) == 10
        assert ref.mean([10, 20, 30]) == 20
        assert ref.mean([7, 8]) == pytest.approx(7.5, abs=ATOL)

    def test_irwm_single(self):
        assert ref.irwm([10]) == pytest.approx(10, abs=ATOL)

    def test_irwm_two_values(self):
        assert ref.irwm([10, 20]) == pytest.approx(40.0 / 3.0, abs=ATOL)

    def test_irwm_constant(self):
        assert ref.irwm([4.2, 4.2, 4.2]) == pytest.approx(4.2, abs=ATOL)

    def test_owm_weights_k3(self):
        assert owm_row(3).tolist() == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=ATOL)

    def test_owm_single(self):
        assert owm_row(1) @ [100.0] == pytest.approx(100, abs=ATOL)

    def test_owm_k3_value(self):
        assert owm_row(3) @ [7.0, 14.0, 21.0] == pytest.approx(11.0, abs=ATOL)

    @pytest.mark.parametrize("k", range(1, 20))
    def test_owm_weights_sum_to_one(self, k):
        assert owm_row(k).sum() == pytest.approx(1.0, abs=ATOL)
        assert owm_row(k).tolist() == pytest.approx(ref.owm_weights(k), rel=1e-15)

    def test_owm_constant_fixed_point(self):
        assert owm_row(7) @ np.full(7, 3.5) == pytest.approx(3.5, abs=ATOL)

    def test_owm_table_bits_up_to_k_1023(self):
        # the weights as 2**(k-1-r) / (2**k - 1) literally, which is finite
        # up to k = 1023: the table must hold exactly these bits
        K = np.arange(1, 1024)[:, None]
        ranks = np.arange(1023)[None, :]
        want = np.where(ranks < K, 2.0 ** (K - 1.0 - ranks) / (2.0 ** K.astype(float) - 1.0), 0.0)
        assert abe._owm_matrix(np.arange(1, 1024), 1023).tobytes() == want.tobytes()

    def test_owm_weights_stay_finite_past_k_1023(self):
        # 2**k overflows from k = 1024 on; the weights must not (the
        # deepest ranks' weights underflow to 0, as they should)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            table = abe._owm_matrix(np.arange(1, 1201), 1200)
        assert np.isfinite(table).all()
        assert (table[np.tril_indices(1200)] >= 0.0).all()
        assert np.abs(table.sum(axis=1) - 1.0).max() <= 2 * np.finfo(float).eps
        assert table[1099, 0] == 0.5 and table[1099, 1] == 0.25


def adapted_effort(target, analogy, effort, mask, cat=(False, False)):
    """One analogy adapted with weight row (1, 1) by a one-fold context at
    k = 1, whose single OWM weight is 1: the raw rows are set on a
    standardized dataset, so nothing is re-scaled."""
    base = numeric_std([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]], [1, 1, 1])
    train = replace(base, matrix=np.array([analogy]), effort_vec=np.array([effort]),
                    categorical_mask=np.array(cat))
    ctx = abe._FoldContext([(train, np.array(target))])
    return ctx.predict_batch(np.array([1]), np.array([mask], dtype=float), np.ones((1, 1, 2)))[0, 0]


class TestAdapt:
    def test_zero_difference_returns_effort(self):
        assert adapted_effort([0.2, 0.8], [0.2, 0.8], 42.0, (1, 1)) == pytest.approx(42.0, abs=ATOL)

    def test_hand_example_full_mask(self):
        assert adapted_effort([0.5, 0.5], [0.3, 0.1], 10.0, (1, 1)) == pytest.approx(10.3, abs=ATOL)

    def test_hand_example_partial_mask(self):
        assert adapted_effort([0.4, 0.9], [0.2, 0.1], 5.0, (1, 0)) == pytest.approx(5.1, abs=ATOL)

    def test_categorical_contributes_nothing_to_adaptation(self):
        out = adapted_effort([0.5, 0.0], [0.3, 1.0], 10.0, (1, 1), cat=(False, True))
        assert out == pytest.approx(10.0 + 0.2 / 2, abs=ATOL)


class TestPredict:
    def setup_method(self):
        self.ds = numeric_std(
            [[1.0, 2.0], [2.0, 1.0], [9.0, 8.0], [1.5, 1.5]],
            [10, 30, 80, 22])

    def test_abe0_k1_is_nearest_effort(self):
        train = self.ds.subset([0, 1, 2])
        assert ref.abe0(train, self.ds.matrix[3], k=1) in (10.0, 30.0)

    def test_abe0_k_equals_n_is_training_mean(self):
        train = self.ds.subset([0, 1, 2])
        assert ref.abe0(train, self.ds.matrix[3], k=3) == pytest.approx(40.0, abs=ATOL)

    def test_abe0_two_equidistant(self):
        # the k scan keeps k = 2; the third project's two analogies tie
        ds = numeric_std([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [10, 30, 99])
        k, preds = tuning.best_k_abe0(ds)
        assert k == 2 and preds[2] == pytest.approx(20.0, abs=ATOL)

    def test_adapted_identity_case(self):
        # k=1, all-ones mask and weights, target equals a training project
        train = self.ds.subset([0, 1, 2])
        sol = ref.solution(1, (1, 1), np.ones((3, 2)))
        pred = abe.predict_adapted(abe._FoldContext([(train, train.matrix[1])]),
                                   *ref.solution_arrays(sol))
        assert pred == pytest.approx(30.0, abs=ATOL)

    def test_adapted_compositional_oracle(self):
        train = self.ds.subset([0, 1, 2])
        target = self.ds.matrix[3]
        sol = ref.solution(2, (1, 1), np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
        assert abe.predict_adapted(abe._FoldContext([(train, target)]),
                                   *ref.solution_arrays(sol)) == \
            pytest.approx(ref.predict(train, target, sol), abs=1e-12)

    def test_adapted_clamps_at_epsilon(self):
        ds = numeric_std([[0.0], [10.0], [5.0]], [1e-5, 2e-5, 1e-5])
        train = ds.subset([0, 1])
        sol = ref.solution(2, (1,), np.ones((2, 1)))
        pred = abe.predict_adapted(abe._FoldContext([(train, ds.matrix[2])]),
                                   *ref.solution_arrays(sol))
        assert pred >= abe.EPS_EFFORT


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

    def test_contexts_with_r_analogies_share_one_read_only_table(self):
        ds = load_bundled("china")
        first, second = (abe._FoldContext([ds.loocv_fold(i)[:2]]) for i in (0, 1))
        assert first.owm is second.owm
        assert not first.owm.flags.writeable
        with pytest.raises(ValueError):
            first.owm[0, 0] = 0.5

    def test_predictions_share_no_memory_with_the_context(self):
        ds = load_bundled("desharnais")
        ctx = abe._FoldContext(ds.loocv_fold(i)[:2] for i in range(ds.n))
        space = tuning.SolutionSpace(n_rows=ds.n - 1, m=ds.m, variant=tuning.VARIANTS["gt"])
        bounds = space.bounds()
        X = np.random.default_rng(3).uniform(bounds.lower, bounds.upper, size=(30, bounds.dim))
        K, masks, W = space.decode(X)
        first = ctx.predict_batch(K, masks, W)
        kept = first.tobytes()
        owned = (ctx.efforts, ctx.diffs, ctx.owm, ctx._wv, ctx._adapted)
        assert not any(np.shares_memory(first, a) for a in owned)
        # a smaller kmax writes a shorter prefix of the same buffers
        second = ctx.predict_batch(np.minimum(K, 3), masks, W)
        assert first.tobytes() == kept
        assert not any(np.shares_memory(second, a) for a in (first, *owned))

    def test_stacks_are_k_major(self):
        ds = load_bundled("desharnais")
        folds = [ds.loocv_fold(i)[:2] for i in (0, 5, 9)]
        ctx = abe._FoldContext(folds)
        assert ctx.efforts.shape == (ds.n - 1, 3) and ctx.diffs.shape == (ds.n - 1, ds.m, 3)
        assert ctx.efforts.flags.c_contiguous and ctx.diffs.flags.c_contiguous
        for j, (train, row) in enumerate(folds):
            order = abe.neighbor_order(train, row)
            assert np.array_equal(ctx.efforts[:, j], train.effort_vec[order])
            d = row - train.matrix[order]
            d[:, train.categorical_mask] = 0.0
            assert np.array_equal(ctx.diffs[:, :, j], d)


def decoded_batch(problem, p: int):
    """A problem's fold context and p decoded random positions of its box,
    as (ctx, K, masks, W)."""
    b = problem.bounds
    X = np.random.default_rng(4).uniform(b.lower, b.upper, size=(p, b.dim))
    return (problem.ctx, *problem.space.decode(X))


def gt_batch(name: str, method: str, p: int):
    """A p-row batch of a bundled dataset's GT-variant problem."""
    return decoded_batch(tuning.GlobalProblem(load_bundled(name), tuning.VARIANTS[method]), p)


def lt_batch(p: int):
    """A p-row batch of china's fourth LT fold."""
    train, row, actual = load_bundled("china").loocv_fold(3)
    return decoded_batch(tuning.LocalProblem(train, row, actual, tuning.VARIANTS["lt"]), p)


def chunk_step(ctx, p: int) -> int:
    """The ranks one chunk of a p-row batch holds at the module's CHUNK."""
    return max(abe.CHUNK // (p * ctx.diffs.shape[2]), 1)


def kmax_of(kmax_from_step):
    """A case whose K draws 1..kmax, kmax set by the chunk length."""
    def set_k(ctx, K):
        kmax = kmax_from_step(chunk_step(ctx, len(K)))
        K = np.random.default_rng(5).integers(1, kmax + 1, size=len(K))
        K[17] = kmax
        return K
    return set_k


def lone_particle(ctx, K):
    """Every solution at k = 1 but one at the largest k, so only one
    solution reaches the chunks past the first."""
    K = np.ones_like(K)
    K[len(K) // 3] = ctx.diffs.shape[0]
    return K


# id -> (batch, K override or None, CHUNK override or None, splits)
CHUNK_CASES = {
    "kmax-one-below-a-chunk": (lambda: gt_batch("desharnais", "gt", 100),
                               kmax_of(lambda step: step - 1), None, False),
    "kmax-a-chunk": (lambda: gt_batch("desharnais", "gt", 100), kmax_of(lambda step: step),
                     None, False),
    "kmax-one-above-a-chunk": (lambda: gt_batch("desharnais", "gt", 100),
                               kmax_of(lambda step: step + 1), None, True),
    "kmax-two-chunks-and-one": (lambda: gt_batch("desharnais", "gt", 100),
                                kmax_of(lambda step: 2 * step + 1), None, True),
    "decoded-k": (lambda: gt_batch("desharnais", "gt", 100), None, None, True),
    "one-particle-past-the-first-chunk": (lambda: gt_batch("desharnais", "gt", 100),
                                          lone_particle, None, True),
    "all-k-equal": (lambda: gt_batch("maxwell", "gt_star", 100),
                    lambda ctx, K: np.full_like(K, 40), None, True),
    "k-one-everywhere": (lambda: gt_batch("desharnais", "gt", 100),
                         lambda ctx, K: np.ones_like(K), None, False),
    "pinned-weights": (lambda: gt_batch("desharnais", "gt_plus", 100), None, None, True),
    "maxwell": (lambda: gt_batch("maxwell", "gt", 100), None, None, True),
    "500-rows-one-rank-per-chunk": (lambda: gt_batch("desharnais", "gt", 500), None, None, True),
    "local": (lambda: lt_batch(100), None, None, False),
    # chunks of one rank would split this if p f = 1 did not forbid it
    "one-row-local": (lambda: lt_batch(1), lambda ctx, K: np.full_like(K, 59), 1, False),
    # desharnais has f = 77 folds: chunks of three and of four ranks
    "one-row-global": (lambda: gt_batch("desharnais", "gt", 1),
                       lambda ctx, K: np.full_like(K, 70), 3 * 77, True),
    "two-rows-one-alive": (lambda: gt_batch("desharnais", "gt", 2),
                           lambda ctx, K: np.array([1, 76]), 4 * 2 * 77, True),
    # chunks of ten ranks: one alive solution alone would sum them pairwise
    "local-split-one-alive": (lambda: lt_batch(3), lone_particle, 3 * 10, True),
}


class TestRankChunks:
    """`predict_batch` walks the ranks in chunks and skips each solution's
    ranks past its k; every prediction keeps the bits of the whole block."""

    @pytest.mark.parametrize("case", list(CHUNK_CASES))
    def test_chunks_keep_the_whole_blocks_bits(self, case, monkeypatch):
        batch, set_k, chunk, splits = CHUNK_CASES[case]
        ctx, K, masks, W = batch()
        if chunk is not None:
            monkeypatch.setattr(abe, "CHUNK", chunk)
        if set_k is not None:
            K = set_k(ctx, K)
        p, f = len(K), ctx.diffs.shape[2]
        assert (p * f > 1 and K.max() > chunk_step(ctx, p)) == splits
        want = ref.whole_block_predict(ctx, K, masks, W).tobytes()
        assert ctx.predict_batch(K, masks, W).tobytes() == want
        # again, over the buffers the first call left
        assert ctx.predict_batch(K, masks, W).tobytes() == want

    def test_a_global_batch_allocates_less_than_the_whole_block(self):
        ctx, K, masks, W = gt_batch("desharnais", "gt", 100)
        K[0] = ctx.diffs.shape[0]
        block = K.max() * len(K) * ctx.diffs.shape[2] * 8  # (kmax, p, f) floats
        tracemalloc.start()
        try:
            ctx.predict_batch(K, masks, W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block


def _spread(shape) -> np.ndarray:
    return 10.0 ** np.random.default_rng(1).uniform(0, 6, shape)


class TestNumpyRankSums:
    """The two facts about NumPy's sum over the leading axis of a C-ordered
    (r, q, f) block that the chunked kernel keeps bits by."""

    @pytest.mark.parametrize("shape", [(200, 2, 1), (200, 1, 2), (37, 3, 5), (9, 100, 77)])
    def test_two_or_more_per_rank_sum_left_to_right(self, shape):
        a = _spread(shape)
        acc = a[0].copy()
        for row in a[1:]:
            acc += row
        assert a.sum(axis=0).tobytes() == acc.tobytes()
        # a partial sum carried as row 0 continues it
        carried = np.concatenate([a[:5].sum(axis=0)[None], a[5:]])
        assert np.add.reduce(carried, axis=0).tobytes() == acc.tobytes()

    def test_one_per_rank_sums_pairwise(self):
        a = _spread((200, 1, 1))
        acc = a[0].copy()
        for row in a[1:]:
            acc += row
        assert a.sum(axis=0).tobytes() == np.array([[a.ravel().sum()]]).tobytes()
        assert a.sum(axis=0).tobytes() != acc.tobytes()


class TestAbe0Bytes:
    """ABE0 reads only the ranked efforts, never the adaptation kernel, so
    its k scan and predictions keep the bytes of engine 0.3.0."""

    def test_kemerer_predictions_pinned(self):
        k, preds = tuning.best_k_abe0(load_bundled("kemerer"))
        assert k == 4
        assert preds.tolist() == [
            177.125, 110.825, 249.5, 227.14999999999998, 403.0775, 77.0, 77.1,
            198.17499999999998, 219.875, 135.1, 184.2, 194.45, 183.725, 187.14999999999998,
            173.2]

    def test_scanned_k_pinned(self):
        want = {"albrecht": 1, "kemerer": 4, "nasa": 2, "telecom": 2, "desharnais": 7,
                "cocomo": 12, "china": 2, "maxwell": 3, "synthetic_small": 1}
        assert {name: tuning.best_k_abe0(load_bundled(name))[0] for name in want} == want
