import warnings

import numpy as np
import pytest

from cdfeat.svm import (
    KERNEL_KINDS,
    MAX_DEGREE,
    GridCell,
    KernelSpec,
    SvmForm,
    SvmModel,
    check_svm_settings,
    cross_validate,
    decision,
    decision_batch,
    integer,
    kernel_matrix,
    real,
    smo_train,
    stratified_folds,
)
from cdfeat.model import CdfConfig
from cdfeat.multiclass import kept_pairs

import smo_oracle
import kernel_oracle
from kernel_oracle import kernel_eval
from qp_oracle import solve_svm_exact

LINEAR = KernelSpec(kind="linear")


def two_point_problem():
    x = np.asarray([[0.0], [2.0]])
    y = np.asarray([1.0, -1.0])
    return x, y


def ten_point_problem():
    x = np.asarray(
        [
            [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5],
            [4.0, 4.0], [5.0, 4.0], [4.0, 5.0], [5.0, 5.0], [4.5, 4.5],
        ]
    )
    y = np.asarray([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0])
    return x, y


def kernel_value(spec, u, v) -> float:
    """`kernel_matrix` on one vector pair; it must agree with the oracle."""
    value = kernel_matrix(spec, [u], [v])[0, 0]
    assert value == kernel_eval(spec, u, v)
    return value


class TestKernels:
    def test_polynomial_hand_value(self):
        spec = KernelSpec(kind="polynomial", degree=2, gamma=1.0, coef0=1.0)
        assert kernel_value(spec, [1.0, 0.0], [1.0, 0.0]) == 4.0

    def test_rbf_zero_distance(self):
        spec = KernelSpec(kind="rbf", gamma=0.7)
        assert kernel_value(spec, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_linear_orthogonal(self):
        assert kernel_value(LINEAR, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_length_mismatch(self):
        for kernel in (kernel_matrix, kernel_eval):
            with pytest.raises(ValueError, match="length"):
                kernel(LINEAR, [[1.0]], [[1.0, 2.0]])

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(4, 3))
        for spec in (
            LINEAR,
            KernelSpec(kind="polynomial", degree=3, gamma=0.5, coef0=1.0),
            KernelSpec(kind="rbf", gamma=0.3),
        ):
            mat = kernel_matrix(spec, a, b)
            for i in range(6):
                for j in range(4):
                    assert abs(mat[i, j] - kernel_eval(spec, a[i], b[j])) < 1e-12

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            KernelSpec(kind="polynomial", degree=0)
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec(kind="rbf", gamma=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("degree", 2.5), ("degree", True), ("degree", "2"), ("gamma", True),
        ("gamma", "0.5"), ("gamma", float("nan")), ("gamma", float("inf")),
        ("coef0", "1"), ("coef0", False), ("coef0", float("nan")), ("coef0", float("-inf")),
    ])
    def test_mistyped_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            KernelSpec(kind="polynomial", **{field: value})

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_degree_bounds_hold_for_every_kind(self, kind):
        assert KernelSpec(kind=kind, degree=MAX_DEGREE).degree == MAX_DEGREE
        for degree in (0, MAX_DEGREE + 1):
            with pytest.raises(ValueError, match=f"degree must be an integer >= 1 and <= "
                                                 f"{MAX_DEGREE}, got {degree}"):
                KernelSpec(kind=kind, degree=degree)

    def test_int_beyond_float_range_refused(self):
        # float(10**400) raises OverflowError; the checker reports it as not finite.
        with pytest.raises(ValueError, match="coef0 must be a finite real"):
            KernelSpec("polynomial", coef0=10**400)
        with pytest.raises(ValueError, match="c must be a finite real > 0"):
            check_svm_settings(10**400, 1e-3, 10)

    def test_numpy_scalars_accepted(self):
        spec = KernelSpec(kind="polynomial", degree=np.int64(3), gamma=np.float32(0.5),
                          coef0=np.float64(-1.0))
        assert (spec.degree, spec.gamma, spec.coef0) == (3, 0.5, -1.0)
        assert KernelSpec(kind="linear", coef0=0).coef0 == 0

    def test_gamma_auto_resolution(self):
        spec = KernelSpec(kind="polynomial", degree=2, gamma=None)
        assert spec.resolve(4).gamma == 0.25


class TestSmoTwoPoint:
    # Hand solution: alpha = (0.5, 0.5), w = -1, b = 1, boundary at x = 1.
    def test_hand_solved_model(self):
        x, y = two_point_problem()
        model = smo_train(x, y, c=1000.0, spec=LINEAR)
        assert abs(decision(model, [1.0])) <= 1e-3
        assert decision(model, [0.0]) > 0
        assert decision(model, [2.0]) < 0
        np.testing.assert_allclose(np.abs(model.coef), 0.5, atol=1e-6)
        assert abs(model.bias - 1.0) <= 1e-3

    def test_matches_enumeration_oracle(self):
        x, y = two_point_problem()
        model = smo_train(x, y, c=1000.0, spec=LINEAR)
        oracle = solve_svm_exact(x, y, 1000.0, LINEAR)
        for probe in ([0.0], [0.5], [1.0], [1.5], [2.0]):
            assert abs(decision(model, probe) - oracle.decision(probe)) <= 1e-3

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="each label"):
            smo_train([[0.0], [1.0]], [1.0, 1.0], c=1.0, spec=LINEAR)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            smo_train([[np.nan], [1.0]], [1.0, -1.0], c=1.0, spec=LINEAR)
        # Finite inputs whose kernel overflows float64: refused by name,
        # without a numpy warning.
        for spec in (KernelSpec("polynomial", degree=2, gamma=1.0), LINEAR,
                     KernelSpec("rbf", gamma=1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="kernel values overflow float64"):
                    smo_train([[1e200], [-1e200], [3e199]], [1, -1, 1], 1.0, spec)


class TestSmoTenPoint:
    def test_classifies_like_oracle(self):
        x, y = ten_point_problem()
        model = smo_train(x, y, c=1000.0, spec=LINEAR)
        oracle = solve_svm_exact(x, y, 1000.0, LINEAR)
        got = np.sign(decision_batch(model, x))
        want = np.sign([oracle.decision(row) for row in x])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, y)

    def test_decision_values_close_to_oracle(self):
        x, y = ten_point_problem()
        model = smo_train(x, y, c=1000.0, spec=LINEAR)
        oracle = solve_svm_exact(x, y, 1000.0, LINEAR)
        rng = np.random.default_rng(8)
        probes = np.vstack([x, rng.uniform(-1, 6, size=(20, 2))])
        for probe in probes:
            assert abs(decision(model, probe) - oracle.decision(probe)) <= 1e-3

    def test_margin_width_close_to_oracle(self):
        x, y = ten_point_problem()
        model = smo_train(x, y, c=1000.0, spec=LINEAR)
        w = model.coef @ model.support_vectors
        margin = 2.0 / np.linalg.norm(w)
        oracle = solve_svm_exact(x, y, 1000.0, LINEAR)
        assert abs(margin - oracle.margin_width()) <= 1e-3


class TestSmoProperties:
    def _random_problem(self, rng, n=16, dim=3, separate=2.5):
        half = n // 2
        x = np.vstack(
            [
                rng.normal(0.0, 1.0, size=(half, dim)),
                rng.normal(separate, 1.0, size=(n - half, dim)),
            ]
        )
        y = np.concatenate([np.ones(half), -np.ones(n - half)])
        return x, y

    def test_box_and_equality_constraints(self):
        rng = np.random.default_rng(13)
        for c in (0.1, 1.0, 10.0):
            x, y = self._random_problem(rng)
            model = smo_train(x, y, c=c, spec=LINEAR)
            assert np.all(np.abs(model.coef) <= c + 1e-9)
            assert abs(float(np.sum(model.coef))) <= 1e-6

    def test_free_support_vectors_sit_on_margin(self):
        rng = np.random.default_rng(14)
        tol = 1e-3
        for _ in range(10):
            x, y = self._random_problem(rng, separate=1.5)
            model = smo_train(x, y, c=1.0, spec=LINEAR, tol=tol)
            alphas = np.abs(model.coef)
            free = (alphas > 1e-9) & (alphas < 1.0 - 1e-9)
            for sv, coef in zip(model.support_vectors[free], model.coef[free]):
                label = np.sign(coef)
                assert abs(decision(model, sv) - label) <= tol

    def test_doubling_c_keeps_separable_signs(self):
        rng = np.random.default_rng(15)
        x, y = self._random_problem(rng, separate=5.0)
        m1 = smo_train(x, y, c=10.0, spec=LINEAR)
        m2 = smo_train(x, y, c=20.0, spec=LINEAR)
        np.testing.assert_array_equal(
            np.sign(decision_batch(m1, x)), np.sign(decision_batch(m2, x))
        )

    def test_sample_order_invariance(self):
        # Solve tightly so both orderings approach the unique optimum; the
        # contract is order invariance within 1e-3, not stopping slack.
        rng = np.random.default_rng(16)
        x, y = self._random_problem(rng, n=20, separate=3.0)
        probes = rng.normal(1.0, 2.0, size=(15, 3))
        base = smo_train(x, y, c=1.0, spec=LINEAR, tol=1e-6, max_passes=100)
        for _ in range(5):
            perm = rng.permutation(len(y))
            shuffled = smo_train(x[perm], y[perm], c=1.0, spec=LINEAR,
                                 tol=1e-6, max_passes=100)
            d1 = decision_batch(base, probes)
            d2 = decision_batch(shuffled, probes)
            np.testing.assert_allclose(d1, d2, rtol=0, atol=1e-3)

    def test_deterministic_retrain(self):
        rng = np.random.default_rng(17)
        x, y = self._random_problem(rng)
        a = smo_train(x, y, c=1.0, spec=KernelSpec(kind="rbf", gamma=0.5))
        b = smo_train(x, y, c=1.0, spec=KernelSpec(kind="rbf", gamma=0.5))
        assert a == b

    def test_lru_row_cache_matches_full_gram(self, monkeypatch):
        # Row-wise kernel evaluation can differ from blocked GEMM by an ulp,
        # so compare the trained classifiers, not the solver trajectories.
        import cdfeat.svm as svm_mod

        rng = np.random.default_rng(18)
        x, y = self._random_problem(rng, n=40, separate=2.0)
        probes = rng.normal(1.0, 2.0, size=(25, 3))
        full = smo_train(x, y, c=1.0, spec=LINEAR, tol=1e-6, max_passes=100)
        monkeypatch.setattr(svm_mod, "FULL_GRAM_LIMIT", 8)
        # Tiny byte budget forces LRU evictions on every row fetch.
        monkeypatch.setattr(svm_mod, "DEFAULT_CACHE_BYTES", 40 * 8 * 4)
        cached = smo_train(x, y, c=1.0, spec=LINEAR, tol=1e-6, max_passes=100)
        np.testing.assert_allclose(
            decision_batch(cached, probes), decision_batch(full, probes),
            rtol=0, atol=1e-3,
        )
        # Each cache mode on its own is run-to-run deterministic.
        again = smo_train(x, y, c=1.0, spec=LINEAR, tol=1e-6, max_passes=100)
        assert again == cached

    def test_full_gram_fits_the_cache_budget(self):
        # The largest full Gram, n x n float64, is the largest within the budget.
        import cdfeat.svm as svm_mod

        limit, budget = svm_mod.FULL_GRAM_LIMIT, svm_mod.DEFAULT_CACHE_BYTES
        assert limit**2 * 8 <= budget < (limit + 1) ** 2 * 8

    def test_row_cache_holds_at_most_its_budget(self, monkeypatch):
        import cdfeat.svm as svm_mod

        accessors = []
        kernel_rows = svm_mod._kernel_rows

        def recording(spec, x):
            accessors.append(kernel_rows(spec, x))
            return accessors[-1]

        monkeypatch.setattr(svm_mod, "_kernel_rows", recording)
        monkeypatch.setattr(svm_mod, "FULL_GRAM_LIMIT", 8)
        rng = np.random.default_rng(19)
        x, y = self._random_problem(rng, n=40, separate=1.0)
        for budget in (8 * 40 * 5, 8 * 40 * 5 + 8 * 39, 8):
            monkeypatch.setattr(svm_mod, "DEFAULT_CACHE_BYTES", budget)
            model = smo_train(x, y, c=10.0, spec=LINEAR, max_passes=100)
            info = accessors[-1].cache_info()
            assert info.maxsize == max(2, budget // (8 * 40)), budget
            assert model.iterations > info.maxsize
            assert 0 < info.currsize <= info.maxsize
            assert info.misses > info.maxsize  # rows were evicted and computed again

    def test_full_gram_computed_once_per_solve(self, monkeypatch):
        import cdfeat.svm as svm_mod

        shapes = []

        def counting(spec, a, b):
            shapes.append((a.shape, b.shape))
            return kernel_matrix(spec, a, b)

        monkeypatch.setattr(svm_mod, "kernel_matrix", counting)
        rng = np.random.default_rng(20)
        x, y = self._random_problem(rng, n=40, separate=1.0)
        for limit in (40, svm_mod.FULL_GRAM_LIMIT):
            monkeypatch.setattr(svm_mod, "FULL_GRAM_LIMIT", limit)
            shapes.clear()
            model = smo_train(x, y, c=10.0, spec=LINEAR, max_passes=100)
            assert model.iterations > 1
            assert shapes == [((40, 3), (40, 3))]


class TestSmoAgainstOracle:
    """smo_train must return the oracle's model bit for bit, capped solves too."""

    KERNELS = {
        "linear": LINEAR,
        "polynomial": KernelSpec(kind="polynomial", degree=2),
        "rbf": KernelSpec(kind="rbf", gamma=0.5),
    }

    @staticmethod
    def _bits(v):
        return np.float64(v).tobytes()

    @pytest.mark.parametrize("gram", ["full", "lru"])
    @pytest.mark.parametrize("kind", ["linear", "polynomial", "rbf"])
    def test_same_model_bits(self, kind, gram, monkeypatch):
        import cdfeat.svm as svm_mod

        if gram == "lru":
            monkeypatch.setattr(svm_mod, "FULL_GRAM_LIMIT", 4)
            # A few rows: evictions every step.
            monkeypatch.setattr(svm_mod, "DEFAULT_CACHE_BYTES", 8 * 64 * 3)
        rng = np.random.default_rng(list(self.KERNELS).index(kind))
        capped = 0
        for c in (0.01, 1.0, 10.0, 1000.0):
            for max_passes in (1, 2, 10):
                for k in range(5):
                    n = int(rng.integers(4, 50))
                    dim = int(rng.integers(1, 6))
                    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
                    y[:2] = (1.0, -1.0)
                    x = rng.normal(size=(n, dim)) + rng.uniform(0.0, 3.0) * (y > 0)[:, None]
                    if k == 0:
                        # Small integer values make exact zeros in the gradient.
                        x = np.round(x)
                    got = smo_train(x, y, c, self.KERNELS[kind], max_passes=max_passes)
                    want = smo_oracle.smo_train(x, y, c, self.KERNELS[kind],
                                                max_passes=max_passes)
                    label = (c, max_passes, k)
                    assert got == want, label
                    assert self._bits(got.bias) == self._bits(want.bias), label
                    assert (self._bits(got.kkt_violation_max)
                            == self._bits(want.kkt_violation_max)), label
                    capped += got.iterations == max_passes * n
        assert capped >= 10

    def _assert_same_bits(self, x, y, c, spec, max_passes=10):
        got = smo_train(x, y, c, spec, max_passes=max_passes)
        want = smo_oracle.smo_train(x, y, c, spec, max_passes=max_passes)
        assert got == want
        assert got.coef.tobytes() == want.coef.tobytes()
        assert self._bits(got.bias) == self._bits(want.bias)
        assert self._bits(got.kkt_violation_max) == self._bits(want.kkt_violation_max)
        assert got.iterations == want.iterations
        return got

    def test_nonpositive_curvature_branch(self):
        # quad <= 0: a duplicated row with the opposite label under the linear
        # kernel, and all-zero rows, give K_ii + K_jj - 2 K_ij = 0.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(12, 3))
        x[6:] = x[:6]
        y = np.asarray([1.0, -1.0] * 3 + [-1.0, 1.0] * 3)
        zeros = np.vstack([np.zeros((4, 2)), rng.normal(size=(6, 2))])
        y_zeros = np.asarray([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        for c in (0.5, 10.0):
            for max_passes in (1, 10):
                self._assert_same_bits(x, y, c, LINEAR, max_passes)
                self._assert_same_bits(zeros, y_zeros, c, LINEAR, max_passes)
        # Only zero rows: every step has quad = 0, and the gradient stays at -1.
        self._assert_same_bits(np.zeros((6, 2)), np.asarray([1.0, -1.0] * 3), 1.0, LINEAR)

    def test_bench_sized_dual_kl_shape(self):
        # n = 240 rows of two non-negative KL-like features, as a dual_kl pair
        # of two 120-row classes gives them; polynomial degree 2 and C = 10.
        rng = np.random.default_rng(22)
        poly2 = KernelSpec(kind="polynomial", degree=2)
        y = np.repeat([1.0, -1.0], 120)
        capped = 0
        for spread, max_passes in ((0.3, 10), (1.0, 10), (1.0, 1)):
            center = np.where(y[:, None] > 0, [0.2, 0.8], [0.8, 0.2])
            x = np.abs(center + spread * rng.standard_normal((240, 2)))
            got = self._assert_same_bits(x, y, 10.0, poly2, max_passes)
            capped += got.iterations == max_passes * 240
        assert capped >= 1

    def test_signed_zero_bias_and_gap(self):
        # Exact cancellations: the oracle's bias and its gap are -0.0 here.
        for x, y, c, max_passes in (
            ([[-1.0], [-0.5], [-1.0]], [1.0, -1.0, 1.0], 2.0, 2),
            ([[0.5], [-0.5], [0.5], [-0.5]], [1.0, -1.0, 1.0, -1.0], 2.0, 10),
        ):
            self._assert_same_bits(x, y, c, LINEAR, max_passes)


class TestStratifiedFolds:
    def test_round_robin_counts(self):
        y = np.asarray([0] * 7 + [1] * 5)
        folds = stratified_folds(y, 3, seed=1)
        assert sorted(np.concatenate(folds).tolist()) == list(range(12))
        for fold in folds:
            labels = y[fold]
            assert np.sum(labels == 0) in (2, 3)
            assert np.sum(labels == 1) in (1, 2)

    def test_folds_exceeding_class_size_rejected(self):
        y = np.asarray([0, 0, 0, 1, 1])
        with pytest.raises(ValueError, match="smallest class"):
            stratified_folds(y, 3, seed=0)

    @pytest.mark.parametrize("folds", [2.5, 1, True, "2"])
    def test_folds_must_be_an_integer_of_at_least_two(self, folds):
        y = np.asarray([0] * 4 + [1] * 4)
        with pytest.raises(ValueError, match="folds must be an integer >= 2"):
            stratified_folds(y, folds, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        y = np.asarray([0] * 4 + [1] * 4)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            stratified_folds(y, 2, seed=seed)
        assert len(stratified_folds(y, 2, seed=np.int64(0))) == 2

    def test_seed_determinism(self):
        y = np.asarray([0] * 10 + [1] * 10)
        a = stratified_folds(y, 4, seed=9)
        b = stratified_folds(y, 4, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)


def binary_svm_trainer():
    """Plain two-class SVM trainer for cross_validate; ignores b/b_prime."""

    def trainer(x_train, y_train, cell: GridCell):
        classes = np.unique(y_train)
        if classes.size != 2:
            raise ValueError("binary_svm_trainer needs exactly two classes")
        pm = np.where(y_train == classes[1], 1.0, -1.0)
        model = smo_train(x_train, pm, cell.c, cell.kernel)

        def predict(x_eval):
            d = decision_batch(model, x_eval)
            return np.where(d > 0, classes[1], classes[0])

        return predict

    return trainer


class TestCrossValidate:
    def _data(self):
        rng = np.random.default_rng(23)
        x = np.vstack(
            [rng.normal(0, 1, size=(20, 2)), rng.normal(6, 1, size=(20, 2))]
        )
        y = np.asarray([0] * 20 + [1] * 20)
        return x, y

    def test_singleton_grid(self):
        x, y = self._data()
        grid = [GridCell(c=1.0, kernel=LINEAR)]
        result = cross_validate(x, y, grid, folds=4, seed=3, trainer=binary_svm_trainer())
        assert result.best == grid[0]
        assert len(result.table) == 1

    def test_separable_reaches_perfect_cell(self):
        x, y = self._data()
        grid = [
            GridCell(c=c, kernel=LINEAR) for c in (0.1, 1.0, 10.0, 100.0)
        ]
        result = cross_validate(x, y, grid, folds=4, seed=3, trainer=binary_svm_trainer())
        accs = dict(result.table)
        assert accs[result.best] == 1.0

    def test_bitwise_determinism(self):
        x, y = self._data()
        grid = [GridCell(c=c, kernel=LINEAR) for c in (0.5, 5.0)]
        r1 = cross_validate(x, y, grid, folds=4, seed=11, trainer=binary_svm_trainer())
        r2 = cross_validate(x, y, grid, folds=4, seed=11, trainer=binary_svm_trainer())
        assert r1.best == r2.best
        assert r1.table == r2.table

    def test_tie_prefers_first_cell(self):
        x, y = self._data()
        grid = [GridCell(c=10.0, kernel=LINEAR), GridCell(c=10.0, kernel=LINEAR, b=2.0)]
        result = cross_validate(x, y, grid, folds=4, seed=3, trainer=binary_svm_trainer())
        assert result.best is grid[0]

    def test_empty_grid_rejected(self):
        x, y = self._data()
        with pytest.raises(ValueError, match="non-empty"):
            cross_validate(x, y, [], folds=4, seed=0, trainer=binary_svm_trainer())

    @pytest.mark.parametrize("shape", ["scalar", "column"])
    def test_prediction_of_another_shape_rejected(self, shape):
        # Either would broadcast against the labels into an accuracy of 0.5.
        x, y = self._data()

        def trainer(x_train, y_train, cell):
            if shape == "scalar":
                return lambda x_eval: 1
            return lambda x_eval: np.ones((len(x_eval), 1))

        with pytest.raises(ValueError, match="validation labels"):
            cross_validate(x, y, [GridCell(c=1.0, kernel=LINEAR)], folds=4, seed=0, trainer=trainer)

    def test_trainer_sees_each_folds_cells_grouped_by_b(self):
        x, y = self._data()
        grid = [GridCell(c=c, kernel=LINEAR, b=b) for c in (1.0, 10.0) for b in (0.5, 2.0)]
        seen = []
        inner = binary_svm_trainer()

        def trainer(x_train, y_train, cell):
            seen.append((x_train, grid.index(cell)))
            assert not x_train.flags.writeable
            return inner(x_train, y_train, cell)

        cross_validate(x, y, grid, folds=2, seed=0, trainer=trainer)
        assert [k for _, k in seen] == [0, 2, 1, 3] * 2
        # One train slice per fold, shared by its cells.
        assert all(seen[i][0] is seen[i // 4 * 4][0] for i in range(8))


class TestDecisionBatch:
    @pytest.mark.parametrize("kind", ["linear", "polynomial", "rbf"])
    @pytest.mark.parametrize("dim", [2, 300])
    def test_row_value_independent_of_batch_size(self, kind, dim):
        rng = np.random.default_rng(dim)
        coef = rng.uniform(-1.0, 1.0, size=57)
        coef -= coef.mean()
        spec = KernelSpec(kind=kind).resolve(dim)
        model = SvmModel(
            support_vectors=rng.normal(size=(57, dim)), coef=coef, bias=0.25,
            kernel=spec, c=2.0, iterations=1, kkt_violation_max=0.0,
        )
        x = rng.normal(size=(40, dim))
        full = decision_batch(model, x)
        for i in range(len(x)):
            assert decision_batch(model, x[i : i + 1])[0] == full[i], f"row {i}"
            assert np.float64(decision(model, x[i])).tobytes() == full[i].tobytes(), f"row {i}"
            want = kernel_oracle.decision(model, x[i])
            assert abs(full[i] - want) <= 1e-9 * max(1.0, abs(want))


class TestSvmModelInvariants:
    def test_equality_constraint_checked(self):
        with pytest.raises(ValueError, match="equality"):
            SvmModel(
                support_vectors=np.asarray([[0.0], [1.0]]),
                coef=np.asarray([0.5, -0.3]),
                bias=0.0,
                kernel=LINEAR,
                c=1.0,
                iterations=1,
                kkt_violation_max=0.0,
            )

    def test_box_constraint_checked(self):
        with pytest.raises(ValueError, match="box"):
            SvmModel(
                support_vectors=np.asarray([[0.0], [1.0]]),
                coef=np.asarray([2.0, -2.0]),
                bias=0.0,
                kernel=LINEAR,
                c=1.0,
                iterations=1,
                kkt_violation_max=0.0,
            )

    @pytest.mark.parametrize("c, iterations, message", [
        (float("nan"), 0, r"^c must be a finite real > 0, got nan$"),
        (0.0, 0, r"^c must be a finite real > 0, got 0.0$"),
        ("1", 0, r"^c must be a finite real > 0, got '1'$"),
        (1.0, -3, r"^iterations must be an integer >= 0, got -3$"),
        (1.0, 2.5, r"^iterations must be an integer >= 0, got 2.5$"),
    ])
    def test_settings_checked(self, c, iterations, message):
        # Without support vectors the box check passes vacuously.
        with pytest.raises(ValueError, match=message):
            SvmModel(np.empty((0, 1)), np.empty(0), 0.0, LINEAR, c, iterations, 0.0)

    def test_callers_arrays_stay_writable(self):
        sv = np.zeros((2, 1))
        co = np.asarray([1.0, -1.0])
        model = SvmModel(sv, co, 0.0, LINEAR, 1.0, 0, 0.0)
        assert sv.flags.writeable and co.flags.writeable
        assert not model.support_vectors.flags.writeable
        assert not model.coef.flags.writeable


class TestSvmForm:
    def test_columns_of_one_decision_forms_call(self):
        spec = KernelSpec("polynomial", degree=2, gamma=0.5)
        svms = [
            SvmModel(np.asarray([[1.0, 2.0], [3.0, 1.0]]), np.asarray([0.5, -0.5]), 0.25,
                     spec, 1.0, 7, 1e-4),
            SvmModel(np.empty((0, 2)), np.empty(0), -1.5, spec, 1.0, 0, 2.0),
        ]
        # kept_pairs passes each pair's context through as it is.
        contexts, forms = zip(*kept_pairs(CdfConfig(), spec, [("a", svms[0]), ("b", svms[1])]))
        assert contexts == ("a", "b")
        assert [f.weights.size for f in forms] == [6, 6]
        np.testing.assert_array_equal(forms[1].weights, 0.0)
        assert [(f.bias, f.support_count, f.iterations, f.kkt_violation_max) for f in forms] == [
            (0.25, 2, 7, 1e-4), (-1.5, 0, 0, 2.0)]
        assert [f.support_vectors.shape for f in forms] == [(2, 0), (0, 0)]

    @pytest.mark.parametrize("field, value, message", [
        ("weights", [1.0, float("nan")], "weights must be a list of finite reals"),
        ("weights", [[1.0], [2.0]], "weights must be a list of finite reals"),
        ("bias", float("inf"), "bias must be a finite real"),
        ("support_count", -1, "support_count must be an integer >= 0"),
        ("support_count", 2.0, "support_count must be an integer >= 0"),
        ("iterations", True, "iterations must be an integer >= 0"),
        ("kkt_violation_max", "0", "kkt_violation_max must be a finite real"),
    ])
    def test_fields_checked(self, field, value, message):
        good = dict(weights=[0.5, -1.0], bias=0.0, support_count=2, iterations=3,
                    kkt_violation_max=0.0)
        SvmForm(**good)
        with pytest.raises(ValueError, match=message):
            SvmForm(**{**good, field: value})


class TestKernelOverflow:
    @pytest.mark.parametrize("kind", ["linear", "polynomial", "rbf"])
    def test_refused_by_name_without_a_warning(self, kind):
        spec = KernelSpec(kind, gamma=None if kind == "linear" else 1.0)
        big = np.asarray([[1e200, 1.0], [-1e200, 2.0]])
        model = SvmModel(big, np.asarray([0.5, -0.5]), 0.0, spec, 1.0, 1, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: kernel_matrix(spec, big, big),
                         lambda: decision_batch(model, big), lambda: decision(model, big[0])):
                with pytest.raises(ValueError, match="^kernel values overflow float64 under "):
                    call()


class TestCheckers:
    @pytest.mark.parametrize("value", [3, np.float32(0.5), np.int64(-2), 2**1000, 1e-300])
    def test_real_returns_the_python_float(self, value):
        got = real("x", value)
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value", [10**400, -10**400, float("nan"), float("-inf"),
                                       np.float64("inf"), True, np.True_, "1", None, 1j])
    def test_real_refuses_what_is_not_a_finite_real(self, value):
        with pytest.raises(ValueError, match=r"^x must be a finite real, got "):
            real("x", value)

    def test_real_bound_is_strict(self):
        assert real("x", 1e-300, 0) == 1e-300
        for value in (0, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"^x must be a finite real > 0, got {value!r}$"):
                real("x", value, 0)

    def test_integer_returns_the_python_int(self):
        for value in (np.int64(3), np.uint8(3), 3):
            got = integer("n", value, 1, 3)
            assert type(got) is int and got == 3
        assert integer("n", 10**400, 0) == 10**400

    @pytest.mark.parametrize("value", [0, 4, 2.0, 2.5, True, np.bool_(True), "2", None])
    def test_integer_refuses_what_is_not_an_integer_in_range(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1 and <= 3, got "):
            integer("n", value, 1, 3)
        if not isinstance(value, int) or isinstance(value, bool):
            with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
                integer("n", value, 1)
