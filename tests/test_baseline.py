import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cdfeat.baseline import (
    TfIdfModel,
    fit_idf,
    ovo_decisions,
    predict_ovo,
    train_ovo,
    transform,
)
from cdfeat.multiclass import vote
from cdfeat.svm import KernelSpec

import ovo_oracle
from conftest import gaussian_blobs


class TestFitIdf:
    def test_term_in_every_document(self):
        counts = np.ones((10, 1))
        model = fit_idf(counts)
        assert model.idf[0] == pytest.approx(1.0, abs=1e-15)

    def test_term_in_no_document(self):
        counts = np.zeros((10, 1))
        counts[:, 0] = 0.0
        model = fit_idf(counts)
        # ln(11/1) + 1
        assert model.idf[0] == pytest.approx(math.log(11.0) + 1.0, abs=1e-12)

    def test_single_document(self):
        model = fit_idf(np.asarray([[2.0, 0.0]]))
        assert model.idf[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit_idf(np.empty((0, 3)))

    def test_idf_non_increasing_in_df(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            docs = int(rng.integers(2, 30))
            terms = int(rng.integers(2, 20))
            counts = (rng.random((docs, terms)) > 0.5).astype(float)
            model = fit_idf(counts)
            df = np.sum(counts > 0, axis=0)
            order = np.argsort(df)
            sorted_idf = model.idf[order]
            assert np.all(np.diff(sorted_idf) <= 1e-12)

    def test_callers_array_stays_writable(self):
        idf = np.ones(3)
        model = TfIdfModel(idf)
        assert idf.flags.writeable and not model.idf.flags.writeable


class TestTransform:
    def test_zero_vector_stays_zero(self):
        model = fit_idf(np.asarray([[1.0, 1.0]]))
        out = transform(model, np.zeros((1, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_one_hot_becomes_unit(self):
        model = fit_idf(np.asarray([[1.0, 1.0, 0.0]]))
        out = transform(model, np.asarray([[0.0, 3.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-15)

    def test_uniform_idf_proportional_to_counts(self):
        model = TfIdfModel(idf=np.full(3, 2.0))
        counts = np.asarray([[1.0, 2.0, 2.0]])
        out = transform(model, counts)
        np.testing.assert_allclose(out, counts / np.linalg.norm(counts), atol=1e-15)

    def test_norms_are_one_or_zero(self):
        rng = np.random.default_rng(59)
        train = rng.integers(0, 4, size=(20, 12)).astype(float)
        model = fit_idf(train)
        vectors = rng.integers(0, 4, size=(30, 12)).astype(float)
        vectors[5] = 0.0
        out = transform(model, vectors)
        norms = np.linalg.norm(out, axis=1)
        for n in norms:
            assert n == pytest.approx(1.0, abs=1e-12) or n == 0.0

    def test_length_mismatch_rejected(self):
        model = fit_idf(np.ones((2, 3)))
        with pytest.raises(ValueError, match="does not match"):
            transform(model, np.ones((1, 4)))


class TestOvoBaselinePath:
    def test_separable_weighted_vectors_classified(self):
        x, y = gaussian_blobs(15, seed=61, dims=12, classes=3)
        idf = fit_idf(x)
        weighted = transform(idf, x)
        model = train_ovo(
            weighted, y, num_classes=3,
            kernel=KernelSpec(kind="polynomial", degree=2), c=10.0,
        )
        assert len(model.pairs) == 3
        preds = [predict_ovo(model, row) for row in weighted]
        assert preds == list(y)

    def test_pair_enumeration_order(self):
        x, y = gaussian_blobs(6, seed=62, dims=8, classes=4)
        model = train_ovo(x, y, 4, kernel=KernelSpec(kind="linear"))
        assert [(cx, cy) for cx, cy, _ in model.pairs] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    def test_model_holds_the_training_matrix_once(self):
        # A training row is a support vector in up to m - 1 pairs, so copies
        # of each pair's support vectors would take several times the matrix.
        # The model holds the caller's matrix and, per support vector, one
        # index and one coefficient.
        x, y = gaussian_blobs(20, seed=81, dims=500, classes=10, shift=2.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model = train_ovo(x, y, 10, KernelSpec(kind="polynomial", degree=2), c=10.0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(model.x, x)
        assert peak - start < x.nbytes
        assert held - start < 0.25 * x.nbytes
        counts = [s.support_vectors.shape[0] for _, _, s in model.pairs]
        assert counts == [s.rows.size for _, _, s in model.pairs] and sum(counts) > x.shape[0]
        assert sum(s.support_vectors.nbytes for _, _, s in model.pairs) == 0

    def test_pair_rows_outside_the_matrix_refused(self):
        x, y = gaussian_blobs(6, seed=62, dims=8, classes=3)
        model = train_ovo(x, y, 3, KernelSpec(kind="linear"))
        outside = r"pair \(0,2\): support-vector rows outside \[0, 12\)"
        with pytest.raises(ValueError, match=outside):
            replace(model, x=model.x[:12])
        svm = model.pairs[0][2]
        with pytest.raises(ValueError, match="one coefficient per support vector"):
            replace(svm, coef=svm.coef[:-1])
        with pytest.raises(ValueError, match="must share one kernel"):
            replace(model, pairs=(
                (0, 1, replace(svm, kernel=KernelSpec(kind="rbf", gamma=1.0))), *model.pairs[1:]
            ))

    def test_pairs_out_of_order_refused(self):
        # predict_ovo votes pair k for the classes of class_pairs(m)[k].
        x, y = gaussian_blobs(6, seed=62, dims=8, classes=3)
        model = train_ovo(x, y, 3, kernel=KernelSpec(kind="linear"))
        for pairs in (model.pairs[::-1], model.pairs[:2], ((1, 0, model.pairs[0][2]),)):
            with pytest.raises(ValueError, match="not the class pairs of 3 classes in order"):
                replace(model, pairs=pairs)


def svm_bits(svm, support_vectors):
    """Every field of a pair SVM, floats and arrays by their bits."""
    return (
        support_vectors.shape, support_vectors.tobytes(), svm.coef.tobytes(),
        float(svm.bias).hex(), svm.kernel, svm.c, svm.iterations,
        float(svm.kkt_violation_max).hex(),
    )


class TestSharedEngine:
    """train_ovo/predict_ovo against the baseline's own pair and vote loops."""

    @pytest.mark.parametrize("kind", ["linear", "polynomial", "rbf"])
    @pytest.mark.parametrize("classes", [2, 4])
    def test_models_and_winners_match_oracle(self, kind, classes):
        x, y = gaussian_blobs(10, seed=71, dims=12, classes=classes, shift=4.0)
        idf = fit_idf(x)
        weighted = transform(idf, x)
        kernel = KernelSpec(kind=kind)
        model = train_ovo(weighted, y, classes, kernel, c=10.0)
        want = ovo_oracle.train_ovo(weighted, y, classes, kernel, c=10.0)
        assert [(cx, cy) for cx, cy, _ in model.pairs] == [(cx, cy) for cx, cy, _ in want]
        # The model's support vectors are rows of its matrix, bit for bit the oracle's copies.
        assert ([svm_bits(s, model.x[s.rows]) for _, _, s in model.pairs]
                == [svm_bits(s, s.support_vectors) for _, _, s in want])

        probes = transform(idf, np.random.default_rng(5).random((40, 12)) * 5)
        batch = ovo_decisions(model, probes)
        winners = [winner for winner, _ in vote(batch, classes)]
        margin_ties = 0
        for row, d, batch_winner in zip(probes, batch, winners):
            # A row alone has the bits it has inside the batch.
            assert ovo_decisions(model, row[None]).tobytes() == d.tobytes()
            scalar = np.asarray(ovo_oracle.decisions(want, row))
            assert np.all(np.abs(d - scalar) <= 1e-12 * (1 + np.abs(scalar)))
            winner = predict_ovo(model, row)
            assert type(winner) is int
            assert winner == batch_winner == ovo_oracle.predict_ovo(want, classes, row)
            votes, _ = ovo_oracle.votes_and_margins(want, classes, row)
            margin_ties += votes.count(max(votes)) > 1 and winner != votes.index(max(votes))
        if classes == 4:
            assert margin_ties > 0  # some vote tie went to a higher class id on margin

    def test_pair_with_one_class_names_the_pair(self):
        x, y = gaussian_blobs(5, seed=72, dims=6, classes=2)
        with pytest.raises(ValueError, match=r"training failed for pair \(0,2\)"):
            train_ovo(x, y, 3, KernelSpec(kind="linear"))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_outside_classes_rejected(self, bad):
        # Pair selection by label equality would drop such rows silently.
        x, y = gaussian_blobs(3, seed=73, dims=4, classes=2)
        y = np.asarray(y)
        y[4] = bad
        with pytest.raises(ValueError, match=rf"sample 4: class id {bad} outside \[0, 2\)"):
            train_ovo(x, y, 2, KernelSpec(kind="linear"))

    @pytest.mark.parametrize("settings", [
        {"c": float("inf")}, {"tol": float("nan")}, {"tol": -1.0}, {"max_passes": 0},
    ])
    def test_bad_svm_settings_refused(self, settings):
        # Each would otherwise stop every pair at the iteration cap or after
        # one iteration and return a model.
        x, y = gaussian_blobs(5, seed=74, dims=4, classes=2)
        with pytest.raises(ValueError, match=next(iter(settings))):
            train_ovo(x, y, 2, KernelSpec(kind="linear"), **settings)
