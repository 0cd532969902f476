import math

import numpy as np
import pytest

from cdfeat.baseline import (
    TfIdfModel,
    fit_idf,
    predict_ovo,
    train_ovo,
    transform,
)
from cdfeat.svm import KernelSpec

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
        model = TfIdfModel(idf, 3, 1)
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
        model = TfIdfModel(idf=np.full(3, 2.0), vocab_size=3, doc_count=4)
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
