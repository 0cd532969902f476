"""TF-IDF weighting baseline: smoothed idf fit plus L2-normalized transform.

The baseline classification path feeds the weighted vectors into the same
one-vs-one SVM stack used elsewhere, with no masking or KL extraction, so
comparisons against the class-dependent pipeline are apples to apples.

The one-vs-one model holds the training matrix, the resolved kernel and C
once; each pair SVM keeps the positions of its support vectors in the matrix
(`IndexedSvm`), not copies of them, so the model's memory is the matrix plus
one index and coefficient per support vector, where copies took up to m - 1
times the matrix. Prediction computes a sample's kernel values against the
matrix once and every pair's decision from them (`ovo_decisions`).

`fit_idf` and `transform` refuse a row with a component that is not finite
or is negative, and `ovo_decisions` a row with one that is not finite, by
the row's index (`model.check_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import check_rows, class_pairs
from .multiclass import DEFAULT_C, fit_pairs, vote
from .record import Record
from .svm import (
    DEFAULT_MAX_PASSES, DEFAULT_TOL, KernelSpec, check_solution, rowwise_kernel_matrix,
)


@dataclass(frozen=True, eq=False)
class TfIdfModel(Record):
    """Per-term inverse document frequencies fit on a training corpus."""

    idf: np.ndarray

    ARRAYS = {"idf": float}

    def __post_init__(self):
        super().__post_init__()
        if self.idf.ndim != 1:
            raise ValueError("idf must be a vector")
        if np.any(self.idf < 0):
            raise ValueError("idf values must be >= 0")

    @property
    def vocab_size(self) -> int:
        return self.idf.size


def fit_idf(train_vectors) -> TfIdfModel:
    """idf[t] = ln((1 + D) / (1 + df_t)) + 1 over the training count vectors."""
    mat = np.asarray(train_vectors, dtype=float)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError("fit_idf needs a non-empty 2-D count matrix")
    check_rows(mat)
    d = mat.shape[0]
    df = np.sum(mat > 0, axis=0)
    return TfIdfModel(idf=np.log((1.0 + d) / (1.0 + df)) + 1.0)


def transform(model: TfIdfModel, vectors) -> np.ndarray:
    """Weight counts by idf, then L2-normalize each row; zero rows stay zero."""
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != model.vocab_size:
        raise ValueError(
            f"vector length {mat.shape[-1] if mat.ndim else '?'} does not match "
            f"vocab_size {model.vocab_size}"
        )
    weighted = check_rows(mat) * model.idf
    norms = np.linalg.norm(weighted, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return weighted / safe[:, None]


@dataclass(frozen=True, eq=False)
class IndexedSvm(Record):
    """A trained pair SVM whose support vectors are rows of its model's
    training matrix: their positions `rows` in it, their alpha_i*y_i
    coefficients, and the solve's bias, iterations and final KKT gap. Its
    kernel and C are its `OvoSvmModel`'s, which checks it."""

    rows: np.ndarray
    coef: np.ndarray
    bias: float
    iterations: int
    kkt_violation_max: float

    ARRAYS = {"rows": np.int64, "coef": float}

    @property
    def support_vectors(self) -> np.ndarray:
        """One row of no features per support vector, so that code that counts
        an SVM's support vectors as `support_vectors.shape[0]` reads this kind
        too; it holds no bytes."""
        return np.empty((self.rows.size, 0))


@dataclass(frozen=True, eq=False)
class OvoSvmModel(Record):
    """One-vs-one SVMs trained directly on (weighted) feature vectors: the
    training matrix `x`, an `IndexedSvm` over its rows per class pair, and
    the kernel, resolved for the width of `x`, and C that every pair shares."""

    x: np.ndarray
    pairs: tuple  # ((class_x, class_y, IndexedSvm), ...) in `class_pairs` order
    num_classes: int
    kernel: KernelSpec
    c: float

    ARRAYS = {"x": float}

    def __post_init__(self):
        super().__post_init__()
        got = [(cx, cy) for cx, cy, _ in self.pairs]
        if got != class_pairs(self.num_classes):
            raise ValueError(
                f"pairs {got} are not the class pairs of {self.num_classes} classes in order"
            )
        if self.x.ndim != 2:
            raise ValueError(f"x must be a matrix, got shape {self.x.shape}")
        n = self.x.shape[0]
        for cx, cy, svm in self.pairs:
            if svm.rows.ndim != 1:
                raise ValueError(f"pair ({cx},{cy}): rows must be a vector, got {svm.rows.shape}")
            check_solution(svm, svm.rows.shape, self.c)
            if svm.rows.size and not (svm.rows.min() >= 0 and svm.rows.max() < n):
                raise ValueError(f"pair ({cx},{cy}): support-vector rows outside [0, {n})")


def train_ovo(
    x,
    y,
    num_classes: int,
    kernel: KernelSpec,
    c: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: int = 0,
) -> OvoSvmModel:
    """Fit one SVM per class pair on the raw feature rows.

    Labels must lie in [0, num_classes). The solves use no randomness; `seed`
    is accepted and unused.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    bad = np.flatnonzero((y < 0) | (y >= num_classes))
    if bad.size:
        raise ValueError(f"sample {bad[0]}: class id {y[bad[0]]} outside [0, {num_classes})")

    def pair_data(cx, cy):
        rows = np.flatnonzero((y == cx) | (y == cy))
        return (cx, cy, rows), x[rows], np.where(y[rows] == cx, 1.0, -1.0)

    def indexed(fitted):
        (cx, cy, rows), svm = fitted
        return cx, cy, IndexedSvm(
            rows=rows[svm.support_rows], coef=svm.coef, bias=svm.bias,
            iterations=svm.iterations, kkt_violation_max=svm.kkt_violation_max,
        )

    # map lets go of each solve once its IndexedSvm is built, so one pair's
    # copy of its support vectors is alive at a time.
    pairs = tuple(map(indexed, fit_pairs(num_classes, pair_data, kernel, c, tol, max_passes)))
    return OvoSvmModel(x=x, pairs=pairs, num_classes=num_classes,
                       kernel=kernel.resolve(x.shape[1]), c=float(c))


def ovo_decisions(model: OvoSvmModel, samples) -> np.ndarray:
    """The (n, pairs) decision matrix of a sample matrix, pairs in `class_pairs`
    order: the rows' kernel values against `model.x` once, then each pair's
    coefficients times its rows' values plus its bias. Every sum runs along
    one row, so a row's decisions have the same bits whatever the number of
    rows in the call."""
    samples = np.asarray(samples, dtype=float)
    x = model.x
    if samples.ndim != 2 or samples.shape[1] != x.shape[1]:
        raise ValueError(
            f"sample length {samples.shape[-1]} does not match the training rows ({x.shape[1]})"
        )
    k = rowwise_kernel_matrix(model.kernel, check_rows(samples, negative_ok=True), x)
    d = np.empty((samples.shape[0], len(model.pairs)))
    for p, (_, _, svm) in enumerate(model.pairs):
        # take, not k[:, rows], whose result is not C-contiguous: summed
        # along a strided axis, a row's bits would depend on the others.
        d[:, p] = (k.take(svm.rows, axis=1) * svm.coef).sum(axis=1) + svm.bias
    return d


def predict_ovo(model: OvoSvmModel, sample) -> int:
    """Vote the pair SVMs on one row: a one-row `ovo_decisions`, then `vote`."""
    d = ovo_decisions(model, np.asarray(sample, dtype=float)[None])
    return vote(d, model.num_classes)[0][0]
