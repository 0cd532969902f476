"""TF-IDF weighting baseline: smoothed idf fit plus L2-normalized transform.

The baseline classification path feeds the weighted vectors into the same
one-vs-one SVM stack used elsewhere, with no masking or KL extraction, so
comparisons against the class-dependent pipeline are apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import class_pairs
from .multiclass import DEFAULT_C, fit_pairs, vote
from .record import Record
from .svm import DEFAULT_MAX_PASSES, DEFAULT_TOL, KernelSpec, decision


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
    weighted = mat * model.idf
    norms = np.linalg.norm(weighted, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return weighted / safe[:, None]


@dataclass(frozen=True)
class OvoSvmModel:
    """One-vs-one SVMs trained directly on (weighted) feature vectors."""

    pairs: tuple  # ((class_x, class_y, SvmModel), ...) in `class_pairs` order
    num_classes: int

    def __post_init__(self):
        got = [(cx, cy) for cx, cy, _ in self.pairs]
        if got != class_pairs(self.num_classes):
            raise ValueError(
                f"pairs {got} are not the class pairs of {self.num_classes} classes in order"
            )


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    bad = np.flatnonzero((y < 0) | (y >= num_classes))
    if bad.size:
        raise ValueError(f"sample {bad[0]}: class id {y[bad[0]]} outside [0, {num_classes})")

    def pair_data(cx, cy):
        rows = np.flatnonzero((y == cx) | (y == cy))
        return (cx, cy), x[rows], np.where(y[rows] == cx, 1.0, -1.0)

    pairs = fit_pairs(num_classes, pair_data, kernel, c, tol, max_passes)
    return OvoSvmModel(pairs=tuple((*key, svm) for key, svm in pairs), num_classes=num_classes)


def predict_ovo(model: OvoSvmModel, sample) -> int:
    """Vote the pair SVMs on one row; scalar `decision` is faster than a
    one-row `decision_batch` here."""
    d = np.asarray([[decision(svm, sample) for _, _, svm in model.pairs]])
    return vote(d, model.num_classes)[0][0]
