"""The per-row scalar predict path, kept as a reference for the batch core.

Each sample is restricted and normalized on its own, its KL features come
from `kl_divergence`, a direct sum over the positive components (a reference
for `core.kl_divergence` and `core.whole_kl_features`), each pair SVM is
evaluated with `kernel_oracle.decision`, and votes and
margins accumulate in Python in pair order. A model that keeps its pairs as
decision polynomials takes the SVMs they came from as `svms`
(`pair_loop_oracle.train_keeping_svms`).
"""

from __future__ import annotations

import numpy as np

from cdfeat import core
from cdfeat.multiclass import VoteRecord
from kernel_oracle import decision


def kl_divergence(p, q, eps: float) -> float:
    """sum(p * ln(p / (q + eps))) over the components where p > 0, clamped at 0."""
    pos = p > 0
    return max(0.0, float(np.sum(p[pos] * np.log(p[pos] / (q[pos] + eps)))))


def sample_feature(sample, mask, ref_x, ref_y, feature_mode: str, eps: float) -> np.ndarray:
    """Feature vector for one raw sample, one `kl_divergence` call per reference."""
    p, _ = core.restrict_normalize(sample, mask)
    if feature_mode == "dual_kl":
        return np.asarray([kl_divergence(p, ref_x, eps), kl_divergence(p, ref_y, eps)])
    if feature_mode == "scalar_kl":
        return np.asarray([kl_divergence(p, ref_x, eps)])
    if feature_mode == "elementwise_kl":
        terms = np.zeros_like(p)
        pos = p > 0
        terms[pos] = p[pos] * np.log(p[pos] / (ref_x[pos] + eps))
        return terms
    raise ValueError(f"unknown feature_mode {feature_mode!r}")


def predict(model, sample, svms=None) -> tuple[int, VoteRecord]:
    """Vote every pair SVM on one sample, one pair at a time, with the pair
    SVMs `svms` (default: the model's own pairs)."""
    sample = np.asarray(sample, dtype=float)
    m = model.num_classes
    votes = [0] * m
    margins = [0.0] * m
    mode = model.config.feature_mode
    eps = model.config.smoothing_eps
    svms = [svm for _, svm in model.pairs] if svms is None else svms
    for (ctx, _), svm in zip(model.pairs, svms):
        feat = sample_feature(sample, ctx.mask, ctx.ref_x, ctx.ref_y, mode, eps)
        d = decision(svm, feat)
        voted = ctx.class_x if d > 0 else ctx.class_y
        votes[voted] += 1
        margins[voted] += abs(d)
    record = VoteRecord(votes=tuple(votes), margin_sums=tuple(margins))
    return record.winner, record
