"""The per-pair batch predict loop, kept as a reference for `predict_batch`.

Each pair's features come from its own `core.kl_features` call over all rows,
its decisions from `decision_batch`, and votes and margin sums accumulate
pair by pair. Sample checks are left to the caller.
"""

from __future__ import annotations

import numpy as np

from cdfeat import core
from cdfeat.multiclass import VoteRecord, resolve_winner
from cdfeat.svm import decision_batch


def pair_features(model, x) -> list[np.ndarray]:
    """One feature matrix per pair, in pair order."""
    mode = model.config.feature_mode
    eps = model.config.smoothing_eps
    return [
        core.kl_features(x, ctx.mask, ctx.ref_x, ctx.ref_y, mode, eps)
        for ctx, _ in model.pairs
    ]


def predict_batch(model, x) -> list[tuple[int, VoteRecord]]:
    """Vote every pair SVM on every row of `x`, one pair at a time."""
    x = np.asarray(x, dtype=float)
    n, m = x.shape[0], model.num_classes
    votes = np.zeros((n, m), dtype=np.int64)
    margins = np.zeros((n, m))
    rows = np.arange(n)
    for (ctx, svm), feats in zip(model.pairs, pair_features(model, x)):
        d = decision_batch(svm, feats)
        voted = np.where(d > 0, ctx.class_x, ctx.class_y)
        votes[rows, voted] += 1
        margins[rows, voted] += np.abs(d)
    out = []
    for v, s in zip(votes.tolist(), margins.tolist()):
        record = VoteRecord(votes=tuple(v), margin_sums=tuple(s), winner=resolve_winner(v, s))
        out.append((record.winner, record))
    return out
