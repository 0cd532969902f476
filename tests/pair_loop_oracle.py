"""Per-pair training and batch predict loops, kept as a reference for
`multiclass.train` and `multiclass.predict_batch`.

Training concatenates a pair's two class matrices and takes its features
from one `core.kl_features` call. Prediction takes each pair's features from
its own `core.kl_features` call over all rows, its decisions from
`decision_batch`, and accumulates votes and margin sums pair by pair. Sample
checks are left to the caller.
"""

from __future__ import annotations

import numpy as np

from cdfeat import core
from cdfeat.model import CdfModel, ClassProfile
from cdfeat.multiclass import DEFAULT_C, VoteRecord, fit_pairs, resolve_winner
from cdfeat.svm import DEFAULT_MAX_PASSES, DEFAULT_TOL, decision_batch


def profiles(dataset) -> list[ClassProfile]:
    """Each class's profile, as training builds it."""
    out = []
    for cid in range(dataset.num_classes):
        rows = dataset.class_matrix(cid)
        sums = core.class_sum(rows)
        out.append(ClassProfile(
            class_id=cid, sum_vec=sums, mean_vec=core.class_mean(sums, len(rows)),
            cardinality=len(rows),
        ))
    return out


def pair_training_data(dataset, ctx, cfg) -> tuple[np.ndarray, np.ndarray]:
    """One pair's features over class x's rows then class y's, and +/-1 labels."""
    rows_x = dataset.class_matrix(ctx.class_x)
    rows_y = dataset.class_matrix(ctx.class_y)
    features = core.kl_features(
        np.concatenate([rows_x, rows_y]), ctx.mask, ctx.ref_x, ctx.ref_y,
        cfg.feature_mode, cfg.smoothing_eps,
    )
    return features, np.concatenate([np.ones(len(rows_x)), -np.ones(len(rows_y))])


def train(dataset, cfg, kernel, c=DEFAULT_C, tol=DEFAULT_TOL,
          max_passes=DEFAULT_MAX_PASSES) -> CdfModel:
    """`multiclass.train` with every pair's features from `pair_training_data`."""
    profs = profiles(dataset)

    def pair_data(x, y):
        ctx = core.build_pair_context(profs[x], profs[y], cfg)
        return ctx, *pair_training_data(dataset, ctx, cfg)

    return CdfModel(
        config=cfg, kernel=kernel, c=c, tol=tol, max_passes=max_passes, seed=0,
        num_classes=dataset.num_classes, dim=dataset.dim, label_names=dataset.label_names,
        profiles=tuple(profs),
        pairs=fit_pairs(dataset.num_classes, pair_data, kernel, c, tol, max_passes),
    )


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
