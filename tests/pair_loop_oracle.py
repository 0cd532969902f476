"""Per-pair training and batch predict loops, kept as a reference for
`multiclass.train` and `multiclass.predict_batch`.

Training concatenates a pair's two class matrices and takes its features
from one `kl_features` call, which computes one pair's features of every
mode directly from the masked, normalized rows (a reference for
`core.whole_kl_features` and `core.kl_features`). Prediction takes each
pair's features from its own `kl_features` call over all rows, its decisions from
`decision_batch` or from the pair's stored polynomial, and accumulates votes
and margin sums pair by pair. Sample checks are left to the caller.

A model that keeps its pairs as decision polynomials (`svm.SvmForm`) no
longer holds the SVMs they came from; `train_keeping_svms` returns them
beside the model, and `form_decisions` evaluates the polynomials that
`svm.decision_forms` derives from them, the reference for the bits of the
stored forms.
"""

from __future__ import annotations

import numpy as np

from cdfeat import core, multiclass
from cdfeat.model import FEATURE_MODES, CdfModel, ClassProfile
from cdfeat.multiclass import DEFAULT_C, VoteRecord, fit_pairs, kept_pairs
from cdfeat.svm import (
    DEFAULT_MAX_PASSES, DEFAULT_TOL, SvmModel, decision_batch, decision_forms, monomials,
)


def kl_features(samples, mask, ref_x, ref_y, feature_mode: str, eps: float) -> np.ndarray:
    """One pair's feature rows in `feature_mode` over a sample matrix.

    A row whose masked total is zero becomes the uniform distribution over
    the mask; the masked KL terms use 0 * ln 0 = 0, and whole divergences
    are clamped at 0.
    """
    if feature_mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature_mode {feature_mode!r}")
    part = np.asarray(samples, dtype=float).take(mask, axis=1)
    totals = part.sum(axis=1)
    empty = totals <= 0
    part[empty] = 1.0 / part.shape[1]
    totals[empty] = 1.0
    p = part / totals[:, None]
    refs = (ref_x, ref_y) if feature_mode == "dual_kl" else (ref_x,)
    terms = [
        p * np.log(p / (ref + eps), out=np.zeros_like(p), where=p > 0) for ref in refs
    ]
    if feature_mode == "elementwise_kl":
        return terms[0]
    return np.stack([np.maximum(t.sum(axis=1), 0.0) for t in terms], axis=1)


def profiles(dataset) -> list[ClassProfile]:
    """Each class's profile, as training builds it."""
    out = []
    for cid in range(dataset.num_classes):
        rows = dataset.class_matrix(cid)
        out.append(ClassProfile(class_id=cid, sum_vec=core.class_sum(rows), cardinality=len(rows)))
    return out


def pair_training_data(dataset, ctx, cfg) -> tuple[np.ndarray, np.ndarray]:
    """One pair's features over class x's rows then class y's, and +/-1 labels."""
    rows_x = dataset.class_matrix(ctx.class_x)
    rows_y = dataset.class_matrix(ctx.class_y)
    features = kl_features(
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
        config=cfg, kernel=kernel, c=c, tol=tol, max_passes=max_passes,
        label_names=dataset.label_names,
        profiles=tuple(profs),
        pairs=kept_pairs(
            cfg, kernel, fit_pairs(dataset.num_classes, pair_data, kernel, c, tol, max_passes)
        ),
    )


def train_keeping_svms(*args, **kwargs) -> tuple:
    """`multiclass.train(*args, **kwargs)`, and the pair SVMs its `fit_pairs`
    returned, in pair order."""
    seen, keep = [], multiclass.kept_pairs

    def spy(cfg, kernel, fitted):
        seen.extend(svm for _, svm in fitted)
        return keep(cfg, kernel, fitted)

    multiclass.kept_pairs = spy
    try:
        model = multiclass.train(*args, **kwargs)
    finally:
        multiclass.kept_pairs = keep
    return model, tuple(seen)


def pair_features(model, x) -> list[np.ndarray]:
    """One feature matrix per pair, in pair order."""
    mode = model.config.feature_mode
    eps = model.config.smoothing_eps
    return [
        kl_features(x, ctx.mask, ctx.ref_x, ctx.ref_y, mode, eps)
        for ctx, _ in model.pairs
    ]


def evaluate(exponents, weights, bias, feats) -> np.ndarray:
    """Polynomials with these monomial `weights` (one row per monomial, the
    last axis one per polynomial) at `feats`, summed one monomial at a time."""
    d = np.empty(np.shape(feats)[:-1])
    d[:] = bias
    for w, mono in zip(weights, monomials(feats, exponents)):
        d += w if mono is None else w * mono
    return d


def pair_decision_batch(model, svm, feats) -> np.ndarray:
    """One pair's decisions at its feature rows: `decision_batch` for an
    `SvmModel`, the stored polynomial for an `SvmForm`."""
    if isinstance(svm, SvmModel):
        return decision_batch(svm, feats)
    return evaluate(model.form_exponents, svm.weights, svm.bias, feats)


def form_decisions(model, svms, x) -> np.ndarray:
    """The (n, pairs) decisions of `svm.decision_forms(svms)` at the rows of
    `x`, over the model's whole-KL features."""
    forms = decision_forms(svms)
    feats = core.whole_kl_features(x, model.kl_weights)
    return evaluate(forms.exponents, forms.weights, forms.bias, feats)


def predict_batch(model, x, svms=None) -> list[tuple[int, VoteRecord]]:
    """Vote every pair on every row of `x`, one pair at a time, with the
    pair SVMs `svms` (default: the model's own pairs)."""
    x = np.asarray(x, dtype=float)
    n, m = x.shape[0], model.num_classes
    votes = np.zeros((n, m), dtype=np.int64)
    margins = np.zeros((n, m))
    rows = np.arange(n)
    svms = [svm for _, svm in model.pairs] if svms is None else svms
    for (ctx, _), svm, feats in zip(model.pairs, svms, pair_features(model, x)):
        d = pair_decision_batch(model, svm, feats)
        voted = np.where(d > 0, ctx.class_x, ctx.class_y)
        votes[rows, voted] += 1
        margins[rows, voted] += np.abs(d)
    out = []
    for v, s in zip(votes.tolist(), margins.tolist()):
        record = VoteRecord(votes=tuple(v), margin_sums=tuple(s))
        out.append((record.winner, record))
    return out
