"""One-vs-one engine (`fit_pairs`, `vote`), shared with the TF-IDF baseline.

`fit_pairs` hands back each pair's `svm.SvmModel` as the pair is fitted, and
its caller keeps what it needs: `train` the pairs `kept_pairs` gives, the
baseline one `baseline.IndexedSvm` per pair. Training builds every pair's
context from the class profiles, whose ids are their places in the list, and
every `core.KlWeights` with `core.pair_kl_weights`.

Prediction handles every pair in one pass over the sample matrix: the
features of all pairs, then an (n, pairs) decision matrix (`pair_decisions`),
then one vote and margin accumulation in pair order. With a linear or
polynomial kernel under dual_kl or scalar_kl features, training keeps each
pair SVM as its decision polynomial (`svm.SvmForm`, see `model`), all built
by one `svm.decision_forms` call, and the decision matrix comes from the
model's `decision_forms`, every pair's stored polynomial evaluated at once;
with an rbf kernel or elementwise_kl features, training keeps each pair's
`svm.SvmModel` and the matrix comes from its kernel expansion
(`svm.decision_batch`). Either way a row's
bits do not depend on the number of rows. Ties in the vote count break on
accumulated |decision| margin, then on the lower class id, so prediction is
fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import core
from .model import (
    CdfConfig, CdfModel, ClassProfile, Dataset, check_rows, class_pairs, stores_forms,
    validate_dataset,
)
from .svm import (
    DEFAULT_MAX_PASSES, DEFAULT_TOL, GridCell, KernelSpec, SvmForm, check_svm_settings,
    decision_batch, decision_forms, monomials, smo_train,
)

# The pair SVMs' kernel and C when the caller names none. The kernel takes
# KernelSpec's degree 2, gamma 1/dim and coef0 1.
DEFAULT_KERNEL = KernelSpec(kind="polynomial")
DEFAULT_C = 10.0


@dataclass(frozen=True)
class VoteRecord:
    """Pairwise voting outcome for one sample; `winner` follows `resolve_winner`."""

    votes: tuple
    margin_sums: tuple

    def __post_init__(self):
        m = len(self.votes)
        if len(self.margin_sums) != m:
            raise ValueError("votes and margin_sums must have one entry per class")
        if sum(self.votes) != m * (m - 1) // 2:
            raise ValueError("vote total must equal the number of class pairs")

    @property
    def winner(self) -> int:
        return resolve_winner(self.votes, self.margin_sums)


def resolve_winner(votes, margin_sums) -> int:
    """Most votes wins; ties break on margin sum, then on the lower class id."""
    best = 0
    for c in range(1, len(votes)):
        if votes[c] > votes[best] or (
            votes[c] == votes[best] and margin_sums[c] > margin_sums[best]
        ):
            best = c
    return best


def fit_pairs(num_classes, pair_data, kernel, c, tol, max_passes):
    """An iterator of (key, `SvmModel`) per class pair in order, each pair
    fitted when the iterator reaches it; pair_data(x, y) gives key, features
    and +/-1 labels. A caller that keeps less of each SVM than all of it
    holds one pair's full SvmModel at a time.

    ValueError for bad SVM settings, before any pair is fitted, and ValueError
    naming the pair for any failure of a pair's fit."""
    check_svm_settings(c, tol, max_passes)

    def fit(pair):
        x, y = pair
        try:
            key, features, labels = pair_data(x, y)
            return key, smo_train(
                features, labels, c, kernel.resolve(features.shape[1]),
                tol=tol, max_passes=max_passes,
            )
        except Exception as exc:
            raise ValueError(f"training failed for pair ({x},{y}): {exc}") from exc

    return map(fit, class_pairs(num_classes))


def kept_pairs(cfg: CdfConfig, kernel: KernelSpec, fitted) -> tuple:
    """The pairs a `CdfModel` keeps of `fit_pairs`' ((PairContext, SvmModel), ...):
    when `stores_forms`, each SVM as an `svm.SvmForm`, its column of one
    `svm.decision_forms` call over all pairs; otherwise the pairs as they are."""
    fitted = tuple(fitted)
    if not stores_forms(kernel, cfg.feature_mode):
        return fitted
    forms = decision_forms(svm for _, svm in fitted)
    return tuple(
        (ctx, SvmForm(weights=forms.weights[:, p], bias=svm.bias,
                      support_count=svm.support_count, iterations=svm.iterations,
                      kkt_violation_max=svm.kkt_violation_max))
        for p, (ctx, svm) in enumerate(fitted)
    )


@dataclass(frozen=True)
class _FoldStage:
    """`train`'s first stage: a valid dataset's class matrices (class c's
    rows in storage order) and `ClassProfile`s."""

    dataset: Dataset
    class_matrices: list
    profiles: tuple


def _fold_stage(dataset: Dataset) -> _FoldStage:
    problems = validate_dataset(dataset)
    if problems:
        raise ValueError("invalid dataset: " + "; ".join(problems))
    class_matrices = [dataset.class_matrix(cid) for cid in range(dataset.num_classes)]
    profiles = tuple(
        ClassProfile(sum_vec=core.class_sum(rows), cardinality=rows.shape[0])
        for rows in class_matrices
    )
    return _FoldStage(dataset, class_matrices, profiles)


@dataclass(frozen=True)
class _SelectionStage:
    """`train`'s second stage, for one config: the pair contexts and, under
    dual_kl or scalar_kl, the `KlWeights` of all pairs and the class blocks."""

    fold: _FoldStage
    cfg: CdfConfig
    contexts: dict
    weights: core.KlWeights | None
    # blocks[c] holds class c's rows under the m - 1 pairs naming c, in
    # pair order: pair (x, y) is column y - 1 of blocks[x], x of blocks[y].
    blocks: list | None


def _selection_stage(fold: _FoldStage, cfg: CdfConfig) -> _SelectionStage:
    m = fold.dataset.num_classes
    if m < 2:
        raise ValueError("training needs at least two classes")
    contexts = {
        (x, y): core.build_pair_context(x, y, fold.profiles[x], fold.profiles[y], cfg)
        for x, y in class_pairs(m)
    }
    mode = cfg.feature_mode
    if mode == "elementwise_kl":
        return _SelectionStage(fold, cfg, contexts, None, None)

    def weights(ctxs):
        return core.pair_kl_weights(ctxs, fold.dataset.dim, mode, cfg.smoothing_eps)

    blocks = [
        core.whole_kl_features(
            rows, weights([ctx for pair, ctx in contexts.items() if cid in pair])
        )
        for cid, rows in enumerate(fold.class_matrices)
    ]
    return _SelectionStage(fold, cfg, contexts, weights(list(contexts.values())), blocks)


def _solve_stage(selection: _SelectionStage, kernel, c, tol, max_passes) -> CdfModel:
    """`train`'s third stage: one SVM per pair at this C and kernel."""
    fold, cfg, blocks = selection.fold, selection.cfg, selection.blocks
    profiles = fold.profiles

    def pair_data(x, y):
        ctx = selection.contexts[x, y]
        if blocks is None:
            rows = [
                core.kl_features(matrix, ctx.mask, ctx.ref_x, cfg.smoothing_eps)
                for matrix in (fold.class_matrices[x], fold.class_matrices[y])
            ]
        else:
            rows = [blocks[x][:, y - 1], blocks[y][:, x]]
        return ctx, *core.extract_pair_features(*rows, ctx, profiles[x], profiles[y], cfg)

    m = fold.dataset.num_classes
    model = CdfModel(
        config=cfg,
        kernel=kernel,
        c=c,
        tol=tol,
        max_passes=max_passes,
        label_names=fold.dataset.label_names,
        profiles=profiles,
        pairs=kept_pairs(cfg, kernel, fit_pairs(m, pair_data, kernel, c, tol, max_passes)),
    )
    if selection.weights is not None:
        # Fills the cached_property; frozen dataclasses refuse plain setattr.
        object.__setattr__(model, "kl_weights", selection.weights)
    return model


def train(
    dataset: Dataset,
    cfg: CdfConfig = CdfConfig(),
    kernel: KernelSpec = DEFAULT_KERNEL,
    c: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: int = 0,
    jobs: int = 1,
) -> CdfModel:
    """Fit profiles, pair contexts, features and one SVM per class pair.

    Three stages run in order. The fold stage validates the dataset and
    builds the class matrices and profiles. The selection stage, which
    depends on `cfg` but not on C, builds the pair contexts (masks and
    masked references); dual_kl and scalar_kl features then come from one
    `core.whole_kl_features` pass per class, over the class's rows and the
    weights of its m - 1 pairs, before any SVM is fitted. The solve stage
    fits the pair SVMs, keeps the pairs `kept_pairs` gives, and seeds the
    model's `kl_weights` with the weights, so its training features are the
    bits `predict_batch` computes. elementwise_kl features are wider, so each
    pair's are computed with `core.kl_features` when its SVM is fitted;
    under the other modes the class matrices are freed before the solves.
    The solves use no randomness; `seed` is accepted and unused. The pair
    SVMs are fitted one after another; `jobs` is accepted and unused.
    """
    fold = _fold_stage(dataset)
    check_svm_settings(c, tol, max_passes)
    selection = _selection_stage(fold, cfg)
    if selection.blocks is not None:
        fold.class_matrices.clear()
    return _solve_stage(selection, kernel, c, tol, max_passes)


def predict(model: CdfModel, sample) -> tuple[int, VoteRecord]:
    """Vote every pair SVM on one sample and return the winning class."""
    return predict_batch(model, np.asarray(sample, dtype=float)[None])[0]


def _sample_matrix(samples, dim: int) -> np.ndarray:
    """The samples as an (n, dim) float matrix; ValueError names the first bad
    row (`model.check_rows`). Input other than a 2-D array of `dim` columns
    is read row by row, to name a row of another length."""
    if isinstance(samples, np.ndarray) and samples.ndim == 2 and samples.shape[1] == dim:
        return check_rows(samples.astype(float, copy=False))
    rows = [np.asarray(row, dtype=float) for row in samples]
    for i, row in enumerate(rows):
        if row.shape != (dim,):
            raise ValueError(f"sample {i}: length {row.size} does not match model dim {dim}")
    return check_rows(np.stack(rows) if rows else np.empty((0, dim)))


def pair_decisions(model: CdfModel, samples) -> np.ndarray:
    """The (n, pairs) decision matrix of a sample matrix (or sequence).

    dual_kl and scalar_kl features of every pair come from one
    `core.whole_kl_features` call with the model's cached `kl_weights`;
    elementwise_kl features from one `core.kl_features` call per pair. With
    `model.decision_forms`, every pair's stored polynomial is summed one
    monomial at a time in elementwise products, so no reduction runs along a
    row; otherwise each pair's `decision_batch` runs over all rows.
    """
    x = _sample_matrix(samples, model.dim)
    if model.config.feature_mode == "elementwise_kl":
        eps = model.config.smoothing_eps
        feats = [core.kl_features(x, ctx.mask, ctx.ref_x, eps) for ctx, _ in model.pairs]
    else:
        feats = core.whole_kl_features(x, model.kl_weights)
        forms = model.decision_forms
        if forms is not None:
            d = np.empty(feats.shape[:2])
            d[:] = forms.bias
            for w, mono in zip(forms.weights, monomials(feats, forms.exponents)):
                d += w if mono is None else w * mono
            return d
        feats = feats.swapaxes(0, 1)
    return np.stack([decision_batch(svm, f) for (_, svm), f in zip(model.pairs, feats)], axis=1)


def predict_batch(model: CdfModel, samples) -> list[tuple[int, VoteRecord]]:
    """Predict every row of a sample matrix (or sequence), order preserved.

    Votes and margin sums accumulate over `pair_decisions` in pair order, so
    a row's result is the same whatever the number of rows.
    """
    return vote(pair_decisions(model, samples), model.num_classes)


@cache
def _class_pair_array(num_classes: int) -> np.ndarray:
    """`class_pairs(num_classes)` as a read-only (pairs, 2) array, built once per class count."""
    pairs = np.array(class_pairs(num_classes), dtype=np.int64)
    pairs.setflags(write=False)
    return pairs


def vote(decisions, num_classes: int) -> list[tuple[int, VoteRecord]]:
    """(winner, VoteRecord) per row of an (n, pairs) decision matrix whose
    columns are in `class_pairs` order; pair (x, y) votes x if d > 0, else y."""
    classes = _class_pair_array(num_classes)
    n = len(decisions)
    voted = np.where(decisions > 0, classes[:, 0], classes[:, 1])
    # Each row's vote goes to cell row * num_classes + class. bincount adds in
    # input order, row by row and within a row in pair order.
    cells = (voted + num_classes * np.arange(n)[:, None]).ravel()
    size = n * num_classes
    votes = np.bincount(cells, minlength=size).reshape(n, num_classes)
    margins = np.bincount(cells, np.abs(decisions).ravel(), size).reshape(n, num_classes)
    records = [VoteRecord(tuple(v), tuple(s)) for v, s in zip(votes.tolist(), margins.tolist())]
    return [(record.winner, record) for record in records]


def _same_data(a: Dataset, b: Dataset) -> bool:
    """Whether two datasets hold the same labels and the same sample bits
    (compared as integers, so -0.0 and 0.0 differ)."""
    return (
        a.samples.shape == b.samples.shape
        and a.label_names == b.label_names
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.samples.view(np.int64), b.samples.view(np.int64))
    )


def pipeline_trainer(
    cfg: CdfConfig,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: int = 0,
):
    """cross_validate trainer running `train`'s stages per grid cell.

    The cell's b/b_prime replace the config's multipliers and the cell's C
    and kernel drive the pair SVMs. Each call's model is the one `train`
    gives for its data and cell, bit for bit, but the trainer keeps the last
    two stages that do not depend on C and reuses them:
    - the fold stage (class matrices and profiles), built over a private
      copy of the training rows, while a call's x_train and y_train equal
      that copy bit for bit (a write into the caller's array between calls
      means a rebuild, not a stale profile);
    - the selection stage (masks, masked references and, under dual_kl or
      scalar_kl, every class's KL feature block) while the cell's
      (b, b_prime) are unchanged on that fold.
    The SMO solves run once per call, and elementwise_kl features are
    computed per solve. So the trainer holds at most one fold's stages: the
    copy of its rows, its class matrices (a second copy), and for one
    (b, b_prime) the pair contexts and feature blocks, until it is dropped.
    `cross_validate` trains each fold's cells one (b, b_prime) after another,
    so every fold builds its profiles once and each (b, b_prime) selection
    once. The kept stages are state shared by the trainer's calls, so it
    serves one caller at a time. `seed` is accepted and unused.
    """
    fold = selection = None

    def trainer(x_train, y_train, cell: GridCell):
        nonlocal fold, selection
        cell_cfg = replace(cfg, b=cell.b, b_prime=cell.b_prime)
        ds = Dataset.from_arrays(x_train, y_train)
        if fold is None or not _same_data(fold.dataset, ds):
            # The old stages go before the new are built: one fold's at a time.
            fold = selection = None
            fold = _fold_stage(Dataset.from_arrays(ds.samples.copy(), ds.labels, ds.label_names))
        check_svm_settings(cell.c, tol, max_passes)
        if selection is None or selection.cfg != cell_cfg:
            selection = None
            selection = _selection_stage(fold, cell_cfg)
        # perfbench reads the fitted model from this closure's `model`.
        model = _solve_stage(selection, cell.kernel, cell.c, tol, max_passes)

        def predict_labels(x_eval):
            return np.asarray([winner for winner, _ in predict_batch(model, x_eval)])

        return predict_labels

    return trainer
