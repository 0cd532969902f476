"""One-vs-one engine (`fit_pairs`, `vote`), shared with the TF-IDF baseline.

Prediction handles every pair in one pass over the sample matrix: the
features of all pairs, then an (n, pairs) decision matrix, then one vote and
margin accumulation in pair order. Ties in the vote count break on
accumulated |decision| margin, then on the lower class id, so prediction is
fully deterministic.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .model import CdfConfig, CdfModel, ClassProfile, Dataset, class_pairs, validate_dataset
from .svm import DEFAULT_MAX_PASSES, DEFAULT_TOL, GridCell, KernelSpec, decision_batch, smo_train

# The pair SVMs' kernel and C when the caller names none. The kernel takes
# KernelSpec's degree 2, gamma 1/dim and coef0 1.
DEFAULT_KERNEL = KernelSpec(kind="polynomial")
DEFAULT_C = 10.0


@dataclass(frozen=True)
class VoteRecord:
    """Pairwise voting outcome for one sample."""

    votes: tuple
    margin_sums: tuple
    winner: int

    def __post_init__(self):
        m = len(self.votes)
        if len(self.margin_sums) != m:
            raise ValueError("votes and margin_sums must have one entry per class")
        if sum(self.votes) != m * (m - 1) // 2:
            raise ValueError("vote total must equal the number of class pairs")
        if self.winner != resolve_winner(self.votes, self.margin_sums):
            raise ValueError("winner does not follow the tie-break rule")


def resolve_winner(votes, margin_sums) -> int:
    """Most votes wins; ties break on margin sum, then on the lower class id."""
    best = 0
    for c in range(1, len(votes)):
        if votes[c] > votes[best] or (
            votes[c] == votes[best] and margin_sums[c] > margin_sums[best]
        ):
            best = c
    return best


def fit_pairs(num_classes, pair_data, kernel, c, tol, max_passes, jobs=1) -> tuple:
    """(key, SvmModel) per class pair in order; pair_data(x, y) gives key, features, +/-1 labels."""

    def fit(pair):
        x, y = pair
        try:
            key, features, labels = pair_data(x, y)
            return key, smo_train(
                features, labels, c, kernel.resolve(features.shape[1]),
                tol=tol, max_passes=max_passes,
            )
        except Exception as exc:
            raise RuntimeError(f"training failed for pair ({x},{y}): {exc}") from exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return tuple(pool.map(fit, class_pairs(num_classes)))
    return tuple(map(fit, class_pairs(num_classes)))


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

    dual_kl and scalar_kl features come from one `core.whole_kl_features`
    pass per class, over the class's rows and the weights of its m - 1 pairs,
    before any SVM is fitted; the model's `kl_weights` is seeded with the
    weights, so its training features are the bits `predict_batch` computes.
    elementwise_kl features are wider, so each pair's are computed with
    `core.kl_features` when its SVM is fitted.
    """
    problems = validate_dataset(dataset)
    if problems:
        raise ValueError("invalid dataset: " + "; ".join(problems))
    m = dataset.num_classes
    if m < 2:
        raise ValueError("training needs at least two classes")

    class_matrices = [dataset.class_matrix(cid) for cid in range(m)]
    profiles = []
    for cid in range(m):
        sums = core.class_sum(class_matrices[cid])
        card = class_matrices[cid].shape[0]
        profiles.append(
            ClassProfile(
                class_id=cid,
                sum_vec=sums,
                mean_vec=core.class_mean(sums, card),
                cardinality=card,
            )
        )
    pair_ids = class_pairs(m)
    contexts = {
        (x, y): core.build_pair_context(profiles[x], profiles[y], cfg) for x, y in pair_ids
    }

    mode, eps = cfg.feature_mode, cfg.smoothing_eps
    weights = blocks = None
    if mode != "elementwise_kl":
        weights = core.pair_kl_weights(list(contexts.values()), dataset.dim, mode, eps)
        # blocks[c] holds class c's rows under the m - 1 pairs naming c, in
        # pair order: pair (x, y) is column y - 1 of blocks[x], x of blocks[y].
        blocks = [
            core.whole_kl_features(
                class_matrices[cid],
                core.select_pair_weights(
                    weights, [j for j, pair in enumerate(pair_ids) if cid in pair]
                ),
            )
            for cid in range(m)
        ]
        class_matrices.clear()

    def pair_data(x, y):
        ctx = contexts[x, y]
        if blocks is None:
            rows = [
                core.kl_features(class_matrices[cid], ctx.mask, ctx.ref_x, ctx.ref_y, mode, eps)
                for cid in (x, y)
            ]
        else:
            rows = [blocks[x][:, y - 1], blocks[y][:, x]]
        return ctx, *core.extract_pair_features(*rows, ctx, profiles[x], profiles[y], cfg)

    model = CdfModel(
        config=cfg,
        kernel=kernel,
        c=c,
        tol=tol,
        max_passes=max_passes,
        seed=seed,
        num_classes=m,
        dim=dataset.dim,
        label_names=dataset.label_names,
        profiles=tuple(profiles),
        pairs=fit_pairs(m, pair_data, kernel, c, tol, max_passes, jobs),
    )
    if weights is not None:
        # Fills the cached_property; frozen dataclasses refuse plain setattr.
        object.__setattr__(model, "kl_weights", weights)
    return model


def predict(model: CdfModel, sample) -> tuple[int, VoteRecord]:
    """Vote every pair SVM on one sample and return the winning class."""
    return predict_batch(model, np.asarray(sample, dtype=float)[None])[0]


def _sample_matrix(samples, dim: int) -> np.ndarray:
    """The samples as an (n, dim) float matrix; ValueError names the first bad row."""
    rows = [np.asarray(row, dtype=float) for row in samples]
    for i, row in enumerate(rows):
        if row.shape != (dim,):
            raise ValueError(f"sample {i}: length {row.size} does not match model dim {dim}")
    x = np.stack(rows) if rows else np.empty((0, dim))
    bad = np.flatnonzero(~np.all(np.isfinite(x) & (x >= 0), axis=1))
    if bad.size:
        raise ValueError(f"sample {bad[0]}: components must be finite and >= 0")
    return x


def predict_batch(model: CdfModel, samples) -> list[tuple[int, VoteRecord]]:
    """Predict every row of a sample matrix (or sequence), order preserved.

    dual_kl and scalar_kl features of every pair come from one
    `core.whole_kl_features` call with the model's cached `kl_weights`;
    elementwise_kl features from one `core.kl_features` call per pair. Each
    pair's decisions are computed once over all rows, then votes and margin
    sums accumulate in pair order, so a row's result is the same whatever the
    number of rows.
    """
    x = _sample_matrix(samples, model.dim)
    mode = model.config.feature_mode
    if mode == "elementwise_kl":
        eps = model.config.smoothing_eps
        feats = [
            core.kl_features(x, ctx.mask, ctx.ref_x, ctx.ref_y, mode, eps)
            for ctx, _ in model.pairs
        ]
    else:
        feats = core.whole_kl_features(x, model.kl_weights).swapaxes(0, 1)
    d = np.stack([decision_batch(svm, f) for (_, svm), f in zip(model.pairs, feats)], axis=1)
    return vote(d, [(ctx.class_x, ctx.class_y) for ctx, _ in model.pairs], model.num_classes)


def vote(decisions, classes, num_classes: int) -> list[tuple[int, VoteRecord]]:
    """(winner, VoteRecord) per decision row; pair k votes classes[k][0] if d > 0, else [1]."""
    classes = np.asarray(classes)
    voted = np.where(decisions > 0, classes[:, 0], classes[:, 1])
    rows = np.arange(len(decisions))[:, None]
    # np.add.at adds in index order, row by row and within a row in pair order.
    votes = np.zeros((len(decisions), num_classes), dtype=np.int64)
    np.add.at(votes, (rows, voted), 1)
    margins = np.zeros((len(decisions), num_classes))
    np.add.at(margins, (rows, voted), np.abs(decisions))
    out = []
    for v, s in zip(votes.tolist(), margins.tolist()):
        record = VoteRecord(votes=tuple(v), margin_sums=tuple(s), winner=resolve_winner(v, s))
        out.append((record.winner, record))
    return out


def pipeline_trainer(
    cfg: CdfConfig,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: int = 0,
    jobs: int = 1,
):
    """cross_validate trainer running the full pipeline per grid cell.

    The cell's b/b_prime replace the config's global multipliers and the
    cell's C and kernel drive the pair SVMs.
    """

    def trainer(x_train, y_train, cell: GridCell):
        cell_cfg = replace(cfg, b=cell.b, b_prime=cell.b_prime)
        ds = Dataset.from_arrays(x_train, y_train)
        model = train(
            ds, cell_cfg, kernel=cell.kernel, c=cell.c, tol=tol,
            max_passes=max_passes, seed=seed, jobs=jobs,
        )

        def predict_labels(x_eval):
            return np.asarray([winner for winner, _ in predict_batch(model, x_eval)])

        return predict_labels

    return trainer
