"""Class-dependent feature selection and KL-divergence extraction.

The pipeline for one class pair (x, y): per-class mean profiles, the
component-wise profile ratio and its mean, two scaled thresholds, the
selected-index mask, masked probability normalization, and finally KL
divergences of each masked sample against the masked class profiles.

dual_kl and scalar_kl features come from `whole_kl_features`, the whole
divergences of many pairs at once under `pair_kl_weights`, elementwise_kl
features from `kl_features`; the scalar `kl_divergence` and `sample_feature`
are one-row calls into them. Training makes one `whole_kl_features` pass per
class, over its rows and the weights of the pairs that name it
(`select_pair_weights`), so a training row's features are the bits that
prediction computes for it.

`whole_kl_features` computes each row in one of two ways. A row with at most
`SPARSE_ROW_SHARE` (1/8) of its components nonzero, as bag-of-words rows
are, works on its nonzeros alone: it gathers their rows of the transposed
weights. Every other row, such as an image, takes its product with all of the
weights. The choice depends on the row alone and neither way's bits depend on
the other rows of the call or on which pairs the weights hold, so a row's
features are the same bits in any batch, in training and in prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import FEATURE_MODES, CdfConfig, ClassProfile, PairContext, feature_width
from .record import Record
from .svm import real


def class_sum(samples) -> np.ndarray:
    """Component-wise sum over a class's sample vectors."""
    if len(samples) == 0:
        raise ValueError("class_sum needs at least one sample")
    mat = np.asarray(samples, dtype=float)
    if mat.ndim != 2:
        raise ValueError("samples must share a common length")
    return np.sum(mat, axis=0)


def class_mean(sum_vec, cardinality: int) -> np.ndarray:
    """Per-component mean profile: the class sum divided by its cardinality."""
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    return np.asarray(sum_vec, dtype=float) / cardinality


def pair_ratios(t_x, t_y, eps: float) -> np.ndarray:
    """Smoothed component-wise ratio of two class profiles."""
    t_x = np.asarray(t_x, dtype=float)
    t_y = np.asarray(t_y, dtype=float)
    if t_x.shape != t_y.shape:
        raise ValueError("profiles differ in length")
    if np.any(t_x < 0) or np.any(t_y < 0):
        raise ValueError("profile components must be >= 0")
    eps = real("eps", eps, 0)
    return (t_x + eps) / (t_y + eps)


def pair_mean(ratios) -> float:
    """Arithmetic mean of the ratio vector."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        raise ValueError("pair_mean of an empty vector")
    return float(np.mean(ratios))


def select_indices(
    t_x,
    t_y,
    tau: float,
    tau_prime: float,
    eps: float = CdfConfig.smoothing_eps,
) -> tuple[np.ndarray, bool]:
    """Indices retained for a class pair, plus a fallback flag.

    Index i is kept when either smoothed profile ratio (`pair_ratios`)
    exceeds its threshold: t_x/t_y above `tau` or t_y/t_x above `tau_prime`.
    An empty selection falls back to the single index with the largest
    |t_x - t_y| (lowest index on ties) and sets the flag.
    """
    r_xy, r_yx = pair_ratios(t_x, t_y, eps), pair_ratios(t_y, t_x, eps)
    return _threshold(r_xy, r_yx, tau, tau_prime, np.subtract(t_x, t_y))


def _threshold(r_xy, r_yx, tau, tau_prime, diff) -> tuple[np.ndarray, bool]:
    """`select_indices` on the two ratio vectors and the profile difference."""
    idx = np.flatnonzero((r_xy > tau) | (r_yx > tau_prime))
    if idx.size:
        return idx.astype(np.int64), False
    return np.asarray([int(np.argmax(np.abs(diff)))], dtype=np.int64), True


def restrict_normalize(sample, mask) -> tuple[np.ndarray, bool]:
    """Keep the masked components and normalize them to a probability vector.

    A zero restriction yields the uniform distribution over the mask with the
    degeneracy flag set.
    """
    sample = np.asarray(sample, dtype=float)
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must be non-empty")
    if np.any(mask < 0) or np.any(mask >= sample.shape[0]):
        raise ValueError("mask index out of range")
    part = sample[mask]
    total = float(np.sum(part))
    if total > 0:
        return part / total, False
    return np.full(mask.size, 1.0 / mask.size), True


def kl_divergence(p, q, eps: float = CdfConfig.smoothing_eps) -> float:
    """KL divergence sum(p * ln(p / (q + eps))) with 0 * ln(0/.) = 0.

    The denominator smoothing alone would push the p == q case a hair below
    zero (about -n*eps), so the result is clamped at 0 to keep the divergence
    non-negative. It is `whole_kl_features` of p under one pair whose mask is
    every component and whose reference is q.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"distributions must be vectors of one length: {p.shape} vs {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < 0):
            raise ValueError(f"{name} has negative components")
        if abs(float(np.sum(v)) - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalized (sum {float(np.sum(v))!r})")
    weights = _kl_weights([np.arange(p.size)], [(q,)], p.size, real("eps", eps, 0))
    return float(whole_kl_features(p[None], weights)[0, 0, 0])


def kl_features(samples, mask, ref, eps: float) -> np.ndarray:
    """elementwise_kl rows: the terms p * ln(p / (ref + eps)), 0 * ln 0 = 0, of
    each sample restricted to one pair's mask and normalized to p.

    Row i depends on row i of `samples` alone and has the same bits whatever
    the number of rows. A row whose masked total is zero becomes the uniform
    distribution over the mask. Rows are not validated: callers pass finite,
    non-negative samples.
    """
    part = np.asarray(samples, dtype=float).take(mask, axis=1)
    totals = part.sum(axis=1)
    empty = totals <= 0
    part[empty] = 1.0 / part.shape[1]
    totals[empty] = 1.0
    p = part / totals[:, None]
    return p * np.log(p / (ref + eps), out=np.zeros_like(p), where=p > 0)


# A row with at most this share of nonzero components takes the sparse path
# of `whole_kl_features`. Measured on a 2-vCPU x86-64 host with one digits
# model and random rows of a given share of nonzeros: a training pass (60
# rows, the 27 weight columns of one class's pairs) costs about the same on
# both paths at 5-15% nonzero (1.0-1.3 ms) and more on the sparse path from
# 20% on (2.7 against 1.7 ms at 30%); a predict pass (100 rows, 135 columns)
# is faster on the sparse path up to about 30% (2.9 against 7.1 ms at 5%,
# 7.2 against 7.6 ms at 30%). 1/8 sits at or below both crossovers. Over 9
# benchmark draws, digits and cv-grid rows have at least 109 nonzeros of 784
# (14%) and news rows at most 339 of 3325 (10%), so every news row takes the
# sparse path and no digits or cv-grid row does.
SPARSE_ROW_SHARE = 1 / 8


@dataclass(frozen=True, eq=False)
class KlWeights(Record):
    """The weights `whole_kl_features` takes for P pairs with r references each.

    `w` is a ((1 + r) * P, dim) matrix with r = 2 in dual_kl (ref_x, ref_y)
    and r = 1 in scalar_kl (ref_x): rows 0..P-1 hold each pair's mask
    indicator, and row P + j * r + t holds ln(ref_t + eps) of pair j on its
    mask and 0 elsewhere. `empty` is the (P, r) features of a row whose
    masked total is zero, the divergence of the uniform distribution over
    the mask: -ln k - mean(ln(ref + eps)).
    """

    ARRAYS = {"w": float, "empty": float}

    w: np.ndarray
    empty: np.ndarray

    @cached_property
    def wt(self) -> np.ndarray:
        """`w` as a C-contiguous (dim, (1 + r) * P) array, whose rows the sparse
        path gathers. Built when a sparse row first needs it, so dense data
        never holds the copy."""
        return np.ascontiguousarray(self.w.T)


def pair_kl_weights(contexts, dim: int, feature_mode: str, eps: float) -> KlWeights:
    """The `KlWeights` of a sequence of pair contexts, in that order."""
    r = 2 if feature_mode == "dual_kl" else 1
    refs = [(ctx.ref_x, ctx.ref_y)[:r] for ctx in contexts]
    return _kl_weights([ctx.mask for ctx in contexts], refs, dim, eps)


def _kl_weights(masks, refs, dim: int, eps: float) -> KlWeights:
    """The `KlWeights` of P pairs from their masks and `refs[j]`, pair j's r references."""
    npairs, r = len(refs), len(refs[0])
    w = np.zeros((npairs * (1 + r), dim))
    logs = w[npairs:].reshape(npairs, r, dim)
    for j, (mask, pair_refs) in enumerate(zip(masks, refs)):
        w[j, mask] = 1.0
        for t, ref in enumerate(pair_refs):
            logs[j, t, mask] = np.log(ref + eps)
    k = w[:npairs].sum(axis=1)[:, None]
    empty = np.maximum(-np.log(k) - logs.sum(axis=2) / k, 0.0)
    return KlWeights(w, empty)


def select_pair_weights(weights: KlWeights, js) -> KlWeights:
    """The `KlWeights` of the pairs numbered `js` alone, in that order.

    `whole_kl_features` under them gives the same bits as pairs `js` of its
    result under all of `weights`.
    """
    w, empty = weights.w, weights.empty
    npairs, r = empty.shape
    js = np.asarray(js, dtype=np.int64)
    logs = w[npairs:].reshape(npairs, r, -1)[js].reshape(js.size * r, -1)
    return KlWeights(np.concatenate([w[js], logs]), empty[js])


def whole_kl_features(samples, weights: KlWeights) -> np.ndarray:
    """dual_kl or scalar_kl features of every row under every pair at once.

    `weights` is `pair_kl_weights(...)` or `select_pair_weights(...)` of P
    pairs; the result is (n, P, r). With T the masked total of a row,
    KL(p||q) = (sum x ln x - sum x ln(q + eps)) / T - ln T, so each component
    needs one log shared by all pairs and references, and the masked sums of
    every pair are sums of products with `w`. KL does not depend on a row's
    scale, so each row is first scaled by a power of two (exactly) to a
    maximum in [0.5, 1), which keeps x ln x finite for any finite x.

    A row takes one of two paths, chosen by its own nonzero count, so its
    bits depend on that row alone, never on the batch it comes in, and
    training features are the bits predict computes. A row with at most
    `SPARSE_ROW_SHARE * dim` nonzeros (bag-of-words text) gathers the rows of
    `weights.wt` at its nonzeros and sums them weighted in einsum, which adds
    one nonzero after the other into every column, so a column's sum does not
    depend on the other columns and `select_pair_weights` keeps the bits. The
    gathered rows always hold at least two columns, and the x ln x sums take
    a column slice of them, never a contiguous one-column array, which einsum
    would sum as a dot product, in another order. Every other row takes its
    product with all of `w` in einsum, not BLAS, whose row bits do not depend
    on the number of rows. A call whose rows all take one path runs that path
    on the whole matrix. Rows are not validated: callers pass finite,
    non-negative samples.
    """
    npairs, r = weights.empty.shape
    x = np.asarray(samples, dtype=float)
    _, e = np.frexp(x.max(axis=1, initial=0.0))
    sparse = np.count_nonzero(x, axis=1) <= SPARSE_ROW_SHARE * x.shape[1]
    if not sparse.any():
        sums, xlogx_sums = _dense_sums(x, e, weights.w, npairs)
    elif sparse.all():
        sums, xlogx_sums = _sparse_sums(x, e, weights.wt, npairs)
    else:
        dense = ~sparse
        sums = np.empty((len(x), weights.w.shape[0]))
        xlogx_sums = np.empty((len(x), npairs))
        sums[sparse], xlogx_sums[sparse] = _sparse_sums(x[sparse], e[sparse], weights.wt, npairs)
        sums[dense], xlogx_sums[dense] = _dense_sums(x[dense], e[dense], weights.w, npairs)
    totals = sums[:, :npairs, None]
    filled = totals > 0
    t = np.where(filled, totals, 1.0)
    kl = (xlogx_sums[:, :, None] - sums[:, npairs:].reshape(-1, npairs, r)) / t - np.log(t)
    return np.where(filled, np.maximum(kl, 0.0), weights.empty)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x, with 0 ln 0 = 0."""
    out = np.log(x, out=np.zeros_like(x), where=x > 0)
    out *= x
    return out


def _dense_sums(x, e, w, npairs) -> tuple:
    """The masked sums of every row of `x`, scaled by 2**-e, against all of `w`:
    (n, (1 + r) * P) sums of x and (n, P) sums of x ln x."""
    x = np.ldexp(x, -e[:, None])
    return np.einsum("ij,kj->ik", x, w), np.einsum("ij,kj->ik", _xlogx(x), w[:npairs])


def _sparse_sums(x, e, wt, npairs) -> tuple:
    """`_dense_sums` from each row's nonzeros and the rows of `wt` they gather."""
    rows, cols = np.nonzero(x != 0)
    v = np.ldexp(x[rows, cols], -e[rows])
    xlogx = _xlogx(v)
    sums = np.zeros((len(x), wt.shape[1]))
    xlogx_sums = np.zeros((len(x), npairs))
    start = 0
    for i, end in enumerate(np.cumsum(np.bincount(rows, minlength=len(x))).tolist()):
        if end > start:
            g = wt[cols[start:end]]
            sums[i] = np.einsum("j,jk->k", v[start:end], g)
            xlogx_sums[i] = np.einsum("j,jk->k", xlogx[start:end], g[:, :npairs])
        start = end
    return sums, xlogx_sums


def sample_feature(sample, mask, ref_x, ref_y, feature_mode: str, eps: float) -> np.ndarray:
    """One raw sample's features under a pair's mask and references: its row
    of `whole_kl_features` under that pair, or of `kl_features` in elementwise_kl."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 1 or not np.all(np.isfinite(sample)) or np.any(sample < 0):
        raise ValueError("sample must be a vector of finite components >= 0")
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must be non-empty")
    if np.any(mask < 0) or np.any(mask >= sample.shape[0]):
        raise ValueError("mask index out of range")
    if feature_mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature_mode {feature_mode!r}")
    eps = real("eps", eps, 0)
    if feature_mode == "elementwise_kl":
        return kl_features(sample[None], mask, ref_x, eps)[0]
    refs = (ref_x, ref_y) if feature_mode == "dual_kl" else (ref_x,)
    return whole_kl_features(sample[None], _kl_weights([mask], [refs], sample.size, eps))[0, 0]


def build_pair_context(
    profile_x: ClassProfile, profile_y: ClassProfile, cfg: CdfConfig
) -> PairContext:
    """Ratio means, thresholds, mask and masked references for one class pair."""
    t_x, t_y = profile_x.mean_vec, profile_y.mean_vec
    r_xy, r_yx = pair_ratios(t_x, t_y, cfg.smoothing_eps), pair_ratios(t_y, t_x, cfg.smoothing_eps)
    mu_xy, mu_yx = pair_mean(r_xy), pair_mean(r_yx)
    mask, fallback = _threshold(r_xy, r_yx, cfg.b * mu_xy, cfg.b_prime * mu_yx, t_x - t_y)
    ref_x, _ = restrict_normalize(t_x, mask)
    ref_y, _ = restrict_normalize(t_y, mask)
    return PairContext(
        class_x=profile_x.class_id,
        class_y=profile_y.class_id,
        mu_xy=mu_xy,
        mu_yx=mu_yx,
        mask=mask,
        b=cfg.b,
        b_prime=cfg.b_prime,
        fallback=fallback,
        ref_x=ref_x,
        ref_y=ref_y,
    )


def extract_pair_features(
    rows_x,
    rows_y,
    ctx: PairContext,
    profile_x: ClassProfile,
    profile_y: ClassProfile,
    cfg: CdfConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One pair's SVM training data from its two classes' feature rows.

    Returns the rows of class x, then those of class y, and +1 / -1 float
    labels. The rows are features under `ctx`, `feature_width` wide; the
    profiles and config must be the ones `ctx` was built from (perfbench's
    trace reads them to count distinct feature work).
    """
    if (profile_x.class_id, profile_y.class_id) != (ctx.class_x, ctx.class_y):
        raise ValueError("profiles do not match the pair context")
    width = feature_width(cfg.feature_mode, ctx)
    rows_x = np.asarray(rows_x, dtype=float)
    rows_y = np.asarray(rows_y, dtype=float)
    for rows in (rows_x, rows_y):
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"feature rows must be {width} wide, got shape {rows.shape}")
    labels = np.concatenate([np.ones(len(rows_x)), -np.ones(len(rows_y))])
    return np.concatenate([rows_x, rows_y]), labels
