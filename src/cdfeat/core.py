"""Class-dependent feature selection and KL-divergence extraction.

The pipeline for one class pair (x, y): per-class mean profiles, the
component-wise profile ratio and its mean, two scaled thresholds, the
selected-index mask, masked probability normalization, and finally KL
divergences of each masked sample against the masked class profiles.

`kl_features` computes one pair's features over a sample matrix;
`sample_feature` and elementwise_kl training and prediction use it. dual_kl
and scalar_kl training and prediction use `whole_kl_features`, which computes
the whole divergences of many pairs at once from `pair_kl_weights` and agrees
with `kl_features` to rounding. Training makes one such pass per class, over
the class's rows and the weights of the pairs that name it
(`select_pair_weights`), so a training row's features are the same bits that
prediction computes for it.
"""

from __future__ import annotations

import numpy as np

from .model import FEATURE_MODES, CdfConfig, ClassProfile, PairContext, feature_width


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
    if eps <= 0:
        raise ValueError("eps must be > 0")
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
    mode: str = CdfConfig.selection_mode,
    eps: float = CdfConfig.smoothing_eps,
) -> tuple[np.ndarray, bool]:
    """Indices retained for a class pair, plus a fallback flag.

    ratio mode keeps index i when either smoothed profile ratio exceeds its
    threshold; literal mode compares the raw profile values against both
    thresholds. An empty selection falls back to the single index with the
    largest |t_x - t_y| (lowest index on ties) and sets the flag.
    """
    t_x = np.asarray(t_x, dtype=float)
    t_y = np.asarray(t_y, dtype=float)
    if t_x.shape != t_y.shape:
        raise ValueError("profiles differ in length")
    if mode == "ratio":
        r_xy = (t_x + eps) / (t_y + eps)
        r_yx = (t_y + eps) / (t_x + eps)
        keep = (r_xy > tau) | (r_yx > tau_prime)
    elif mode == "literal":
        keep = (t_x > tau) | (t_x > tau_prime) | (t_y > tau) | (t_y > tau_prime)
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    idx = np.flatnonzero(keep)
    if idx.size:
        return idx.astype(np.int64), False
    return np.asarray([int(np.argmax(np.abs(t_x - t_y)))], dtype=np.int64), True


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
    non-negative.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distributions differ in length: {p.size} vs {q.size}")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < 0):
            raise ValueError(f"{name} has negative components")
        if abs(float(np.sum(v)) - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalized (sum {float(np.sum(v))!r})")
    pos = p > 0
    return max(0.0, float(np.sum(p[pos] * np.log(p[pos] / (q[pos] + eps)))))


def kl_features(samples, mask, ref_x, ref_y, feature_mode: str, eps: float) -> np.ndarray:
    """KL feature rows for a sample matrix under one pair's mask and references.

    Row i depends on row i of `samples` alone and has the same bits whatever
    the number of rows. A row whose masked total is zero becomes the uniform
    distribution over the mask. The masked KL terms use 0 * ln 0 = 0, and
    whole divergences are clamped at 0 as in `kl_divergence`. Rows are not
    validated: callers pass finite, non-negative samples.
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


def pair_kl_weights(contexts, dim: int, feature_mode: str, eps: float) -> tuple:
    """The weights `whole_kl_features` takes for a sequence of pair contexts.

    Returns (w, empty). `w` is a ((1 + r) * P, dim) matrix for P pairs with
    r = 2 references each in dual_kl (ref_x, ref_y) and r = 1 in scalar_kl
    (ref_x): rows 0..P-1 hold each pair's mask indicator, and row
    P + j * r + t holds ln(ref_t + eps) of pair j on its mask and 0 elsewhere.
    `empty` is the (P, r) features of a row whose masked total is zero, the
    divergence of the uniform distribution over the mask:
    -ln k - mean(ln(ref + eps)).
    """
    npairs = len(contexts)
    r = 2 if feature_mode == "dual_kl" else 1
    w = np.zeros((npairs * (1 + r), dim))
    logs = w[npairs:].reshape(npairs, r, dim)
    for j, ctx in enumerate(contexts):
        w[j, ctx.mask] = 1.0
        for t, ref in enumerate((ctx.ref_x, ctx.ref_y)[:r]):
            logs[j, t, ctx.mask] = np.log(ref + eps)
    k = w[:npairs].sum(axis=1)[:, None]
    empty = np.maximum(-np.log(k) - logs.sum(axis=2) / k, 0.0)
    return w, empty


def select_pair_weights(weights, js) -> tuple:
    """The `pair_kl_weights` of the pairs numbered `js` alone, in that order.

    `whole_kl_features` under them gives the same bits as pairs `js` of its
    result under all of `weights`.
    """
    w, empty = weights
    npairs, r = empty.shape
    js = np.asarray(js, dtype=np.int64)
    logs = w[npairs:].reshape(npairs, r, -1)[js].reshape(js.size * r, -1)
    return np.concatenate([w[js], logs]), empty[js]


def whole_kl_features(samples, weights) -> np.ndarray:
    """dual_kl or scalar_kl features of every row under every pair at once.

    `weights` is `pair_kl_weights(...)` or `select_pair_weights(...)` of P
    pairs; the result is (n, P, r) and equals
    `kl_features` per pair to rounding. With T the masked total of a row,
    KL(p||q) = (sum x ln x - sum x ln(q + eps)) / T - ln T, so each component
    needs one log shared by all pairs and references, and the masked sums of
    every pair come from two products with `w`. They are einsum, not BLAS,
    so a row's bits do not depend on the number of rows. KL does not depend
    on a row's scale, so each row is first scaled by a power of two (exactly)
    to a maximum in [0.5, 1), which keeps x ln x finite for any finite x.
    Rows are not validated: callers pass finite, non-negative samples.
    """
    w, empty = weights
    npairs, r = empty.shape
    x = np.asarray(samples, dtype=float)
    _, e = np.frexp(x.max(axis=1, initial=0.0))
    x = np.ldexp(x, -e[:, None])
    xlogx = np.log(x, out=np.zeros_like(x), where=x > 0)
    xlogx *= x
    sums = np.einsum("ij,kj->ik", x, w)
    totals = sums[:, :npairs, None]
    xlogx_sums = np.einsum("ij,kj->ik", xlogx, w[:npairs])[:, :, None]
    filled = totals > 0
    t = np.where(filled, totals, 1.0)
    kl = (xlogx_sums - sums[:, npairs:].reshape(-1, npairs, r)) / t - np.log(t)
    return np.where(filled, np.maximum(kl, 0.0), empty)


def sample_feature(sample, mask, ref_x, ref_y, feature_mode: str, eps: float) -> np.ndarray:
    """Feature vector for one raw sample under a pair's mask and references."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 1 or not np.all(np.isfinite(sample)) or np.any(sample < 0):
        raise ValueError("sample must be a vector of finite components >= 0")
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must be non-empty")
    if np.any(mask < 0) or np.any(mask >= sample.shape[0]):
        raise ValueError("mask index out of range")
    return kl_features(sample[None], mask, ref_x, ref_y, feature_mode, eps)[0]


def build_pair_context(
    profile_x: ClassProfile, profile_y: ClassProfile, cfg: CdfConfig
) -> PairContext:
    """Ratio means, thresholds, mask and masked references for one class pair."""
    b, b_prime = cfg.multipliers(profile_x.class_id, profile_y.class_id)
    mu_xy = pair_mean(pair_ratios(profile_x.mean_vec, profile_y.mean_vec, cfg.smoothing_eps))
    mu_yx = pair_mean(pair_ratios(profile_y.mean_vec, profile_x.mean_vec, cfg.smoothing_eps))
    mask, fallback = select_indices(
        profile_x.mean_vec,
        profile_y.mean_vec,
        b * mu_xy,
        b_prime * mu_yx,
        mode=cfg.selection_mode,
        eps=cfg.smoothing_eps,
    )
    ref_x, _ = restrict_normalize(profile_x.mean_vec, mask)
    ref_y, _ = restrict_normalize(profile_y.mean_vec, mask)
    return PairContext(
        class_x=profile_x.class_id,
        class_y=profile_y.class_id,
        mu_xy=mu_xy,
        mu_yx=mu_yx,
        mask=mask,
        b=b,
        b_prime=b_prime,
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
