"""The whole-array SMO loop, kept as a bit-level reference for `svm.smo_train`.

Every iteration rebuilds the index sets I_up/I_low from alpha, recomputes
s = -y*grad and updates the full gradient; the production solver keeps s in
its (2, n) violation matrix, rewrites only the entries of the two changed
multipliers, and must return an equal `SvmModel` (same bits) on every
problem.
"""

from __future__ import annotations

import numpy as np

from cdfeat.svm import KernelSpec, SvmModel, _kernel_rows


def smo_train(
    x,
    y,
    c: float,
    spec: KernelSpec,
    tol: float = 1e-3,
    max_passes: int = 10,
) -> SvmModel:
    """Train a binary SVM by SMO, recomputing every per-sample array each step."""
    x = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != yv.shape[0]:
        raise ValueError("x must be 2-D with one label per row")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature values")
    if not np.all(np.isin(yv, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if np.all(yv == yv[0]):
        raise ValueError("training needs at least one sample of each label")
    if c <= 0:
        raise ValueError("C must be > 0")

    n = x.shape[0]
    spec = spec.resolve(x.shape[1])
    row = _kernel_rows(spec, x)

    alpha = np.zeros(n)
    grad = np.full(n, -1.0)  # gradient of the dual objective at alpha = 0
    max_iter = max(1, max_passes * n)
    iterations = 0
    neg_inf = -np.inf

    while iterations < max_iter:
        up = ((yv > 0) & (alpha < c)) | ((yv < 0) & (alpha > 0))
        low = ((yv > 0) & (alpha > 0)) | ((yv < 0) & (alpha < c))
        s = -yv * grad
        m_up = np.where(up, s, neg_inf)
        m_low = np.where(low, s, -neg_inf)
        i = int(np.argmax(m_up))
        j = int(np.argmin(m_low))
        gap = m_up[i] - m_low[j]
        if gap <= tol:
            break

        ki = row(i)
        kj = row(j)
        quad = ki[i] + kj[j] - 2.0 * ki[j]
        if quad <= 0:
            quad = 1e-12

        old_i, old_j = alpha[i], alpha[j]
        if yv[i] != yv[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = old_i - old_j
            ai, aj = old_i + delta, old_j + delta
            if diff > 0 and aj < 0:
                ai, aj = diff, 0.0
            elif diff <= 0 and ai < 0:
                ai, aj = 0.0, -diff
            if diff > 0 and ai > c:
                ai, aj = c, c - diff
            elif diff <= 0 and aj > c:
                ai, aj = c + diff, c
        else:
            delta = (grad[i] - grad[j]) / quad
            total = old_i + old_j
            ai, aj = old_i - delta, old_j + delta
            if total > c and ai > c:
                ai, aj = c, total - c
            elif total <= c and aj < 0:
                ai, aj = total, 0.0
            if total > c and aj > c:
                ai, aj = total - c, c
            elif total <= c and ai < 0:
                ai, aj = 0.0, total

        alpha[i], alpha[j] = ai, aj
        d_i, d_j = ai - old_i, aj - old_j
        grad += (yv * yv[i] * d_i) * ki + (yv * yv[j] * d_j) * kj
        iterations += 1

    # Final KKT gap and bias from the converged multipliers.
    up = ((yv > 0) & (alpha < c)) | ((yv < 0) & (alpha > 0))
    low = ((yv > 0) & (alpha > 0)) | ((yv < 0) & (alpha < c))
    s = -yv * grad
    m = float(np.max(np.where(up, s, neg_inf)))
    mm = float(np.min(np.where(low, s, -neg_inf)))
    kkt_gap = max(m - mm, 0.0)
    free = (alpha > 0) & (alpha < c)
    bias = float(np.mean(s[free])) if np.any(free) else (m + mm) / 2.0

    keep = alpha > 0
    return SvmModel(
        support_vectors=x[keep],
        coef=alpha[keep] * yv[keep],
        bias=bias,
        kernel=spec,
        c=c,
        iterations=iterations,
        kkt_violation_max=kkt_gap,
    )
