"""One kernel value at a time, kept as a reference for `svm.kernel_matrix`,
and one sample's decision from a BLAS kernel column, kept as a reference for
`svm.decision_batch`.

Each `kernel_eval` value comes straight from the kernel's formula on one
vector pair, with no shared dot-product matrix and no squared-distance
expansion. `decision` takes the sample's column of `kernel_matrix` against
the support vectors and its dot product with the coefficients, where
`decision_batch` sums each row of `rowwise_kernel_matrix` times them.
"""

from __future__ import annotations

import numpy as np

from cdfeat.svm import KernelSpec, SvmModel, kernel_matrix


def kernel_eval(spec: KernelSpec, u, v) -> float:
    """Evaluate the kernel on a single vector pair."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"kernel arguments differ in length: {u.shape} vs {v.shape}")
    if spec.kind == "linear":
        return float(u @ v)
    if spec.gamma is None:
        raise ValueError("gamma unresolved; call KernelSpec.resolve(dim) first")
    if spec.kind == "polynomial":
        return float((spec.gamma * (u @ v) + spec.coef0) ** spec.degree)
    return float(np.exp(-spec.gamma * np.sum((u - v) ** 2)))


def decision(model: SvmModel, x) -> float:
    """One sample's decision value, sum_s coef_s k(s, x) + bias."""
    x = np.asarray(x, dtype=float)
    k = kernel_matrix(model.kernel, model.support_vectors, x[None, :])[:, 0]
    return float(model.coef @ k + model.bias)
