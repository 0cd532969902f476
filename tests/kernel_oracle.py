"""One kernel value at a time, kept as a reference for `svm.kernel_matrix`.

Each value comes straight from the kernel's formula on one vector pair, with
no shared dot-product matrix and no squared-distance expansion.
"""

from __future__ import annotations

import numpy as np

from cdfeat.svm import KernelSpec


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
