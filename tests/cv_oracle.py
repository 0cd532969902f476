"""Cross-validation with grid cells in the outer loop and one fresh
`multiclass.train` per cell and fold, kept as a reference for
`svm.cross_validate` with `multiclass.pipeline_trainer`, which visits folds
first and reuses each fold's profiles and each (fold, b, b_prime) selection
across C.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cdfeat import multiclass
from cdfeat.model import Dataset
from cdfeat.svm import DEFAULT_MAX_PASSES, DEFAULT_TOL, CvResult, stratified_folds


def cross_validate(x, y, grid, folds, seed, cfg, tol=DEFAULT_TOL, max_passes=DEFAULT_MAX_PASSES):
    """(CvResult, models): models[k] lists grid cell k's fitted models in fold order."""
    grid = list(grid)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    val_sets = stratified_folds(y, folds, seed)
    all_idx = np.arange(len(y))

    table, models = [], []
    best_cell, best_acc = None, -1.0
    for cell in grid:
        accs, fitted = [], []
        for val in val_sets:
            train_mask = np.ones(len(y), dtype=bool)
            train_mask[val] = False
            tr = all_idx[train_mask]
            model = multiclass.train(
                Dataset.from_arrays(x[tr], y[tr]),
                replace(cfg, b=cell.b, b_prime=cell.b_prime),
                kernel=cell.kernel, c=cell.c, tol=tol, max_passes=max_passes,
            )
            pred = np.asarray([w for w, _ in multiclass.predict_batch(model, x[val])])
            accs.append(float(np.mean(pred == y[val])))
            fitted.append(model)
        mean_acc = float(np.mean(accs))
        table.append((cell, mean_acc))
        models.append(fitted)
        if mean_acc > best_acc:
            best_acc = mean_acc
            best_cell = cell
    return CvResult(best=best_cell, table=tuple(table)), models
