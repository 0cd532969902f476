"""The baseline's own pair loop and vote loop, kept as a reference for the
shared one-vs-one engine (`multiclass.fit_pairs` and `multiclass.vote`).

Each pair's SVM is fit on its rows with +1 for the first class, and a row's
votes and margin sums accumulate pair by pair in Python floats.
"""

from __future__ import annotations

import numpy as np

from cdfeat.model import class_pairs
from cdfeat.multiclass import resolve_winner
from cdfeat.svm import DEFAULT_MAX_PASSES, DEFAULT_TOL, smo_train
from kernel_oracle import decision


def train_ovo(x, y, num_classes, kernel, c, tol=DEFAULT_TOL, max_passes=DEFAULT_MAX_PASSES):
    """((class_x, class_y, SvmModel), ...) in pair order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    pairs = []
    for cx, cy in class_pairs(num_classes):
        rows = np.flatnonzero((y == cx) | (y == cy))
        labels = np.where(y[rows] == cx, 1.0, -1.0)
        svm = smo_train(
            x[rows], labels, c, kernel.resolve(x.shape[1]),
            tol=tol, max_passes=max_passes,
        )
        pairs.append((cx, cy, svm))
    return tuple(pairs)


def decisions(pairs, sample) -> list:
    """Each pair's `kernel_oracle.decision` on one row, in pair order."""
    return [decision(svm, sample) for _, _, svm in pairs]


def votes_and_margins(pairs, num_classes, sample):
    """Per-class vote counts and |decision| margin sums for one row."""
    votes = [0] * num_classes
    margins = [0.0] * num_classes
    for (cx, cy, _), d in zip(pairs, decisions(pairs, sample)):
        voted = cx if d > 0 else cy
        votes[voted] += 1
        margins[voted] += abs(d)
    return votes, margins


def predict_ovo(pairs, num_classes, sample) -> int:
    return resolve_winner(*votes_and_margins(pairs, num_classes, sample))
