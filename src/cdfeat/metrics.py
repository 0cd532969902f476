"""Evaluation metrics: error rate, confusion matrix, macro/micro F measures.

Zero-denominator precision and recall are defined as 0 so macro averaging
always runs over all classes. Macro-F is the mean of per-class F1 scores;
micro-F pools TP/FP/FN over all classes first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .record import Record


@dataclass(frozen=True, eq=False)
class ConfusionMatrix(Record):
    """m x m counts indexed (true class, predicted class)."""

    counts: np.ndarray
    total: int

    ARRAYS = {"counts": np.int64}

    def __post_init__(self):
        super().__post_init__()
        counts = self.counts
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if np.any(counts < 0):
            raise ValueError("confusion counts must be >= 0")
        if int(np.sum(counts)) != self.total:
            raise ValueError("confusion counts must sum to total")

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]


def error_rate(preds, truth) -> float:
    """Fraction of mismatching predictions."""
    preds = list(preds)
    truth = list(truth)
    if not preds:
        raise ValueError("error_rate of empty input")
    if len(preds) != len(truth):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(truth)} truths")
    wrong = sum(1 for p, t in zip(preds, truth) if p != t)
    return wrong / len(preds)


def confusion(preds, truth, num_classes: int) -> ConfusionMatrix:
    """Count (true, predicted) pairs into an m x m matrix."""
    preds = list(preds)
    truth = list(truth)
    if len(preds) != len(truth):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(truth)} truths")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, t in zip(preds, truth):
        if not (0 <= p < num_classes and 0 <= t < num_classes):
            raise ValueError(f"class id outside [0, {num_classes}): true={t} pred={p}")
        counts[t, p] += 1
    return ConfusionMatrix(counts=counts, total=len(preds))


def macro_micro_f(cm: ConfusionMatrix):
    """(macro_f, micro_f, per-class list of (precision, recall, f1))."""
    if cm.total < 1:
        raise ValueError("empty confusion matrix")
    counts = cm.counts
    m = cm.num_classes
    per_class = []
    tp_all = fp_all = fn_all = 0
    for c in range(m):
        tp = int(counts[c, c])
        fp = int(np.sum(counts[:, c])) - tp
        fn = int(np.sum(counts[c, :])) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
        tp_all += tp
        fp_all += fp
        fn_all += fn
    macro_f = sum(f for _, _, f in per_class) / m
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0
    micro_f = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0
    return macro_f, micro_f, per_class


def format_confusion(cm: ConfusionMatrix, label_names=None) -> str:
    """Aligned plain-text confusion table, rows true, columns predicted."""
    m = cm.num_classes
    names = list(label_names) if label_names is not None else [str(c) for c in range(m)]
    width = max(5, max(len(n) for n in names) + 1, len(str(int(cm.counts.max(initial=0)))) + 1)
    lines = ["true\\pred".ljust(10) + "".join(n.rjust(width) for n in names)]
    for c in range(m):
        row = names[c].ljust(10) + "".join(
            str(int(v)).rjust(width) for v in cm.counts[c]
        )
        lines.append(row)
    return "\n".join(lines)


def metric_lines(cm: ConfusionMatrix, label_names=None) -> list[str]:
    """Machine-readable `metric=value` lines for one evaluation's confusion matrix."""
    from .report import fmt_float

    macro_f, micro_f, per_class = macro_micro_f(cm)
    names = [str(c) for c in range(cm.num_classes)] if label_names is None else list(label_names)
    error = (cm.total - int(np.trace(cm.counts))) / cm.total
    lines = [
        f"samples={cm.total}",
        f"error_rate={fmt_float(error)}",
        f"accuracy={fmt_float(1.0 - error)}",
        f"macro_f={fmt_float(macro_f)}",
        f"micro_f={fmt_float(micro_f)}",
    ]
    for name, (p, r, f1) in zip(names, per_class):
        lines.append(f"class_{name}_precision={fmt_float(p)}")
        lines.append(f"class_{name}_recall={fmt_float(r)}")
        lines.append(f"class_{name}_f1={fmt_float(f1)}")
    return lines
