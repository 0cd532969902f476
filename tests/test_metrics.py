import numpy as np
import pytest

from cdfeat.metrics import (
    ConfusionMatrix,
    confusion,
    error_rate,
    format_confusion,
    macro_micro_f,
    metric_lines,
)
from cdfeat.report import fmt_float

# Hand-computed on [[8,2],[3,7]]: P0=8/11, R0=8/10, F0=16/21;
# P1=7/9, R1=7/10, F1=14/19; macro=(16/21+14/19)/2=299/399; micro=0.75.
HAND_CM = np.asarray([[8, 2], [3, 7]])
HAND_MACRO = 299.0 / 399.0
HAND_MICRO = 0.75


class TestErrorRate:
    def test_perfect_predictions(self):
        assert error_rate([0, 1, 2], [0, 1, 2]) == 0.0

    def test_direct_count(self):
        assert error_rate([0, 1, 1], [0, 0, 0]) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            error_rate([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            error_rate([0], [0, 1])


class TestConfusion:
    def test_perfect_two_class(self):
        cm = confusion([0, 0, 0, 1, 1], [0, 0, 0, 1, 1], 2)
        np.testing.assert_array_equal(cm.counts, [[3, 0], [0, 2]])
        assert cm.total == 5

    def test_single_wrong_sample(self):
        cm = confusion([1], [0], 2)
        np.testing.assert_array_equal(cm.counts, [[0, 1], [0, 0]])

    def test_row_sums_are_truth_counts(self):
        rng = np.random.default_rng(19)
        truth = rng.integers(0, 4, size=60)
        preds = rng.integers(0, 4, size=60)
        cm = confusion(preds, truth, 4)
        for c in range(4):
            assert int(np.sum(cm.counts[c])) == int(np.sum(truth == c))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            confusion([2], [0], 2)


class TestMacroMicroF:
    def test_perfect_predictions(self):
        cm = confusion([0, 1, 1], [0, 1, 1], 2)
        macro, micro, _ = macro_micro_f(cm)
        assert macro == 1.0 and micro == 1.0

    def test_hand_computed_matrix(self):
        macro, micro, per_class = macro_micro_f(ConfusionMatrix(HAND_CM, 20))
        p0, r0, f0 = per_class[0]
        p1, r1, f1 = per_class[1]
        assert abs(p0 - 8 / 11) <= 1e-12
        assert abs(r0 - 0.8) <= 1e-12
        assert abs(p1 - 7 / 9) <= 1e-12
        assert abs(r1 - 0.7) <= 1e-12
        assert abs(f0 - 16 / 21) <= 1e-12
        assert abs(f1 - 14 / 19) <= 1e-12
        assert abs(macro - HAND_MACRO) <= 1e-12
        assert abs(micro - HAND_MICRO) <= 1e-12

    def test_micro_f_equals_accuracy_single_label(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 80))
            truth = rng.integers(0, m, size=n)
            preds = rng.integers(0, m, size=n)
            cm = confusion(preds, truth, m)
            _, micro, _ = macro_micro_f(cm)
            assert micro == pytest.approx(1.0 - error_rate(preds, truth), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(37)
        counts = rng.integers(0, 9, size=(4, 4))
        cm = ConfusionMatrix(counts, int(np.sum(counts)))
        macro, micro, _ = macro_micro_f(cm)
        perm = rng.permutation(4)
        permuted = counts[np.ix_(perm, perm)]
        macro_p, micro_p, _ = macro_micro_f(
            ConfusionMatrix(permuted, int(np.sum(permuted)))
        )
        assert macro_p == pytest.approx(macro, abs=1e-12)
        assert micro_p == pytest.approx(micro, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            counts = rng.integers(0, 12, size=(m, m))
            total = int(np.sum(counts))
            if total == 0:
                continue
            macro, micro, _ = macro_micro_f(ConfusionMatrix(counts, total))
            assert 0.0 <= macro <= 1.0
            assert 0.0 <= micro <= 1.0

    def test_zero_denominator_convention(self):
        # Class 1 never predicted and never true beyond one miss.
        cm = confusion([0, 0, 0], [0, 0, 1], 2)
        _, _, per_class = macro_micro_f(cm)
        assert per_class[1] == (0.0, 0.0, 0.0)


class TestReportEmission:
    def test_metric_lines_keys(self):
        lines = metric_lines(confusion([0, 1, 1], [0, 1, 0], 2))
        joined = "\n".join(lines)
        for key in ("error_rate=", "macro_f=", "micro_f=", "class_0_precision="):
            assert key in joined

    def test_metric_lines_error_matches_error_rate(self):
        rng = np.random.default_rng(11)
        for n in (1, 7, 30, 97):
            preds, truth = rng.integers(0, 3, n).tolist(), rng.integers(0, 3, n).tolist()
            err = error_rate(preds, truth)
            lines = metric_lines(confusion(preds, truth, 3))
            assert f"error_rate={fmt_float(err)}" in lines
            assert f"accuracy={fmt_float(1.0 - err)}" in lines

    def test_format_confusion_aligned(self):
        cm = confusion([0, 1, 1], [0, 1, 0], 2)
        text = format_confusion(cm, ["cat", "dog"])
        lines = text.splitlines()
        assert len(lines) == 3
        assert "cat" in lines[0] and "dog" in lines[0]
