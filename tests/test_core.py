import math
import re

import numpy as np
import pytest

from cdfeat import core
from cdfeat.core import (
    build_pair_context,
    class_mean,
    class_sum,
    extract_pair_features,
    kl_divergence,
    pair_mean,
    pair_ratios,
    restrict_normalize,
    select_indices,
)
from cdfeat.model import CdfConfig, ClassProfile, PairContext

import scalar_oracle
from conftest import mnist_files, needs_mnist


def profile_from(mean_vec, class_id=0, cardinality=4):
    # Scaling by a power of two is exact, so the profile's mean_vec is mean_vec.
    mean_vec = np.asarray(mean_vec, dtype=float)
    return ClassProfile(class_id=class_id, sum_vec=mean_vec * cardinality, cardinality=cardinality)


class TestClassSum:
    def test_direct_sum(self):
        np.testing.assert_array_equal(class_sum([[0, 2], [2, 2]]), [2, 4])

    def test_single_sample_identity(self):
        np.testing.assert_array_equal(class_sum([[5, 1, 3]]), [5, 1, 3])

    def test_matches_compensated_summation(self):
        rng = np.random.default_rng(11)
        samples = rng.uniform(0, 1000, size=(100, 17))
        got = class_sum(samples)
        oracle = np.asarray([math.fsum(samples[:, i]) for i in range(17)])
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            class_sum([])


class TestClassMean:
    def test_direct_division(self):
        np.testing.assert_array_equal(class_mean([2, 4], 2), [1, 2])

    def test_cardinality_one_identity(self):
        v = np.asarray([3.5, 0.0, 7.25])
        np.testing.assert_array_equal(class_mean(v, 1), v)

    def test_zero_cardinality_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            class_mean([1.0], 0)

    def test_mean_of_copies_reconstructs_v(self):
        # v+v and /2 are exact; larger copy counts accumulate at most 1 ulp
        # because summing k identical doubles rounds (3v already does).
        rng = np.random.default_rng(3)
        for m in (1, 2):
            v = rng.uniform(0, 10, size=12)
            np.testing.assert_array_equal(class_mean(class_sum([v] * m), m), v)
        for m in (3, 4, 5, 8, 9, 64, 100):
            v = rng.uniform(0, 10, size=12)
            got = class_mean(class_sum([v] * m), m)
            np.testing.assert_allclose(got, v, rtol=1e-14, atol=0)

    @needs_mnist
    def test_mnist_thin_digit_has_smaller_mass(self):
        from cdfeat.ingest import idx_dataset, load_idx_images, load_idx_labels

        files = mnist_files()
        images = load_idx_images(files["train_images"].read_bytes())
        labels = load_idx_labels(files["train_labels"].read_bytes())
        ds = idx_dataset(images, labels, keep_classes=[0, 1])
        mean0 = class_mean(class_sum(ds.class_matrix(0)), int(np.sum(ds.labels == 0)))
        mean1 = class_mean(class_sum(ds.class_matrix(1)), int(np.sum(ds.labels == 1)))
        assert np.sum(mean1) < np.sum(mean0)


class TestPairRatios:
    def test_direct_ratio_small_eps(self):
        got = pair_ratios([1, 2], [2, 1], eps=1e-12)
        np.testing.assert_allclose(got, [0.5, 2.0], rtol=1e-9)

    def test_equal_profiles_all_ones(self):
        v = np.asarray([0.0, 1.5, 3.0])
        np.testing.assert_array_equal(pair_ratios(v, v, eps=1e-9), np.ones(3))

    def test_zeros_stay_finite(self):
        got = pair_ratios([1, 0], [0, 1], eps=1e-9)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        assert got[0] > 1e8 and got[1] < 1e-8

    def test_swap_gives_componentwise_inverse(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            t_x = rng.uniform(0.1, 50, size=30)
            t_y = rng.uniform(0.1, 50, size=30)
            prod = pair_ratios(t_x, t_y, 1e-15) * pair_ratios(t_y, t_x, 1e-15)
            np.testing.assert_allclose(prod, 1.0, rtol=0, atol=1e-6)


class TestPairMeanAndThresholds:
    def test_hand_mean(self):
        assert pair_mean([0.5, 2.0]) == 1.25

    def test_constant_vector(self):
        assert pair_mean([3.25] * 7) == 3.25

    def test_identical_classes_mu_one(self):
        v = np.asarray([2.0, 4.0, 1.0])
        r = pair_ratios(v, v, eps=1e-9)
        assert pair_mean(r) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pair_mean([])

    def test_zero_b_rejected_by_config(self):
        with pytest.raises(ValueError, match="> 0"):
            CdfConfig(b=0.0)


class TestSelectIndices:
    def test_ratio_rule_hand_case(self):
        idx, fallback = select_indices([10, 1, 1], [1, 1, 10], 2.0, 2.0)
        assert list(idx) == [0, 2]
        assert not fallback

    def test_equal_profiles_trigger_fallback(self):
        v = np.asarray([1.0, 2.0, 3.0])
        idx, fallback = select_indices(v, v, 1.0 + 1e-9, 1.0 + 1e-9)
        assert fallback
        assert idx.size == 1

    def test_tiny_thresholds_select_everything(self):
        idx, fallback = select_indices([1, 2, 3], [3, 2, 1], 1e-12, 1e-12)
        assert list(idx) == [0, 1, 2]
        assert not fallback

    def test_fallback_tie_takes_lowest_index(self):
        t_x = np.asarray([2.0, 2.0])
        t_y = np.asarray([1.0, 1.0])
        idx, fallback = select_indices(t_x, t_y, 100.0, 100.0)
        assert fallback and list(idx) == [0]

    def test_mask_monotone_in_b(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(150):
            t_x = rng.uniform(0, 5, size=40)
            t_y = rng.uniform(0, 5, size=40)
            mu_xy = pair_mean(pair_ratios(t_x, t_y, 1e-9))
            mu_yx = pair_mean(pair_ratios(t_y, t_x, 1e-9))
            b1, b2 = sorted(rng.uniform(0.3, 2.5, size=2))
            bp1, bp2 = sorted(rng.uniform(0.3, 2.5, size=2))
            lo, fb_lo = select_indices(t_x, t_y, b1 * mu_xy, bp1 * mu_yx)
            hi, fb_hi = select_indices(t_x, t_y, b2 * mu_xy, bp2 * mu_yx)
            if fb_lo or fb_hi:
                continue
            assert set(hi).issubset(set(lo))
            checked += 1
        assert checked >= 100

    def test_pair_swap_same_mask(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            t_x = rng.uniform(0, 5, size=25)
            t_y = rng.uniform(0, 5, size=25)
            tau = rng.uniform(0.5, 3.0)
            tau_prime = rng.uniform(0.5, 3.0)
            fwd, fb_f = select_indices(t_x, t_y, tau, tau_prime)
            rev, fb_r = select_indices(t_y, t_x, tau_prime, tau)
            assert list(fwd) == list(rev)
            assert fb_f == fb_r


class TestRestrictNormalize:
    def test_direct_normalization(self):
        vec, degenerate = restrict_normalize([4.0, 0.0, 4.0, 8.0], [0, 3])
        np.testing.assert_allclose(vec, [1 / 3, 2 / 3], rtol=0, atol=1e-15)
        assert not degenerate

    def test_already_normalized_unchanged(self):
        vec, _ = restrict_normalize([0.25, 0.0, 0.75], [0, 2])
        np.testing.assert_array_equal(vec, [0.25, 0.75])

    def test_zero_sample_uniform_flagged(self):
        vec, degenerate = restrict_normalize([0.0, 0.0, 0.0], [0, 2])
        np.testing.assert_array_equal(vec, [0.5, 0.5])
        assert degenerate

    def test_sums_to_one_property(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            sample = rng.uniform(0, 10, size=n) * (rng.random(n) > 0.3)
            k = int(rng.integers(1, n + 1))
            mask = np.sort(rng.choice(n, size=k, replace=False))
            vec, _ = restrict_normalize(sample, mask)
            assert vec.shape == (k,)
            assert abs(float(np.sum(vec)) - 1.0) <= 1e-12

    def test_bad_mask_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            restrict_normalize([1.0, 2.0], [3])


class TestKlDivergence:
    def test_identical_distributions_zero(self):
        p = np.asarray([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) <= 1e-12

    def test_closed_form_hand_value(self):
        expected = math.log(2) - 0.5 * math.log(3)
        assert abs(kl_divergence([0.5, 0.5], [0.25, 0.75]) - expected) < 1e-6
        assert abs(kl_divergence([0.5, 0.5], [0.25, 0.75], eps=1e-15) - expected) < 1e-12

    def test_matches_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 30
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            p = rng.random(n) + 1e-3
            q = rng.random(n) + 1e-3
            p /= p.sum()
            q /= q.sum()
            got = kl_divergence(p, q)
            oracle = mpmath.fsum(
                mpmath.mpf(pi) * mpmath.log(mpmath.mpf(pi) / (mpmath.mpf(qi) + mpmath.mpf(1e-9)))
                for pi, qi in zip(p, q)
            )
            assert abs(got - float(max(oracle, 0))) < 1e-9

    def test_non_negative_property(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            p = rng.random(n)
            p /= p.sum()
            q = rng.random(n)
            q /= q.sum()
            assert kl_divergence(p, q) >= 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            kl_divergence([0.5, 0.5], [1.0])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            kl_divergence([0.5, 0.6], [0.5, 0.5])

    def test_is_its_row_of_whole_kl_features(self):
        # Rows of every share of nonzeros, so both paths of whole_kl_features
        # run; each row and q are normalized.
        rng = np.random.default_rng(53)
        n = 64
        q = rng.random(n) * (rng.random(n) > 0.2)
        q /= q.sum()
        p = rng.random((24, n))
        for row, k in zip(p, range(1, 25)):
            row[rng.choice(n, size=n - 2 * k, replace=False)] = 0.0
        p /= p.sum(axis=1)[:, None]
        assert np.count_nonzero(p, axis=1).min() <= n / 8 < np.count_nonzero(p, axis=1).max()
        ctx = PairContext(class_x=0, class_y=1, mu_xy=1.0, mu_yx=1.0, mask=np.arange(n),
                          b=1.0, b_prime=1.0, fallback=False, ref_x=q, ref_y=q)
        for eps in (1e-9, 0.5):
            weights = core.pair_kl_weights([ctx], n, "scalar_kl", eps)
            want = core.whole_kl_features(p, weights)[:, 0, 0]
            for row, w in zip(p, want):
                got = kl_divergence(row, q, eps)
                assert np.float64(got).tobytes() == w.tobytes()
                assert abs(got - scalar_oracle.kl_divergence(row, q, eps)) < 1e-12

    def test_non_vector_rejected(self):
        with pytest.raises(ValueError, match="vectors of one length"):
            kl_divergence([[0.5, 0.5]], [[0.5, 0.5]])


# Each public eps is decided by `svm.real("eps", eps, 0)`.
BAD_EPS = [0.0, -1.0, float("nan"), float("inf"), True, "1e-9", None]


def eps_refusal(eps):
    message = f"eps must be a finite real > 0, got {eps!r}"
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


class TestEpsRule:
    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_pair_ratios(self, eps):
        with eps_refusal(eps):
            pair_ratios([1.0, 2.0], [2.0, 1.0], eps)

    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_select_indices(self, eps):
        with eps_refusal(eps):
            select_indices([10.0, 1.0], [1.0, 10.0], 2.0, 2.0, eps)

    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_kl_divergence(self, eps):
        with eps_refusal(eps):
            kl_divergence([0.5, 0.5], [0.25, 0.75], eps)

    @pytest.mark.parametrize("mode", ["dual_kl", "scalar_kl", "elementwise_kl"])
    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_sample_feature(self, eps, mode):
        ref = np.asarray([0.5, 0.5])
        with eps_refusal(eps):
            core.sample_feature([1.0, 2.0, 3.0], [0, 2], ref, ref, mode, eps)


def training_rows(samples, ctx, cfg):
    """A class's feature rows under one pair, computed as `multiclass.train` does."""
    samples = np.asarray(samples, dtype=float)
    mode, eps = cfg.feature_mode, cfg.smoothing_eps
    if mode == "elementwise_kl":
        return core.kl_features(samples, ctx.mask, ctx.ref_x, eps)
    weights = core.pair_kl_weights([ctx], samples.shape[1], mode, eps)
    return core.whole_kl_features(samples, weights)[:, 0]


class TestExtractPairFeatures:
    def setup_method(self):
        self.profile_x = profile_from([4.0, 2.0, 0.0, 2.0], class_id=0)
        self.profile_y = profile_from([1.0, 1.0, 4.0, 2.0], class_id=1)
        self.cfg = CdfConfig(b=1.0, b_prime=1.0)
        self.ctx = build_pair_context(self.profile_x, self.profile_y, self.cfg)

    def extract(self, samples_x, samples_y, cfg=None):
        cfg = cfg or self.cfg
        return extract_pair_features(
            training_rows(samples_x, self.ctx, cfg), training_rows(samples_y, self.ctx, cfg),
            self.ctx, self.profile_x, self.profile_y, cfg,
        )

    def test_sample_equal_to_own_profile(self):
        features, _ = self.extract([self.profile_x.mean_vec], [self.profile_y.mean_vec])
        ref_x, _ = restrict_normalize(self.profile_x.mean_vec, self.ctx.mask)
        ref_y, _ = restrict_normalize(self.profile_y.mean_vec, self.ctx.mask)
        assert features[0, 0] <= 1e-12
        assert abs(features[0, 1] - kl_divergence(ref_x, ref_y)) <= 1e-12

    def test_label_order(self):
        features, labels = self.extract(
            [self.profile_x.mean_vec] * 3, [self.profile_y.mean_vec] * 2
        )
        assert features.shape[0] == 5
        assert labels.dtype == float and list(labels) == [1, 1, 1, -1, -1]
        np.testing.assert_array_equal(features[1], features[0])

    def test_scalar_mode_is_first_dual_component(self):
        from dataclasses import replace

        samples_x = [np.asarray([3.0, 1.0, 0.5, 2.0])]
        samples_y = [np.asarray([1.0, 0.5, 3.0, 2.0])]
        dual, _ = self.extract(samples_x, samples_y)
        scalar, _ = self.extract(samples_x, samples_y, replace(self.cfg, feature_mode="scalar_kl"))
        np.testing.assert_array_equal(scalar[:, 0], dual[:, 0])

    def test_elementwise_mode_dimension(self):
        from dataclasses import replace

        cfg = replace(self.cfg, feature_mode="elementwise_kl")
        features, _ = self.extract(
            [np.asarray([3.0, 1.0, 0.5, 2.0])], [np.asarray([1.0, 0.5, 3.0, 2.0])], cfg
        )
        assert features.shape == (2, self.ctx.mask.size)

    def test_refuses_rows_of_another_width_or_pair(self):
        rows = np.zeros((3, 2))
        with pytest.raises(ValueError, match="must be 2 wide"):
            extract_pair_features(rows, rows[:, :1], self.ctx, self.profile_x, self.profile_y,
                                  self.cfg)
        with pytest.raises(ValueError, match="profiles do not match"):
            extract_pair_features(rows, rows, self.ctx, self.profile_y, self.profile_x,
                                  self.cfg)


class TestBuildPairContext:
    def test_context_consistency(self):
        p_x = profile_from([4.0, 0.0, 1.0], class_id=0)
        p_y = profile_from([1.0, 3.0, 1.0], class_id=1)
        cfg = CdfConfig()
        ctx = build_pair_context(p_x, p_y, cfg)
        assert ctx.tau == cfg.b * ctx.mu_xy
        assert ctx.tau_prime == cfg.b_prime * ctx.mu_yx
        assert abs(float(np.sum(ctx.ref_x)) - 1.0) <= 1e-12
        assert abs(float(np.sum(ctx.ref_y)) - 1.0) <= 1e-12


class TestSampleFeatureConsistency:
    def test_extract_and_sample_feature_agree(self):
        rng = np.random.default_rng(61)
        p_x = profile_from(rng.uniform(0, 5, size=10), class_id=0)
        p_y = profile_from(rng.uniform(0, 5, size=10), class_id=1)
        cfg = CdfConfig()
        ctx = build_pair_context(p_x, p_y, cfg)
        sample = rng.uniform(0, 5, size=10)
        rows = training_rows([sample], ctx, cfg)
        features, _ = extract_pair_features(rows, rows, ctx, p_x, p_y, cfg)
        direct = core.sample_feature(
            sample, ctx.mask, ctx.ref_x, ctx.ref_y, cfg.feature_mode, cfg.smoothing_eps
        )
        assert np.all(np.abs(features[0] - direct) <= 1e-12 * (1 + np.abs(direct)))


class TestKlFeaturesAgainstScalarOracle:
    @pytest.mark.parametrize("mode", ["dual_kl", "scalar_kl", "elementwise_kl"])
    def test_batch_matches_per_row_oracle(self, mode):
        rng = np.random.default_rng(71)
        p_x = profile_from(rng.uniform(0, 5, size=40), class_id=0)
        p_y = profile_from(rng.uniform(0, 5, size=40), class_id=1)
        ctx = build_pair_context(p_x, p_y, CdfConfig())
        x = rng.uniform(0, 5, size=(30, 40))
        x[x < 1.0] = 0.0  # zero components inside the mask
        x[3, ctx.mask] = 0.0  # masked total zero: the uniform distribution
        x[7] = 0.0
        got = training_rows(x, ctx, CdfConfig(feature_mode=mode, smoothing_eps=1e-9))
        want = np.asarray([
            scalar_oracle.sample_feature(row, ctx.mask, ctx.ref_x, ctx.ref_y, mode, 1e-9)
            for row in x
        ])
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for i, row in enumerate(x):
            np.testing.assert_array_equal(
                core.sample_feature(row, ctx.mask, ctx.ref_x, ctx.ref_y, mode, 1e-9), got[i]
            )

    def test_sample_feature_rejects_invalid_rows(self):
        mask = np.asarray([0, 1])
        ref = np.asarray([0.5, 0.5])
        for bad in ([1.0, -1.0, 2.0], [1.0, np.nan, 2.0], [[1.0, 2.0, 3.0]]):
            with pytest.raises(ValueError, match="finite components"):
                core.sample_feature(bad, mask, ref, ref, "dual_kl", 1e-9)
        with pytest.raises(ValueError, match="out of range"):
            core.sample_feature([1.0, 2.0], [0, 2], ref, ref, "dual_kl", 1e-9)
