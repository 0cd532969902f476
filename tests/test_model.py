import json
from dataclasses import replace

import numpy as np
import pytest

from cdfeat.core import CdfConfig, pair_ratios
from cdfeat.model import (
    ClassProfile,
    Dataset,
    PairFeatureSet,
    model_from_json,
    model_to_json,
    validate_dataset,
)
from cdfeat.multiclass import train
from cdfeat.svm import KernelSpec

from conftest import gaussian_blobs


def small_dataset():
    x = np.asarray([[0.0, 2.0], [2.0, 2.0], [1.0, 0.0], [3.0, 1.0]])
    return Dataset.from_arrays(x, [0, 0, 1, 1])


class TestValidateDataset:
    def test_valid_dataset_reports_nothing(self):
        assert validate_dataset(small_dataset()) == []

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Dataset.from_arrays([[0.0, 2.0], [2.0, 2.0], [1.0], [3.0, 1.0]], [0, 0, 1, 1])

    def test_shape_mismatch_reported(self):
        bad = replace(small_dataset(), dim=3)
        assert any("shape" in v for v in validate_dataset(bad))

    def test_out_of_range_class_named(self):
        bad = replace(small_dataset(), labels=[0, 0, 1, 5])
        violations = validate_dataset(bad)
        assert any("class id 5" in v for v in violations)

    def test_negative_component(self):
        ds = small_dataset()
        samples = ds.samples.copy()
        samples[0] = [-1.0, 2.0]
        bad = replace(ds, samples=samples)
        assert any("finite and >= 0" in v for v in validate_dataset(bad))

    def test_empty_class_reported(self):
        bad = replace(small_dataset(), labels=[0, 0, 0, 0])
        assert any("class 1 has no samples" in v for v in validate_dataset(bad))

    def test_randomized_single_field_corruption(self):
        # Corrupt one aspect of a valid dataset; at least one violation each time.
        rng = np.random.default_rng(7)
        for case in range(100):
            x = rng.uniform(0.0, 5.0, size=(8, 4))
            ds = Dataset.from_arrays(x, [0, 0, 1, 1, 2, 2, 0, 1])
            kind = case % 4
            samples = ds.samples.copy()
            labels = ds.labels.copy()
            i = int(rng.integers(0, len(samples)))
            if kind == 0:
                labels[i] = -1
            elif kind == 1:
                samples[i, int(rng.integers(0, 4))] = -0.5
            elif kind == 2:
                samples[i, int(rng.integers(0, 4))] = np.nan
            else:
                labels[i] = ds.num_classes + 1
            bad = replace(ds, samples=samples, labels=labels)
            assert validate_dataset(bad), f"case {case}: corruption went undetected"


class TestClassProfile:
    def test_mean_sum_consistency_enforced(self):
        with pytest.raises(ValueError, match="reproduce"):
            ClassProfile(
                class_id=0,
                sum_vec=np.asarray([2.0, 4.0]),
                mean_vec=np.asarray([1.0, 3.0]),
                cardinality=2,
            )

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ClassProfile(
                class_id=0,
                sum_vec=np.asarray([-2.0]),
                mean_vec=np.asarray([-1.0]),
                cardinality=2,
            )


class TestPairFeatureSet:
    def test_label_values_enforced(self):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            PairFeatureSet(
                features=np.asarray([[0.1], [0.2]]),
                labels=np.asarray([1, 0]),
                feature_mode="scalar_kl",
            )

    def test_negative_kl_feature_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            PairFeatureSet(
                features=np.asarray([[-0.1], [0.2]]),
                labels=np.asarray([1, -1]),
                feature_mode="dual_kl",
            )

    def test_elementwise_terms_may_be_signed(self):
        fs = PairFeatureSet(
            features=np.asarray([[-0.1, 0.3], [0.2, -0.05]]),
            labels=np.asarray([1, -1]),
            feature_mode="elementwise_kl",
        )
        assert fs.features.shape == (2, 2)


class TestSerializationRoundTrip:
    def _tiny_model(self, seed, feature_mode="dual_kl", selection_mode="ratio"):
        x, y = gaussian_blobs(6, seed=seed, dims=8, classes=2)
        ds = Dataset.from_arrays(x, y)
        cfg = CdfConfig(
            b=0.5 + (seed % 3) * 0.5,
            feature_mode=feature_mode,
            selection_mode=selection_mode,
            pair_overrides={(0, 1): (1.25, 0.75)} if seed % 5 == 0 else {},
        )
        return train(ds, cfg, kernel=KernelSpec(kind="polynomial", degree=2),
                     c=5.0, seed=seed)

    @pytest.mark.parametrize("seed", range(0, 12))
    def test_round_trip_equality(self, seed):
        mode = ("dual_kl", "scalar_kl", "elementwise_kl")[seed % 3]
        model = self._tiny_model(seed, feature_mode=mode)
        text = model_to_json(model)
        back = model_from_json(text)
        assert back == model
        assert model_to_json(back) == text

    def test_format_field_checked(self):
        model = self._tiny_model(1)
        text = model_to_json(model).replace("cdf-model/2", "cdf-model/9", 1)
        with pytest.raises(ValueError, match="format"):
            model_from_json(text)

    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_format_1_document_loads(self, seed):
        # A cdf-model/1 document is a /2 one plus each pair's ratio vector and
        # the config's log base; both are ignored on load.
        model = self._tiny_model(seed)
        doc = json.loads(model_to_json(model))
        assert doc["format"] == "cdf-model/2"
        doc["format"] = "cdf-model/1"
        doc["config"]["kl_log_base"] = "natural"
        for e in doc["pairs"]:
            x, y = (model.profiles[e[k]].mean_vec for k in ("class_x", "class_y"))
            e["ratios"] = list(pair_ratios(x, y, model.config.smoothing_eps))
        assert model_from_json(json.dumps(doc)) == model

    @pytest.mark.parametrize("corrupt", [
        lambda ref: ref[:-1],
        lambda ref: [-v for v in ref],
        lambda ref: [2.0 * v for v in ref],
        lambda ref: [None] + ref[1:],
    ])
    def test_corrupt_reference_fails_at_load(self, corrupt):
        doc = json.loads(model_to_json(self._tiny_model(3)))
        doc["pairs"][0]["ref_y"] = corrupt(doc["pairs"][0]["ref_y"])
        with pytest.raises(ValueError, match="ref_y"):
            model_from_json(json.dumps(doc))

    def test_round_trip_many_seeds(self):
        # Serialization stability across a spread of random models.
        for seed in range(100, 150):
            model = self._tiny_model(seed)
            assert model_from_json(model_to_json(model)) == model


class TestDatasetHelpers:
    def test_class_matrix_groups_rows(self):
        ds = small_dataset()
        np.testing.assert_array_equal(
            ds.class_matrix(1), np.asarray([[1.0, 0.0], [3.0, 1.0]])
        )

    def test_samples_are_read_only(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.samples[0][0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_callers_arrays_stay_writable(self):
        x = np.ones((2, 2))
        ds = Dataset.from_arrays(x, [0, 1])
        assert x.flags.writeable and not ds.samples.flags.writeable
        mean = np.ones(2)
        ClassProfile(class_id=0, sum_vec=2 * mean, mean_vec=mean, cardinality=2)
        assert mean.flags.writeable

    def test_matrix_is_the_sample_matrix(self):
        ds = small_dataset()
        assert ds.matrix() is ds.samples
        assert ds.samples.shape == (4, 2) and ds.labels.dtype == np.int64

    def test_equality_compares_contents(self):
        assert small_dataset() == small_dataset()
        assert small_dataset() != replace(small_dataset(), labels=[0, 1, 1, 1])
