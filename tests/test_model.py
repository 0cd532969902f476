import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from cdfeat.baseline import TfIdfModel, train_ovo
from cdfeat.core import CdfConfig
from cdfeat.ingest import IdxImages
from cdfeat.metrics import ConfusionMatrix
from cdfeat.cli import main
from cdfeat.model import (
    MODEL_FORMAT,
    ClassProfile,
    Dataset,
    model_from_json,
    model_to_json,
    validate_dataset,
)
from cdfeat.multiclass import train
from cdfeat.svm import MAX_DEGREE, KernelSpec, SvmForm, SvmModel

from conftest import gaussian_blobs


def small_dataset():
    x = np.asarray([[0.0, 2.0], [2.0, 2.0], [1.0, 0.0], [3.0, 1.0]])
    return Dataset.from_arrays(x, [0, 0, 1, 1])


def one_of_each_record() -> list:
    """One instance of every record type (the frozen types holding arrays)."""
    model = train(small_dataset())
    ctx, form = model.pairs[0]
    svm = train(small_dataset(), kernel=KernelSpec(kind="rbf")).pairs[0][1]
    ovo = train_ovo(small_dataset().samples, [0, 0, 1, 1], 2, KernelSpec(kind="linear"))
    return [
        small_dataset(),
        model.profiles[0],
        ctx,
        model,
        form,
        svm,
        TfIdfModel(np.ones(3)),
        ConfusionMatrix(np.eye(2, dtype=np.int64), 2),
        IdxImages(np.ones((1, 4)), 2, 2),
        ovo,
        ovo.pairs[0][2],
    ]


class TestValidateDataset:
    def test_valid_dataset_reports_nothing(self):
        assert validate_dataset(small_dataset()) == []

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Dataset.from_arrays([[0.0, 2.0], [2.0, 2.0], [1.0], [3.0, 1.0]], [0, 0, 1, 1])

    def test_shape_mismatch_reported(self):
        bad = replace(small_dataset(), labels=[0, 0, 1])
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

    def test_duplicate_label_names_reported(self):
        # Names map eval's truth onto model ids, so two classes must not share one.
        x, y = small_dataset().samples, [0, 1, 2, 1]
        bad = Dataset.from_arrays(x, y, label_names=["a", "b", "a"])
        assert validate_dataset(bad) == ["label names ['a', 'b', 'a'] are not distinct"]
        with pytest.raises(ValueError, match="not distinct"):
            train(bad)

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


@pytest.mark.parametrize("make", [
    lambda v: ClassProfile(class_id=0, sum_vec=v, cardinality=1),
    lambda v: SvmForm(weights=v, bias=0.0, support_count=0, iterations=0, kkt_violation_max=0.0),
], ids=["sum_vec", "weights"])
@pytest.mark.parametrize("value", [
    ["12", "0", True], [True, "1.5"], [True, False], np.ones(2, dtype=bool), [None, 1.0],
    [b"1", b"2"],
], ids=["strings-bool", "bool-string", "bools", "bool-array", "none", "bytes"])
def test_record_refuses_elements_that_are_not_numbers(make, value):
    with pytest.raises(ValueError, match=r"(sum_vec|weights) must be an array of numbers"):
        make(value)


class TestClassProfile:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ClassProfile(class_id=0, sum_vec=np.asarray([-2.0]), cardinality=2)

    def test_mean_is_derived_and_read_only(self):
        sums = np.asarray([3.0, 1.0, 0.0, 1e300, 5e-324])
        profile = ClassProfile(class_id=0, sum_vec=sums, cardinality=3)
        assert profile.mean_vec.tobytes() == (sums / 3).tobytes()
        assert profile.mean_vec is profile.mean_vec
        with pytest.raises(ValueError):
            profile.mean_vec[0] = 9.0
        with pytest.raises(AttributeError):
            profile.mean_vec = sums


class TestSerializationRoundTrip:
    def _tiny_model(self, seed, feature_mode="dual_kl", classes=2):
        x, y = gaussian_blobs(6, seed=seed, dims=8, classes=classes)
        ds = Dataset.from_arrays(x, y)
        cfg = CdfConfig(b=0.5 + (seed % 3) * 0.5, feature_mode=feature_mode)
        return train(ds, cfg, kernel=KernelSpec(kind="polynomial", degree=2), c=5.0)

    @pytest.mark.parametrize("seed", range(0, 12))
    def test_round_trip_equality(self, seed):
        mode = ("dual_kl", "scalar_kl", "elementwise_kl")[seed % 3]
        model = self._tiny_model(seed, feature_mode=mode)
        text = model_to_json(model)
        back = model_from_json(text)
        assert back == model
        assert model_to_json(back) == text

    def test_pairs_out_of_order_refused(self):
        # Votes name each pair's classes by its place in `class_pairs` order.
        model = self._tiny_model(1, classes=3)
        swapped = (model.pairs[1], model.pairs[0], model.pairs[2])
        with pytest.raises(ValueError, match=r"pair \(0,2\) is out of order, expected \(0, 1\)"):
            replace(model, pairs=swapped)

    def test_negative_zero_round_trips(self):
        # SMO can return a bias or KKT gap of -0.0; the file keeps its sign.
        model = self._tiny_model(0)
        ctx, svm = model.pairs[0]
        signed = replace(svm, bias=-0.0, kkt_violation_max=-0.0)
        model = replace(model, pairs=((ctx, signed),))
        text = model_to_json(model)
        assert '"bias":-0.0,' in text and '"kkt_violation_max":-0.0}' in text
        back = model_from_json(text)
        assert back == model and np.signbit(back.pairs[0][1].bias)
        assert model_to_json(back) == text

    def test_format_field_checked(self):
        model = self._tiny_model(1)
        text = model_to_json(model).replace(MODEL_FORMAT, "cdf-model/9", 1)
        with pytest.raises(ValueError, match="format"):
            model_from_json(text)

    @pytest.mark.parametrize("old", [
        "cdf-model/1", "cdf-model/2", "cdf-model/3", "cdf-model/4", "cdf-model/5", "cdf-model/6",
    ])
    def test_older_formats_refused(self, old):
        doc = json.loads(model_to_json(self._tiny_model(0)))
        doc["format"] = old
        with pytest.raises(ValueError, match=f"{old}.*retrain"):
            model_from_json(json.dumps(doc))

    def test_config_with_selection_mode_refused(self):
        # The ratio rule is the only selection rule; the key is not read.
        doc = json.loads(model_to_json(self._tiny_model(0)))
        doc["config"]["selection_mode"] = "ratio"
        with pytest.raises(ValueError, match="CdfConfig document must be an object with keys"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.update(c=10**400),
        lambda d: d["pairs"][0].update(bias=10**400),
        lambda d: d["profiles"][0].update(cardinality=10**400),
        lambda d: d["profiles"][0]["sum_vec"].__setitem__(0, 10**400),
    ], ids=["c", "bias", "cardinality", "sum_vec"])
    def test_integer_beyond_float_range_refused(self, corrupt):
        doc = json.loads(model_to_json(self._tiny_model(0)))
        corrupt(doc)
        with pytest.raises(ValueError):
            model_from_json(json.dumps(doc))

    def test_duplicate_label_names_refused(self):
        doc = json.loads(model_to_json(self._tiny_model(1, classes=3)))
        doc["label_names"] = ["a", "b", "a"]
        with pytest.raises(ValueError, match=r"label names must be distinct, got \['a', 'b', 'a'\]"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("names", ["012", {"0": 1, "1": 2, "2": 3}])
    def test_label_names_must_be_a_list(self, names):
        # tuple() would read both as the names ('0', '1', '2').
        doc = json.loads(model_to_json(self._tiny_model(1, classes=3)))
        doc["label_names"] = names
        with pytest.raises(ValueError, match="label names must be a list of strings"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kernel, written", [
        (KernelSpec(kind="polynomial"), '"support_count":0'),
        (KernelSpec(kind="rbf"), '"support_vectors":[]'),
    ], ids=["form", "svm"])
    def test_svm_without_support_vectors_round_trips(self, kernel, written):
        # tol 5 is above the KKT gap of 2 at alpha = 0: no SMO step is taken.
        x, y = gaussian_blobs(6, seed=3, dims=8, classes=3)
        model = train(Dataset.from_arrays(x, y), kernel=kernel, tol=5.0)
        assert all(svm.support_vectors.shape[0] == 0 for _, svm in model.pairs)
        text = model_to_json(model)
        assert text.count(written) == 3
        back = model_from_json(text)
        assert back == model
        assert model_to_json(back) == text

    @pytest.mark.parametrize("feature_mode, kernel, keys", [
        ("dual_kl", "polynomial", {"weights", "support_count"}),
        ("scalar_kl", "linear", {"weights", "support_count"}),
        ("dual_kl", "rbf", {"support_vectors", "coef"}),
        ("elementwise_kl", "polynomial", {"support_vectors", "coef"}),
    ])
    def test_pairs_store_no_derivable_fields(self, feature_mode, kernel, keys):
        x, y = gaussian_blobs(6, seed=2, dims=8, classes=3)
        model = train(Dataset.from_arrays(x, y), CdfConfig(feature_mode=feature_mode),
                      kernel=KernelSpec(kind=kernel))
        doc = json.loads(model_to_json(model))
        assert set(doc) == {"format", "config", "kernel", "c", "tol", "max_passes",
                            "label_names", "profiles", "pairs"}
        assert set(doc["config"]) == {"b", "b_prime", "feature_mode", "smoothing_eps"}
        for e in doc["pairs"]:
            assert set(e) == keys | {"bias", "iterations", "kkt_violation_max"}
        for p in doc["profiles"]:
            assert set(p) == {"cardinality", "sum_vec"}

    def test_form_weights_per_kernel_and_mode(self):
        # One weight per monomial of degree <= d in the pair's 2 or 1 features.
        x, y = gaussian_blobs(6, seed=2, dims=8, classes=3)
        ds = Dataset.from_arrays(x, y)
        for mode, kernel, count in (("dual_kl", KernelSpec("linear"), 3),
                                    ("dual_kl", KernelSpec("polynomial", degree=3), 10),
                                    ("scalar_kl", KernelSpec("polynomial", degree=3), 4)):
            model = train(ds, CdfConfig(feature_mode=mode), kernel=kernel)
            assert len(model.form_exponents) == count
            assert all(form.weights.shape == (count,) for _, form in model.pairs)

    def test_integral_sums_written_as_integers(self):
        x = np.asarray([[1.0, 0.0, 2.0], [3.0, 1.0, 0.0], [0.0, 4.0, 1.0], [1.0, 2.0, 2.0]])
        doc = json.loads(model_to_json(train(Dataset.from_arrays(x, [0, 0, 1, 1]))))
        assert doc["profiles"][0]["sum_vec"] == [4, 1, 2]
        assert all(type(v) is int for p in doc["profiles"] for v in p["sum_vec"])

    @staticmethod
    def _set_sum_vec(fn):
        def corrupt(doc):
            doc["profiles"][1]["sum_vec"] = fn(doc["profiles"][1]["sum_vec"])
        return corrupt

    @pytest.mark.parametrize("corrupt", [
        _set_sum_vec(lambda v: v[:-1]),
        _set_sum_vec(lambda v: [-1.0] + v[1:]),
        _set_sum_vec(lambda v: [None] + v[1:]),
        _set_sum_vec(lambda v: ["NaN"] + v[1:]),
        # Elements that are not numbers are refused even where float() would
        # read them.
        _set_sum_vec(lambda v: ["12", "0", True] + v[3:]),
        lambda doc: doc["pairs"][0].update(weights=[True, "1.5", *doc["pairs"][0]["weights"][2:]]),
        lambda doc: doc["profiles"][0].update(cardinality=0),
        lambda doc: doc["pairs"].pop(1),
        lambda doc: doc["pairs"].append(doc["pairs"][0]),
        lambda doc: doc["label_names"].pop(),
        lambda doc: doc["label_names"].append("extra"),
        lambda doc: doc.update(label_names=["0"], profiles=doc["profiles"][:1], pairs=[]),
        # json.dumps writes bare NaN and Infinity, and json.loads reads them.
        lambda doc: doc["pairs"][0].update(bias=float("nan")),
        lambda doc: doc["pairs"][0].update(kkt_violation_max=float("inf")),
        lambda doc: doc.update(tol="0.001"),
        lambda doc: doc.update(tol=0.0),
        lambda doc: doc.update(tol=float("nan")),
        lambda doc: doc.update(tol=True),
        lambda doc: doc.update(max_passes=0),
        lambda doc: doc.update(max_passes=2.5),
        lambda doc: doc.update(c=0.0),
        lambda doc: doc.update(c=-5.0),
        lambda doc: doc["profiles"][0].update(cardinality=60.5),
        lambda doc: doc["pairs"][0].update(iterations="5"),
        lambda doc: doc.update(label_names=list(range(len(doc["label_names"])))),
        lambda doc: doc["kernel"].update(coef0="1"),
        lambda doc: doc["kernel"].update(gamma="0.5"),
        lambda doc: doc["kernel"].update(degree=2.5),
        lambda doc: doc["kernel"].update(degree=True),
        lambda doc: doc["kernel"].update(degree=MAX_DEGREE + 1),
        lambda doc: doc["kernel"].update(degree=1000000),
        lambda doc: doc["config"].update(b=True),
        lambda doc: doc["config"].update(b_prime="1"),
        lambda doc: doc["config"].update(smoothing_eps=float("inf")),
        lambda doc: doc["pairs"][0].update(bias=True),
        lambda doc: doc["pairs"][0].update(kkt_violation_max=True),
        lambda doc: doc["config"].pop("smoothing_eps"),
        lambda doc: doc["config"].update(seed=0),
        lambda doc: doc["kernel"].pop("coef0"),
        lambda doc: doc.update(kernel=[]),
        # A string is the whole document, one that is not a JSON object.
        "[]", "null", '"x"', "[" * 100000 + "]" * 100000,
    ], ids=["truncated", "negative", "null", "nan-string", "sums-string-bool",
            "weights-bool-string", "cardinality-0",
            "missing-pair", "extra-pair", "names-short", "names-long",
            "one-class", "bias-nan", "kkt-inf",
            "tol-string", "tol-0", "tol-nan", "tol-bool", "max-passes-0", "max-passes-real",
            "c-0", "c-negative", "cardinality-real", "iterations-string", "names-int",
            "coef0-string", "gamma-string", "degree-real", "degree-bool",
            "degree-above-max", "degree-million",
            "b-bool", "b-prime-string", "eps-inf", "bias-bool", "kkt-bool",
            "config-without-eps", "config-extra-key", "kernel-without-coef0", "kernel-list",
            "doc-list", "doc-null", "doc-string", "doc-nested-deeply"])
    def test_corrupt_document_fails_at_load(self, corrupt, tmp_path, capsys):
        if isinstance(corrupt, str):
            text = corrupt
        else:
            doc = json.loads(
                model_to_json(self._tiny_model(3, feature_mode="scalar_kl", classes=3))
            )
            corrupt(doc)
            text = json.dumps(doc)
        with pytest.raises(ValueError):
            model_from_json(text)
        path = tmp_path / "corrupt.json"
        path.write_text(text)
        assert main(["inspect", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable model") and err.count("\n") == 1

    @staticmethod
    def _corrupt_pair(doc, key, fn):
        doc["pairs"][1][key] = fn(doc["pairs"][1][key])

    @pytest.mark.parametrize("key, fn, message", [
        ("weights", lambda w: w[:-1], r"pair \(0,2\) form must hold 3 weights .*got 2"),
        ("weights", lambda w: w + [0.0], r"pair \(0,2\) form must hold 3 weights .*got 4"),
        ("weights", lambda w: [float("nan")] + w[1:], r"pair \(0,2\): weights must be .*finite"),
        ("weights", lambda w: w[:-1] + [float("-inf")], r"pair \(0,2\): weights must be"),
        ("weights", lambda w: [w], r"pair \(0,2\): weights must be"),
        ("support_count", lambda n: -1, r"pair \(0,2\): support_count must be an integer >= 0"),
        ("support_count", lambda n: 2.0, r"pair \(0,2\): support_count must be an integer"),
        ("support_count", lambda n: "3", r"pair \(0,2\): support_count must be an integer"),
        ("support_count", lambda n: True, r"pair \(0,2\): support_count must be an integer"),
        ("iterations", lambda n: -1, r"pair \(0,2\): iterations must be an integer >= 0"),
    ], ids=["weights-short", "weights-long", "weights-nan", "weights-inf", "weights-nested",
            "count-negative", "count-real", "count-string", "count-bool", "iterations-negative"])
    def test_corrupt_form_pair_refused(self, key, fn, message):
        doc = json.loads(model_to_json(self._tiny_model(3, feature_mode="scalar_kl", classes=3)))
        self._corrupt_pair(doc, key, fn)
        with pytest.raises(ValueError, match=message):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("mode, kernel, corrupt", [
        ("scalar_kl", "polynomial", lambda p: p.update(support_vectors=[[1.0]])),
        ("scalar_kl", "polynomial", lambda p: p.update(coef=[])),
        ("dual_kl", "linear", lambda p: p.pop("support_count")),
        ("dual_kl", "rbf", lambda p: p.update(weights=[1.0, 2.0, 3.0])),
        ("elementwise_kl", "polynomial", lambda p: p.update(weights=[1.0])),
        ("elementwise_kl", "linear", lambda p: p.update(support_count=1)),
        ("dual_kl", "rbf", lambda p: p.pop("coef")),
    ], ids=["sv-in-form", "coef-in-form", "form-without-count", "weights-in-rbf",
            "weights-in-elementwise", "count-in-elementwise", "rbf-without-coef"])
    def test_pair_keys_of_the_other_kind_refused(self, mode, kernel, corrupt):
        model = train(Dataset.from_arrays(*gaussian_blobs(6, seed=5, dims=8, classes=3)),
                      CdfConfig(feature_mode=mode), kernel=KernelSpec(kind=kernel))
        doc = json.loads(model_to_json(model))
        corrupt(doc["pairs"][2])
        with pytest.raises(ValueError, match=r"^pair \(1,2\) must be an object with keys"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("corrupt", [
        lambda sv: [row + [0.0] for row in sv],
        lambda sv: [[float("nan")] + row[1:] for row in sv],
        lambda sv: sv[:-1] + [[float("inf")] + sv[-1][1:]],
        lambda sv: 5,
    ], ids=["sv-width", "sv-nan", "sv-inf", "sv-scalar"])
    def test_corrupt_support_vectors_refused(self, corrupt):
        model = train(Dataset.from_arrays(*gaussian_blobs(6, seed=3, dims=8, classes=3)),
                      CdfConfig(feature_mode="scalar_kl"), kernel=KernelSpec(kind="rbf"))
        doc = json.loads(model_to_json(model))
        self._corrupt_pair(doc, "support_vectors", corrupt)
        with pytest.raises(ValueError, match=r"^pair \(0,2\): support vectors must be"):
            model_from_json(json.dumps(doc))
        doc = json.loads(model_to_json(model))
        for coef in (5, [float("nan")] * len(doc["pairs"][1]["coef"])):
            doc["pairs"][1]["coef"] = coef
            with pytest.raises(ValueError, match=r"^pair \(0,2\): "):
                model_from_json(json.dumps(doc))

    def test_degree_at_the_limit_loads(self):
        # A degree-d form on one feature holds d + 1 weights.
        doc = json.loads(model_to_json(self._tiny_model(3, feature_mode="scalar_kl", classes=3)))
        doc["kernel"]["degree"] = MAX_DEGREE
        for p in doc["pairs"]:
            p["weights"] += [0.0] * (MAX_DEGREE - 2)
        assert model_from_json(json.dumps(doc)).kernel.degree == MAX_DEGREE

    @pytest.mark.parametrize("name", ["b", "b_prime", "smoothing_eps"])
    def test_config_refuses_int_beyond_float_range(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite real > 0, got 1000"):
            CdfConfig(**{name: 10**400})

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_special_values_round_trip_exactly(self, kernel):
        # Sums at and past 2**53 stay reals; the other values are form
        # weights or support vectors.
        x = np.asarray([[2.0**53, 1 / 3, 1.0], [2.0**60, 0.5, 2.0],
                        [1.0, 2.0**53, 3.0], [2.0, 1.0, 1e300]])
        model = train(Dataset.from_arrays(x, [0, 0, 1, 1]), kernel=KernelSpec(kind=kernel))
        ctx, svm = model.pairs[0]
        special = np.asarray([5e-324, 1e300, 1 / 3, -0.0])
        field = "weights" if kernel == "linear" else "support_vectors"
        values = np.resize(special, getattr(svm, field).shape)
        svm = replace(svm, **{field: values}, bias=-0.0)
        model = replace(model, pairs=((ctx, svm),))
        text = model_to_json(model)
        # Class 1's sums are integral, but not all below 2**53.
        sums = json.loads(text)["profiles"][1]["sum_vec"]
        assert sums == [3.0, 2.0**53, 1e300] and all(type(v) is float for v in sums)
        back = model_from_json(text)
        assert back == model and model_to_json(back) == text
        for before, after in zip(model.profiles, back.profiles):
            assert before.sum_vec.tobytes() == after.sum_vec.tobytes()
        assert values.tobytes() == getattr(back.pairs[0][1], field).tobytes()
        # A config and a form refuse a NaN themselves; a support vector is
        # checked at load only, so a NaN there reaches model_to_json, which
        # refuses it.
        with pytest.raises(ValueError, match="b must be a finite real"):
            replace(model.config, b=float("nan"))
        nan_values = np.resize(np.asarray([float("nan")]), values.shape)
        if kernel == "linear":
            with pytest.raises(ValueError, match="weights must be a list of finite reals"):
                replace(svm, weights=nan_values)
        else:
            nan_model = replace(model, pairs=((ctx, replace(svm, support_vectors=nan_values)),))
            with pytest.raises(ValueError, match="Out of range float"):
                model_to_json(nan_model)

    def test_pair_of_the_wrong_kind_refused(self):
        # A forms model holds SvmForm pairs, any other model SvmModel pairs.
        ds = small_dataset()
        form_model = train(ds)
        svm_model = train(ds, kernel=KernelSpec(kind="rbf"))
        (ctx, form), (_, svm) = form_model.pairs[0], svm_model.pairs[0]
        with pytest.raises(ValueError, match=r"pair \(0,1\) must hold a form"):
            replace(form_model, pairs=((ctx, svm),))
        with pytest.raises(ValueError, match=r"pair \(0,1\) must hold support vectors"):
            replace(svm_model, pairs=((ctx, form),))
        assert isinstance(form, SvmForm) and isinstance(svm, SvmModel)

    def test_profiles_out_of_place_refused(self):
        # The file does not store class ids: profile i is class i.
        model = self._tiny_model(1, classes=3)
        p0, p1, p2 = model.profiles
        with pytest.raises(ValueError, match=r"profile i must be of class i, got \[1, 0, 2\]"):
            replace(model, profiles=(p1, p0, p2))

    @pytest.mark.parametrize("change", [
        lambda svm: {"c": 2 * svm.c},
        lambda svm: {"kernel": replace(svm.kernel, gamma=0.3)},
    ], ids=["c-doubled", "gamma"])
    def test_svm_settings_other_than_the_models_refused(self, change):
        # The file stores C and the kernel once, for the model; the loader
        # gives each SVM the model's C and its kernel resolved for the
        # pair's width.
        x, y = gaussian_blobs(6, seed=3, dims=8, classes=3)
        model = train(Dataset.from_arrays(x, y), kernel=KernelSpec(kind="rbf"))
        (ctx, svm), *rest = model.pairs
        with pytest.raises(ValueError, match=r"^pair \(0,1\) SVM must have the model's kernel"):
            replace(model, pairs=((ctx, replace(svm, **change(svm))), *rest))

    @pytest.mark.parametrize("given, plain", [
        ((CdfConfig(b=np.float32(1.5), b_prime=2),
          KernelSpec("polynomial", degree=np.int64(3), coef0=1)),
         (CdfConfig(b=1.5, b_prime=2.0), KernelSpec("polynomial", degree=3, coef0=1.0))),
        ((CdfConfig(b=1, smoothing_eps=np.float64(1e-6)),
          KernelSpec("rbf", degree=np.int32(2), gamma=np.float16(0.5), coef0=np.int8(0))),
         (CdfConfig(b=1.0, smoothing_eps=1e-6), KernelSpec("rbf", gamma=0.5, coef0=0.0))),
    ], ids=["numpy-poly", "int-rbf"])
    def test_settings_stored_as_python_numbers(self, given, plain):
        # Settings given as ints or numpy scalars hold the equal Python
        # float/int, so the model writes the text of the plain settings.
        (cfg, kernel), (plain_cfg, plain_kernel) = given, plain
        assert (cfg, kernel) == (plain_cfg, plain_kernel)
        reals = [cfg.b, cfg.b_prime, cfg.smoothing_eps, kernel.coef0]
        if kernel.gamma is not None:
            reals.append(kernel.gamma)
        assert all(type(v) is float for v in reals) and type(kernel.degree) is int
        x, y = gaussian_blobs(6, seed=4, dims=8, classes=3)
        ds = Dataset.from_arrays(x, y)
        model = train(ds, cfg, kernel=kernel, c=5.0)
        text = model_to_json(model)
        assert text == model_to_json(train(ds, plain_cfg, kernel=plain_kernel, c=5.0))
        back = model_from_json(text)
        assert back == model and model_to_json(back) == text

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
        sums = np.ones(2)
        ClassProfile(class_id=0, sum_vec=sums, cardinality=2)
        assert sums.flags.writeable
        px, counts = np.ones((1, 4)), np.eye(2, dtype=np.int64)
        images, cm = IdxImages(px, 2, 2), ConfusionMatrix(counts, 2)
        assert px.flags.writeable and counts.flags.writeable
        assert not images.pixels.flags.writeable and not cm.counts.flags.writeable

    def test_matrix_is_the_sample_matrix(self):
        ds = small_dataset()
        assert ds.matrix() is ds.samples
        assert ds.samples.shape == (4, 2) and ds.labels.dtype == np.int64

    def test_equality_compares_contents(self):
        assert small_dataset() == small_dataset()
        assert small_dataset() != replace(small_dataset(), labels=[0, 1, 1, 1])
        records = one_of_each_record()
        for record in records:
            assert copy.copy(record) == record
            assert record != "record" and not record == 1
            assert all(other != record for other in records if other is not record)
            with pytest.raises(TypeError):
                hash(record)
            for name in type(record).ARRAYS:
                changed = copy.copy(record)
                array = getattr(record, name).copy()
                array.flat[-1] += 1
                object.__setattr__(changed, name, array)
                assert changed != record and not changed == record, name
        model, form = records[3], records[4]
        other_form = replace(form, bias=form.bias + 1.0)
        assert replace(model, pairs=((model.pairs[0][0], other_form),)) != model
        px = np.ones((1, 4))
        assert (IdxImages(px, 2, 2) == IdxImages(px.copy(), 2, 2)) is True
        assert (IdxImages(px, 2, 2) == IdxImages(2 * px, 2, 2)) is False
        cfg = CdfConfig(b=0.5, b_prime=2.0)
        same = CdfConfig(b=0.5, b_prime=2.0)
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != replace(cfg, b_prime=1.0) and cfg != "cfg"
